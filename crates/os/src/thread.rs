//! Kernel thread objects.

use qr_common::{CoreId, ThreadId, VirtAddr};
use qr_cpu::CpuContext;

/// Why a thread is not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting on a futex word at this address.
    Futex(VirtAddr),
    /// Waiting for another thread to exit.
    Join(ThreadId),
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// On the run queue, context saved in the thread object.
    Runnable,
    /// Executing on a core (context lives in the core).
    Running(CoreId),
    /// Blocked in a syscall.
    Blocked(BlockReason),
    /// Finished, with an exit code.
    Exited(u32),
}

/// One kernel thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id (stable, never reused).
    pub tid: ThreadId,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Saved context while not running.
    pub saved: Option<CpuContext>,
    /// Stack range `[base, top)` for diagnostics.
    pub stack_base: VirtAddr,
    /// Stack top (initial SP).
    pub stack_top: VirtAddr,
    /// Threads blocked in `join` on this one.
    pub joiners: Vec<ThreadId>,
    /// Installed SIGUSR handler, if any.
    pub signal_handler: Option<VirtAddr>,
    /// Pending (undelivered) SIGUSR count.
    pub pending_signals: u32,
    /// Context saved at signal delivery, restored by `sigreturn`.
    pub signal_saved: Option<CpuContext>,
    /// Syscall number this thread is blocked in, for deferred results.
    pub blocked_in: Option<u32>,
}

impl Thread {
    /// Creates a runnable thread with a saved context.
    pub fn new(tid: ThreadId, ctx: CpuContext, stack_base: VirtAddr, stack_top: VirtAddr) -> Thread {
        Thread {
            tid,
            state: ThreadState::Runnable,
            saved: Some(ctx),
            stack_base,
            stack_top,
            joiners: Vec::new(),
            signal_handler: None,
            pending_signals: 0,
            signal_saved: None,
            blocked_in: None,
        }
    }

    /// Whether the thread has exited.
    pub fn is_exited(&self) -> bool {
        matches!(self.state, ThreadState::Exited(_))
    }

    /// Exit code if exited.
    pub fn exit_code(&self) -> Option<u32> {
        match self.state {
            ThreadState::Exited(code) => Some(code),
            _ => None,
        }
    }

    /// Whether the thread is currently inside a signal handler.
    fn in_signal_handler(&self) -> bool {
        self.signal_saved.is_some()
    }

    /// Whether a signal can be delivered right now (handler installed,
    /// pending count nonzero, not already handling one).
    pub fn signal_deliverable(&self) -> bool {
        self.signal_handler.is_some() && self.pending_signals > 0 && !self.in_signal_handler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> Thread {
        Thread::new(
            ThreadId(1),
            CpuContext::new(VirtAddr(0x1000)),
            VirtAddr(0x1000_0000),
            VirtAddr(0x1001_0000),
        )
    }

    #[test]
    fn new_thread_is_runnable_with_saved_context() {
        let t = thread();
        assert_eq!(t.state, ThreadState::Runnable);
        assert!(t.saved.is_some());
        assert!(!t.is_exited());
        assert_eq!(t.exit_code(), None);
    }

    #[test]
    fn exit_code_reads_back() {
        let mut t = thread();
        t.state = ThreadState::Exited(42);
        assert!(t.is_exited());
        assert_eq!(t.exit_code(), Some(42));
    }

    #[test]
    fn signal_deliverability_rules() {
        let mut t = thread();
        assert!(!t.signal_deliverable(), "no handler");
        t.signal_handler = Some(VirtAddr(0x2000));
        assert!(!t.signal_deliverable(), "nothing pending");
        t.pending_signals = 1;
        assert!(t.signal_deliverable());
        t.signal_saved = Some(CpuContext::new(VirtAddr(0)));
        assert!(!t.signal_deliverable(), "already in a handler");
    }
}
