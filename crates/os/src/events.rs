//! Data the kernel reports to its orchestrator.
//!
//! The record/replay stack needs to see every scheduling action (to
//! virtualize the recording hardware) and every syscall's user-visible
//! effect (to build the input log). The kernel returns these as plain
//! data instead of calling back, which keeps `qr-os` independent of the
//! recording machinery.

use qr_common::{CoreId, ThreadId, VirtAddr};
use qr_mem::MemEvent;

/// A scheduling action the kernel performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// `tid` started running on `core`.
    ScheduledOn {
        /// The core.
        core: CoreId,
        /// The thread.
        tid: ThreadId,
        /// How far the core's clock trailed the makespan: the run loop
        /// lifts the core by this much before charging `kernel_cycles`.
        lift: u64,
    },
    /// `tid` stopped running on `core` (preempted, blocked or exited).
    DescheduledFrom {
        /// The core.
        core: CoreId,
        /// The thread.
        tid: ThreadId,
    },
}

/// The recorded, replayable essence of one completed syscall.
///
/// During replay the kernel logic is *not* re-executed; the result is
/// injected and `writes` are applied to user memory at the equivalent
/// point. Syscalls with structural effects (`spawn`, `exit`, `sbrk`,
/// signal management) are re-applied structurally by the replayer, which
/// re-reads the arguments from the replayed thread's registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallRecord {
    /// The calling thread.
    pub tid: ThreadId,
    /// Syscall number (see [`qr_isa::abi`]).
    pub number: u32,
    /// Value returned in `R0`.
    pub result: u32,
    /// Kernel writes into user memory (the copy_to_user payloads the
    /// input log must carry).
    pub writes: Vec<(VirtAddr, Vec<u8>)>,
}

/// Everything one kernel interaction produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyscallOutcome {
    /// Syscalls that *completed* during this interaction: the caller's
    /// own (if it did not block) plus any blocked syscalls that finished
    /// as a side effect (futex wakes, join releases). In completion
    /// order.
    pub records: Vec<SyscallRecord>,
    /// Scheduling actions, in order.
    pub sched: Vec<SchedEvent>,
    /// Coherence events from kernel copies in and out of user memory
    /// (the recorder checks them against open chunks).
    pub mem_events: Vec<MemEvent>,
    /// Kernel time the run loop charges to the interacting core, after
    /// the lifts in `sched`.
    pub kernel_cycles: u64,
}

impl SyscallOutcome {
    /// Merges another outcome produced within the same interaction.
    pub fn merge(&mut self, other: SyscallOutcome) {
        self.records.extend(other.records);
        self.sched.extend(other.sched);
        self.mem_events.extend(other.mem_events);
        self.kernel_cycles += other.kernel_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates_in_order() {
        let mut a = SyscallOutcome {
            records: vec![SyscallRecord { tid: ThreadId(0), number: 1, result: 0, writes: vec![] }],
            sched: vec![SchedEvent::ScheduledOn { core: CoreId(0), tid: ThreadId(0), lift: 0 }],
            mem_events: vec![],
            kernel_cycles: 10,
        };
        let b = SyscallOutcome {
            records: vec![SyscallRecord { tid: ThreadId(1), number: 2, result: 7, writes: vec![] }],
            sched: vec![],
            mem_events: vec![],
            kernel_cycles: 5,
        };
        a.merge(b);
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.records[1].tid, ThreadId(1));
        assert_eq!(a.kernel_cycles, 15);
    }
}
