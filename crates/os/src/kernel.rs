//! The kernel: threads, scheduler, syscalls, futexes, signals.

use crate::config::OsConfig;
use crate::events::{SchedEvent, SyscallOutcome, SyscallRecord};
use crate::thread::{BlockReason, Thread, ThreadState};
use qr_common::{CoreId, QrError, Result, SplitMix64, ThreadId, VirtAddr};
use qr_cpu::{CpuContext, Machine, NondetKind};
use qr_isa::abi;
use qr_isa::program::{CODE_BASE, INSTR_BYTES, STACK_TOP};
use qr_isa::Reg;
use std::collections::{BTreeMap, VecDeque};

/// Maximum bytes one `read`/`write` syscall moves (keeps copy costs
/// bounded like a real kernel's single-call limits).
const MAX_COPY_BYTES: u32 = 64 * 1024;

/// Result value returned for invalid arguments (the `-1` of this ABI).
pub const EFAULT: u32 = u32::MAX;

/// The simulated kernel for one machine.
#[derive(Debug)]
pub struct Kernel {
    cfg: OsConfig,
    threads: Vec<Thread>,
    runq: VecDeque<ThreadId>,
    core_thread: Vec<Option<ThreadId>>,
    /// Core-local cycle count when the current thread was scheduled.
    core_sched_cycle: Vec<u64>,
    futex_waiters: BTreeMap<u32, VecDeque<ThreadId>>,
    console: Vec<u8>,
    brk: VirtAddr,
    next_stack_top: u32,
    device_rng: SplitMix64,
    live: usize,
}

impl Kernel {
    /// Creates the kernel and the main thread (tid 0) for the loaded
    /// program; call [`Kernel::place_runnable`] (or run it with
    /// [`crate::run_loop::run`]) to start executing.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, or mapping errors for the main stack.
    pub fn new(cfg: OsConfig, machine: &mut Machine) -> Result<Kernel> {
        cfg.validate()?;
        let num_cores = machine.num_cores();
        let mut kernel = Kernel {
            threads: Vec::new(),
            runq: VecDeque::new(),
            core_thread: vec![None; num_cores],
            core_sched_cycle: vec![0; num_cores],
            futex_waiters: BTreeMap::new(),
            console: Vec::new(),
            brk: VirtAddr(align_up(machine.program().initial_brk().0, 64)),
            next_stack_top: STACK_TOP,
            device_rng: SplitMix64::new(cfg.input_seed),
            live: 0,
            cfg,
        };
        let entry = machine.program().entry();
        kernel.create_thread(machine, entry, 0)?;
        Ok(kernel)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Console output so far.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Whether every thread has exited.
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Number of live (non-exited) threads.
    pub fn live_threads(&self) -> usize {
        self.live
    }

    /// The main thread's exit code (0 if still running).
    pub fn exit_code(&self) -> u32 {
        self.threads.first().and_then(Thread::exit_code).unwrap_or(0)
    }

    /// The thread currently running on `core`.
    pub fn thread_on(&self, core: CoreId) -> Option<ThreadId> {
        self.core_thread[core.index()]
    }

    /// Exit codes of all threads in tid order (`None` while running) —
    /// part of the replay-validation fingerprint.
    pub fn exit_codes(&self) -> Vec<Option<u32>> {
        self.threads.iter().map(Thread::exit_code).collect()
    }

    // ----- thread creation / placement -----------------------------------

    fn create_thread(&mut self, machine: &mut Machine, entry: VirtAddr, arg: u32) -> Result<ThreadId> {
        let tid = ThreadId(self.threads.len() as u32);
        let top = self.next_stack_top;
        let base = top - self.cfg.stack_bytes;
        self.next_stack_top = base - self.cfg.stack_guard_bytes;
        machine.mem_mut().map_region(VirtAddr(base), self.cfg.stack_bytes)?;
        let mut ctx = CpuContext::new(entry);
        ctx.set_reg(Reg::SP, top);
        ctx.set_reg(Reg::R1, arg);
        self.threads.push(Thread::new(tid, ctx, VirtAddr(base), VirtAddr(top)));
        self.runq.push_back(tid);
        self.live += 1;
        Ok(tid)
    }

    /// Fills idle cores from the run queue. Returns the scheduling
    /// actions taken.
    ///
    /// Every core it fills resumes at the makespan (the most advanced
    /// core's clock): a core that sat idle, and equally a core that only
    /// switches threads after a preempt, block or exit, whose clock can
    /// trail the makespan. Each [`SchedEvent::ScheduledOn`] reports that
    /// lift; the run loop applies it, like every kernel cost, and the
    /// kernel touches no clock.
    pub fn place_runnable(&mut self, machine: &mut Machine) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        let makespan = machine.makespan();
        for i in 0..machine.num_cores() {
            let core = CoreId(i as u8);
            if self.core_thread[i].is_some() {
                continue;
            }
            let Some(tid) = self.runq.pop_front() else { break };
            let thread = &mut self.threads[tid.index()];
            let ctx = thread.saved.take().expect("runnable thread has a saved context");
            thread.state = ThreadState::Running(core);
            machine.core_mut(core).swap_context(Some(ctx));
            self.core_thread[i] = Some(tid);
            self.core_sched_cycle[i] = makespan;
            events.push(SchedEvent::ScheduledOn { core, tid, lift: makespan - machine.core(core).cycles() });
        }
        events
    }

    fn deschedule(&mut self, machine: &mut Machine, core: CoreId, new_state: ThreadState) -> SchedEvent {
        let tid = self.core_thread[core.index()].take().expect("deschedule of an idle core");
        let ctx = machine.core_mut(core).swap_context(None).expect("running thread has a context");
        let thread = &mut self.threads[tid.index()];
        match new_state {
            ThreadState::Exited(_) => {
                thread.saved = None;
                self.live -= 1;
            }
            _ => thread.saved = Some(ctx),
        }
        thread.state = new_state;
        SchedEvent::DescheduledFrom { core, tid }
    }

    /// Whether the thread on `core` has exhausted its quantum and someone
    /// is waiting.
    pub fn quantum_expired(&self, machine: &Machine, core: CoreId) -> bool {
        self.core_thread[core.index()].is_some()
            && !self.runq.is_empty()
            && machine.core(core).cycles() - self.core_sched_cycle[core.index()]
                >= self.cfg.quantum_cycles
    }

    /// Preempts the thread on `core`, scheduling the next runnable one.
    pub fn preempt(&mut self, machine: &mut Machine, core: CoreId) -> SyscallOutcome {
        let mut out = SyscallOutcome::default();
        let tid = match self.core_thread[core.index()] {
            Some(t) => t,
            None => return out,
        };
        out.sched.push(self.deschedule(machine, core, ThreadState::Runnable));
        self.runq.push_back(tid);
        out.kernel_cycles += self.cfg.context_switch_cycles;
        out.sched.extend(self.place_runnable(machine));
        out
    }

    // ----- trap handlers --------------------------------------------------

    /// Services the `halt` instruction (thread exit with code 0).
    pub fn handle_halt(&mut self, machine: &mut Machine, core: CoreId) -> SyscallOutcome {
        self.exit_thread(machine, core, 0)
    }

    /// Services a fault: the thread is killed with a recognizable code.
    pub fn handle_fault(&mut self, machine: &mut Machine, core: CoreId, _err: &QrError) -> SyscallOutcome {
        self.exit_thread(machine, core, 0xdead_0000)
    }

    /// Supplies the value for a nondeterministic read.
    pub fn nondet_value(&mut self, machine: &Machine, kind: NondetKind) -> u32 {
        match kind {
            NondetKind::Rdtsc => machine.mem().now().0 as u32,
            NondetKind::Rdrand => self.device_rng.next_u32(),
        }
    }

    fn exit_thread(&mut self, machine: &mut Machine, core: CoreId, code: u32) -> SyscallOutcome {
        let mut out = SyscallOutcome::default();
        let tid = self.core_thread[core.index()].expect("exit from an idle core");
        // Every thread death — explicit exit, halt or fault — produces an
        // exit record so the replayer learns the code uniformly.
        out.records.push(SyscallRecord { tid, number: abi::SYS_EXIT, result: code, writes: Vec::new() });
        out.sched.push(self.deschedule(machine, core, ThreadState::Exited(code)));
        // Release joiners.
        let joiners = std::mem::take(&mut self.threads[tid.index()].joiners);
        for j in joiners {
            self.complete_blocked(j, code, &mut out);
        }
        out.kernel_cycles += self.cfg.syscall_base_cycles;
        out.sched.extend(self.place_runnable(machine));
        out
    }

    /// Finishes a blocked syscall for `tid` with `result`, making the
    /// thread runnable again and emitting its deferred record.
    fn complete_blocked(&mut self, tid: ThreadId, result: u32, out: &mut SyscallOutcome) {
        let thread = &mut self.threads[tid.index()];
        let number = thread.blocked_in.take().expect("blocked thread has a pending syscall");
        thread
            .saved
            .as_mut()
            .expect("blocked thread has a saved context")
            .set_reg(Reg::R0, result);
        thread.state = ThreadState::Runnable;
        self.runq.push_back(tid);
        out.records.push(SyscallRecord { tid, number, result, writes: Vec::new() });
    }

    /// Services the syscall the thread on `core` just trapped with.
    ///
    /// # Errors
    ///
    /// Only internal inconsistencies return errors; guest mistakes (bad
    /// pointers, bad arguments) produce [`EFAULT`] results.
    pub fn handle_syscall(&mut self, machine: &mut Machine, core: CoreId) -> Result<SyscallOutcome> {
        let tid = self.core_thread[core.index()].expect("syscall from an idle core");
        let number = machine.read_reg(core, Reg::R0);
        let a1 = machine.read_reg(core, Reg::R1);
        let a2 = machine.read_reg(core, Reg::R2);
        let mut out = SyscallOutcome::default();
        out.kernel_cycles += self.cfg.syscall_base_cycles;

        // Completed-in-place syscalls set `result`; blocking and exiting
        // paths return early.
        let result: u32 = match number {
            abi::SYS_EXIT => {
                return Ok(self.exit_thread(machine, core, a1));
            }
            abi::SYS_WRITE => {
                let len = a2.min(MAX_COPY_BYTES);
                match machine.mem_mut().kernel_read_bytes(core, VirtAddr(a1), len) {
                    Ok((bytes, access)) => {
                        out.kernel_cycles += access.cycles
                            + self.cfg.copy_cycles_per_byte * len as u64;
                        out.mem_events.extend(access.events);
                        self.console.extend_from_slice(&bytes);
                        len
                    }
                    Err(_) => EFAULT,
                }
            }
            abi::SYS_SPAWN => {
                let entry = VirtAddr(a1);
                let code_end = CODE_BASE + machine.program().len() as u32 * INSTR_BYTES;
                if entry.0 < CODE_BASE || entry.0 >= code_end || !(entry.0 - CODE_BASE).is_multiple_of(INSTR_BYTES)
                {
                    EFAULT
                } else {
                    let new_tid = self.create_thread(machine, entry, a2)?;
                    out.kernel_cycles += self.cfg.context_switch_cycles;
                    out.sched.extend(self.place_runnable(machine));
                    new_tid.0
                }
            }
            abi::SYS_JOIN => {
                let target = ThreadId(a1);
                match self.threads.get(target.index()) {
                    None => EFAULT,
                    Some(t) if t.tid == tid => EFAULT,
                    Some(t) => match t.exit_code() {
                        Some(code) => code,
                        None => {
                            // Block until the target exits; the record is
                            // deferred to completion time.
                            self.block_current(
                                machine,
                                core,
                                BlockReason::Join(target),
                                number,
                                &mut out,
                            );
                            self.threads[target.index()].joiners.push(tid);
                            out.sched.extend(self.place_runnable(machine));
                            return Ok(out);
                        }
                    },
                }
            }
            abi::SYS_FUTEX_WAIT => {
                match machine.mem_mut().kernel_read_bytes(core, VirtAddr(a1), 4) {
                    Err(_) => EFAULT,
                    Ok((bytes, access)) => {
                        out.kernel_cycles += access.cycles;
                        out.mem_events.extend(access.events);
                        let current = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                        if current != a2 {
                            1 // value already changed; do not sleep
                        } else {
                            self.block_current(
                                machine,
                                core,
                                BlockReason::Futex(VirtAddr(a1)),
                                number,
                                &mut out,
                            );
                            self.futex_waiters.entry(a1).or_default().push_back(tid);
                            out.sched.extend(self.place_runnable(machine));
                            return Ok(out);
                        }
                    }
                }
            }
            abi::SYS_FUTEX_WAKE => {
                let mut to_wake = Vec::new();
                if let Some(waiters) = self.futex_waiters.get_mut(&a1) {
                    while (to_wake.len() as u32) < a2.max(1) {
                        let Some(w) = waiters.pop_front() else { break };
                        to_wake.push(w);
                    }
                    if waiters.is_empty() {
                        self.futex_waiters.remove(&a1);
                    }
                }
                // The waker's record precedes the woken waiters' records:
                // the wake causally happens before each wait returns, and
                // replay-time analyses (the race detector's futex edges)
                // rely on that order.
                let woken = to_wake.len() as u32;
                machine.write_reg(core, Reg::R0, woken);
                out.records.push(SyscallRecord { tid, number, result: woken, writes: Vec::new() });
                for w in to_wake {
                    self.complete_blocked(w, 0, &mut out);
                }
                out.sched.extend(self.place_runnable(machine));
                return Ok(out);
            }
            abi::SYS_YIELD => {
                machine.write_reg(core, Reg::R0, 0);
                out.records.push(SyscallRecord { tid, number, result: 0, writes: Vec::new() });
                if !self.runq.is_empty() {
                    out.merge(self.preempt(machine, core));
                }
                return Ok(out);
            }
            abi::SYS_TIME => machine.mem().now().0 as u32,
            abi::SYS_SBRK => {
                let grow = align_up(a1, 64);
                let old = self.brk;
                if grow > 0 && machine.mem_mut().map_region(old, grow).is_err() {
                    EFAULT
                } else {
                    self.brk = VirtAddr(old.0 + grow);
                    old.0
                }
            }
            abi::SYS_GETTID => tid.0,
            abi::SYS_READ => {
                let len = a2.min(4096);
                let mut bytes = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    bytes.push(self.device_rng.next_u64() as u8);
                }
                match machine.mem_mut().kernel_write_bytes(core, VirtAddr(a1), &bytes) {
                    Ok(access) => {
                        out.kernel_cycles += access.cycles
                            + self.cfg.copy_cycles_per_byte * len as u64;
                        out.mem_events.extend(access.events);
                        out.records.push(SyscallRecord {
                            tid,
                            number,
                            result: len,
                            writes: vec![(VirtAddr(a1), bytes)],
                        });
                        machine.write_reg(core, Reg::R0, len);
                        return Ok(out);
                    }
                    Err(_) => EFAULT,
                }
            }
            abi::SYS_NCORES => machine.num_cores() as u32,
            abi::SYS_RAND => self.device_rng.next_u32(),
            abi::SYS_SIGACTION => {
                let thread = &mut self.threads[tid.index()];
                let old = thread.signal_handler.map_or(0, |a| a.0);
                thread.signal_handler = (a1 != 0).then_some(VirtAddr(a1));
                old
            }
            abi::SYS_KILL => {
                let target = ThreadId(a1);
                match self.threads.get_mut(target.index()) {
                    Some(t) if !t.is_exited() => {
                        t.pending_signals += 1;
                        0
                    }
                    _ => EFAULT,
                }
            }
            abi::SYS_SIGRETURN => {
                let thread = &mut self.threads[tid.index()];
                match thread.signal_saved.take() {
                    Some(saved) => {
                        machine.core_mut(core).swap_context(Some(saved));
                        out.records.push(SyscallRecord {
                            tid,
                            number,
                            result: 0,
                            writes: Vec::new(),
                        });
                        return Ok(out);
                    }
                    None => EFAULT,
                }
            }
            _ => EFAULT,
        };

        machine.write_reg(core, Reg::R0, result);
        out.records.push(SyscallRecord { tid, number, result, writes: Vec::new() });
        Ok(out)
    }

    fn block_current(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        reason: BlockReason,
        number: u32,
        out: &mut SyscallOutcome,
    ) {
        out.sched.push(self.deschedule(machine, core, ThreadState::Blocked(reason)));
        let tid = match out.sched.last() {
            Some(SchedEvent::DescheduledFrom { tid, .. }) => *tid,
            _ => unreachable!("deschedule emits DescheduledFrom"),
        };
        self.threads[tid.index()].blocked_in = Some(number);
    }

    // ----- signals ---------------------------------------------------------

    /// Whether the thread on `core` has a deliverable signal.
    pub fn signal_ready(&self, core: CoreId) -> bool {
        self.core_thread[core.index()]
            .and_then(|tid| self.threads.get(tid.index()))
            .is_some_and(Thread::signal_deliverable)
    }

    /// Delivers one pending SIGUSR to the thread on `core`: saves the
    /// interrupted context and redirects execution to the handler with
    /// the signal number in `R1`. Returns the target tid and the outcome
    /// carrying the delivery's half context switch.
    ///
    /// # Panics
    ///
    /// Panics if no signal is deliverable — check [`Kernel::signal_ready`]
    /// first.
    pub fn deliver_signal(&mut self, machine: &mut Machine, core: CoreId) -> (ThreadId, SyscallOutcome) {
        let tid = self.core_thread[core.index()].expect("signal to an idle core");
        let thread = &mut self.threads[tid.index()];
        assert!(thread.signal_deliverable(), "deliver_signal without a deliverable signal");
        thread.pending_signals -= 1;
        let handler = thread.signal_handler.expect("deliverable implies handler");
        let current = machine
            .core_mut(core)
            .swap_context(None)
            .expect("running thread has a context");
        let mut frame = current.clone();
        thread.signal_saved = Some(current);
        frame.set_pc(handler);
        frame.set_reg(Reg::R1, 1); // signal number
        machine.core_mut(core).swap_context(Some(frame));
        (tid, SyscallOutcome { kernel_cycles: self.cfg.context_switch_cycles / 2, ..SyscallOutcome::default() })
    }
}

fn align_up(v: u32, align: u32) -> u32 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_cpu::CpuConfig;
    use qr_isa::Asm;

    fn machine(asm: Asm, cores: usize) -> Machine {
        Machine::new(asm.finish().unwrap(), CpuConfig { num_cores: cores, ..CpuConfig::default() })
            .unwrap()
    }

    #[test]
    fn boot_creates_main_thread_with_stack() {
        let mut a = Asm::new();
        a.halt();
        let mut m = machine(a, 2);
        let mut k = Kernel::new(OsConfig::default(), &mut m).unwrap();
        let events = k.place_runnable(&mut m);
        assert_eq!(events, vec![SchedEvent::ScheduledOn { core: CoreId(0), tid: ThreadId(0), lift: 0 }]);
        assert_eq!(k.live_threads(), 1);
        assert_eq!(m.read_reg(CoreId(0), Reg::SP), STACK_TOP);
        assert!(m.mem().memory().is_mapped(VirtAddr(STACK_TOP - 4), 4));
        assert!(!m.mem().memory().is_mapped(VirtAddr(STACK_TOP), 4), "top is exclusive");
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }
}
