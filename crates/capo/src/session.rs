//! The recording session: the kernel's run loop ([`qr_os::run`]), the
//! one native runs use, with the MRR hardware and Capo3 state attached
//! as its [`Monitor`].
//!
//! # Event-ordering protocol (the soundness core)
//!
//! The replayer executes chunks in global-timestamp order and re-derives
//! store-buffer drain points from each thread's own instruction stream.
//! For that to reproduce the recorded execution, the session maintains
//! one invariant: **every cross-thread dependency's source chunk (or
//! syscall record) receives its timestamp before the dependent access's
//! chunk does.** Concretely, with the hook that upholds each rule:
//!
//! 1. An instruction's retirement is counted into its chunk *before* its
//!    memory events are processed, so signatures always describe a
//!    nonempty chunk ([`Monitor::stepped`]).
//! 2. A remote transaction that hits a core's signature terminates that
//!    core's chunk *at detection time* — before any core steps again —
//!    so the victim's timestamp precedes the accessor's (which
//!    terminates later). Every hook that is handed memory events
//!    processes them before it returns ([`Monitor::stepped`],
//!    [`Monitor::boundary`], [`Monitor::kernel_outcome`]).
//! 3. Conflict-victim terminations do **not** drain the victim's store
//!    buffer (pending stores drain later, attributed to the chunk open
//!    at drain time — the visibility-time attribution that makes TSO
//!    replayable and avoids ordering cycles). Self-initiated boundary
//!    terminations (syscall, trap, context switch, thread end) always
//!    drain, in [`Monitor::boundary`], which the loop calls before the
//!    kernel acts; hardware chunk closings (IC overflow, signature
//!    saturation) drain only in `DrainAtChunk` mode, and the reason code
//!    in the packet tells the replayer which rule applied.
//! 4. Syscall records are stamped *after* the kernel's memory effects
//!    (whose coherence transactions have already terminated any
//!    conflicting chunks), so `ts(victim) < ts(record) < ts(any chunk
//!    that observes the effects)` ([`Monitor::kernel_outcome`]).

use crate::input_log::{InputEvent, InputLog};
use crate::overhead::OverheadBreakdown;
use crate::recording::{Recording, RecordingConfig, RecordingMeta, RecordingMode};
use qr_common::{CoreId, LineAddr, Result, ThreadId};
use qr_cpu::{Machine, NondetKind, StepOutcome, StepResult};
use qr_isa::Program;
use qr_mem::{Access, BusKind, MemEvent};
use qr_os::{Boundary, Kernel, Monitor, SchedEvent, SyscallOutcome};
use quickrec_core::{ChunkFootprint, FootprintLog, RecorderBank, TerminationReason};
use std::collections::BTreeSet;

/// An in-progress recording of one program execution.
#[derive(Debug)]
pub struct RecordingSession {
    machine: Machine,
    kernel: Kernel,
    recorder: Recorder,
}

/// The MRR hardware and Capo3 state of one replay sphere: the
/// session's [`Monitor`].
#[derive(Debug)]
struct Recorder {
    cfg: RecordingConfig,
    bank: RecorderBank,
    chunks: quickrec_core::ChunkLog,
    inputs: InputLog,
    footprints: FootprintLog,
    /// Per-core (read, write) line sets of the chunk currently open on
    /// that core, flushed into `footprints` when the chunk terminates.
    fp_sets: Vec<(BTreeSet<LineAddr>, BTreeSet<LineAddr>)>,
    overhead: OverheadBreakdown,
}

/// Records `program` under `cfg`, running it to completion.
///
/// # Errors
///
/// Returns configuration errors, [`qr_common::QrError::BudgetExceeded`]
/// on runaway programs, or [`qr_common::QrError::Execution`] on
/// kernel-level deadlock.
///
/// # Example
///
/// ```
/// use qr_capo::{record, RecordingConfig};
/// use qr_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.movi_u(Reg::R0, qr_isa::abi::SYS_EXIT);
/// a.movi(Reg::R1, 0);
/// a.syscall();
/// let recording = record(a.finish()?, RecordingConfig::with_cores(2))?;
/// assert!(recording.chunks.len() >= 1);
/// # Ok::<(), qr_common::QrError>(())
/// ```
pub fn record(program: Program, cfg: RecordingConfig) -> Result<Recording> {
    RecordingSession::new(program, cfg)?.run()
}

impl RecordingSession {
    /// Creates a session with the program loaded and the main thread
    /// created but not yet started.
    ///
    /// # Errors
    ///
    /// Returns configuration or loading errors.
    pub fn new(program: Program, cfg: RecordingConfig) -> Result<RecordingSession> {
        cfg.validate()?;
        let mut machine = Machine::new(program, cfg.cpu.clone())?;
        let kernel = Kernel::new(cfg.os.clone(), &mut machine)?;
        let bank = RecorderBank::new(cfg.mrr.clone(), cfg.cpu.num_cores)?;
        let recorder = Recorder {
            bank,
            chunks: quickrec_core::ChunkLog::new(),
            inputs: InputLog::new(),
            footprints: FootprintLog::new(),
            fp_sets: vec![Default::default(); cfg.cpu.num_cores],
            overhead: OverheadBreakdown::default(),
            cfg,
        };
        Ok(RecordingSession { machine, kernel, recorder })
    }

    /// Runs the program to completion and returns the recording.
    ///
    /// # Errors
    ///
    /// See [`record`].
    pub fn run(mut self) -> Result<Recording> {
        let instructions = qr_os::run(&mut self.machine, &mut self.kernel, &mut self.recorder)?;
        self.finish(instructions)
    }

    fn finish(self, instructions: u64) -> Result<Recording> {
        let RecordingSession { machine, kernel, recorder: mut rec } = self;
        rec.bank.flush_all();
        let (packets, _) = rec.bank.drain_cmem();
        rec.chunks.extend(packets);
        rec.overhead.hw_stall_cycles =
            (0..machine.num_cores()).map(|i| rec.bank.stall_cycles(CoreId(i as u8))).sum();
        let mut recording = Recording {
            meta: RecordingMeta {
                program_fingerprint: machine.program().fingerprint(),
                tso_mode: rec.cfg.cpu.mem.tso_mode,
                cpu: rec.cfg.cpu.clone(),
                os: rec.cfg.os.clone(),
            },
            cycles: machine.makespan(),
            instructions,
            console: kernel.console().to_vec(),
            exit_code: kernel.exit_code(),
            fingerprint: qr_os::native::state_fingerprint(&machine, &kernel),
            recorder_stats: rec.bank.stats().clone(),
            overhead: rec.overhead,
            chunks: rec.chunks,
            inputs: rec.inputs,
            footprints: Some(rec.footprints),
            order: None,
        };
        recording.check_consistency()?;
        if rec.cfg.order == quickrec_core::OrderMode::PartialOrder {
            let (log, _) = recording.derive_order()?;
            recording.order = Some(log);
        }
        Ok(recording)
    }
}

impl Monitor for Recorder {
    fn scheduled(&mut self, machine: &mut Machine, events: &[SchedEvent]) {
        for event in events {
            let core = match *event {
                SchedEvent::ScheduledOn { core, tid, .. } => {
                    self.bank.unit_mut(core).start(tid);
                    core
                }
                SchedEvent::DescheduledFrom { core, tid } => {
                    debug_assert_eq!(
                        self.bank.unit(core).chunk_icount(),
                        0,
                        "deschedule with an open chunk on {core}"
                    );
                    let owner = self.bank.unit_mut(core).stop();
                    debug_assert_eq!(owner, Some(tid));
                    core
                }
            };
            let cost = self.cfg.overhead.mrr_switch_cycles;
            self.charge(machine, core, |o| &mut o.switch_cycles, cost);
        }
    }

    /// Invariants 1 and 2: the retirement is counted, then the step's
    /// events are processed. Runs every step, so it is inlined into the
    /// loop like the rest of the per-step path.
    #[inline]
    fn stepped(&mut self, machine: &mut Machine, core: CoreId, step: &StepResult) -> Result<()> {
        let overflow = step.instruction_retired() && self.bank.unit_mut(core).note_retired();
        // Processing re-enters the machine (terminate drains store
        // buffers), so borrow the step's events by moving the buffer
        // out and back rather than copying them.
        let events = machine.take_events();
        self.note_footprint(&events);
        self.process_mem_events(machine, &events)?;
        machine.restore_events(events);
        // An overflow that coincides with a syscall or halt yields to
        // that boundary's own termination (reason Syscall/SphereEnd),
        // so the packet's reason always tells the replayer what the
        // chunk's final instruction did.
        if overflow && matches!(step.outcome, StepOutcome::Retired | StepOutcome::Nondet { .. }) {
            self.terminate(machine, core, TerminationReason::IcOverflow)?;
        }
        self.bank.advance(core, step.cycles);
        Ok(())
    }

    /// Invariant 3: a boundary closes the chunk before the kernel acts.
    fn boundary(&mut self, machine: &mut Machine, core: CoreId, b: Boundary, drain: Option<&Access>) -> Result<()> {
        if let Some(drain) = drain {
            self.note_footprint(&drain.events);
            self.process_mem_events(machine, &drain.events)?;
        }
        let reason = match b {
            Boundary::Preempt => TerminationReason::ContextSwitch,
            Boundary::Signal => TerminationReason::Trap,
            Boundary::Syscall => TerminationReason::Syscall,
            Boundary::Exit => TerminationReason::SphereEnd,
        };
        self.terminate(machine, core, reason)?;
        if b == Boundary::Syscall {
            let cost = self.cfg.overhead.syscall_intercept_cycles;
            self.charge(machine, core, |o| &mut o.syscall_cycles, cost);
        }
        Ok(())
    }

    /// Invariant 4: kernel memory effects, then scheduling, then stamped
    /// records.
    fn kernel_outcome(&mut self, machine: &mut Machine, core: CoreId, out: SyscallOutcome) -> Result<()> {
        // Kernel-side memory activity becomes the footprint of every
        // record this outcome stamps: replay re-reads console payloads
        // and re-applies `record.writes`, so the lines the kernel
        // touched coherently (BusRd = read, BusRdX/BusUpgr = written)
        // are replay-time reads/writes of the injecting chunk.
        let mut kernel_reads = Vec::new();
        let mut kernel_writes = Vec::new();
        for event in &out.mem_events {
            if let MemEvent::BusTxn { line, kind, .. } = *event {
                if kind.is_write() {
                    kernel_writes.push(line);
                } else if kind.is_read() {
                    kernel_reads.push(line);
                }
            }
        }
        self.process_mem_events(machine, &out.mem_events)?;
        self.scheduled(machine, &out.sched);
        for record in out.records {
            let bytes: usize = 16 + record.writes.iter().map(|(_, data)| data.len()).sum::<usize>();
            let cost = self.cfg.overhead.input_copy_cycles_per_byte * bytes as u64;
            self.charge(machine, core, |o| &mut o.copy_cycles, cost);
            let mut writes = kernel_writes.clone();
            for (addr, data) in &record.writes {
                let first = addr.line().0;
                let last = if data.is_empty() {
                    first
                } else {
                    addr.wrapping_add(data.len() as u32 - 1).line().0
                };
                writes.extend((first..=last).map(LineAddr));
            }
            let ts = machine.mem_mut().tick_clock();
            self.footprints.push(ChunkFootprint::new(ts, kernel_reads.clone(), writes));
            self.inputs.push_event(InputEvent::Syscall { ts, record });
        }
        Ok(())
    }

    fn signal_delivered(&mut self, machine: &mut Machine, core: CoreId, tid: ThreadId) {
        let cost = self.cfg.overhead.signal_intercept_cycles;
        self.charge(machine, core, |o| &mut o.signal_cycles, cost);
        let ts = machine.mem_mut().tick_clock();
        self.inputs.push_event(InputEvent::Signal { ts, tid });
    }

    fn nondet(&mut self, tid: ThreadId, kind: NondetKind, value: u32) {
        self.inputs.push_nondet(tid, kind, value);
    }

    /// The CMEM drain interrupt, serviced on the core that just stepped.
    #[inline]
    fn iteration_end(&mut self, machine: &mut Machine, core: CoreId) {
        if !self.bank.cmem_interrupt_pending() {
            return;
        }
        let (packets, bytes) = self.bank.drain_cmem();
        self.chunks.extend(packets);
        let cost = self.cfg.overhead.drain_base_cycles
            + self.cfg.overhead.drain_cycles_per_byte * bytes as u64;
        self.charge(machine, core, |o| &mut o.drain_cycles, cost);
    }
}

impl Recorder {
    /// Charges `cost` software cycles to `core` and books them in the
    /// overhead `bucket`; only the full stack has software costs.
    fn charge(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        bucket: fn(&mut OverheadBreakdown) -> &mut u64,
        cost: u64,
    ) {
        if self.cfg.mode == RecordingMode::Full {
            *bucket(&mut self.overhead) += cost;
            machine.core_mut(core).add_cycles(cost);
        }
    }

    /// Invariant 2: conflicts terminate victims at detection time.
    fn process_mem_events(&mut self, machine: &mut Machine, events: &[MemEvent]) -> Result<()> {
        for event in events {
            match *event {
                MemEvent::LocalRead { core, line, .. } => {
                    if self.bank.unit(core).is_recording()
                        && self.bank.unit_mut(core).note_local_read(line)
                        && self.bank.unit(core).chunk_icount() > 0
                    {
                        self.terminate(machine, core, TerminationReason::SigSaturation)?;
                    }
                }
                MemEvent::LocalWrite { core, line, .. } => {
                    if self.bank.unit(core).is_recording()
                        && self.bank.unit_mut(core).note_local_write(line)
                        && self.bank.unit(core).chunk_icount() > 0
                    {
                        self.terminate(machine, core, TerminationReason::SigSaturation)?;
                    }
                }
                MemEvent::BusTxn { from, line, kind } => {
                    if kind.is_read() || kind.is_write() {
                        let victims = self.bank.conflicting_cores(from, line, kind.is_write());
                        for (victim, reason) in victims {
                            self.terminate(machine, victim, reason)?;
                        }
                    }
                    debug_assert!(
                        kind != BusKind::Writeback || !kind.is_read(),
                        "writebacks are not snooped for conflicts"
                    );
                }
                MemEvent::Eviction { .. } => {}
            }
        }
        Ok(())
    }

    /// Invariant 3: boundary drains, then the timestamp.
    fn terminate(&mut self, machine: &mut Machine, core: CoreId, reason: TerminationReason) -> Result<()> {
        if !self.bank.unit(core).is_recording() || self.bank.unit(core).chunk_icount() == 0 {
            return Ok(());
        }
        if reason.drains_store_buffer(self.cfg.cpu.mem.tso_mode) {
            let drain = machine.drain_store_buffer(core)?;
            self.note_footprint(&drain.events);
            self.process_mem_events(machine, &drain.events)?;
        }
        let rsw = machine.mem().pending_stores(core).min(u8::MAX as usize) as u8;
        let ts = machine.mem_mut().tick_clock();
        let (packet, stall) = self.bank.terminate_chunk(core, reason, ts, rsw);
        if packet.is_some() {
            let (reads, writes) = std::mem::take(&mut self.fp_sets[core.index()]);
            self.footprints.push(ChunkFootprint::new(
                ts,
                reads.into_iter().collect(),
                writes.into_iter().collect(),
            ));
        }
        if stall > 0 {
            machine.core_mut(core).add_cycles(stall);
        }
        Ok(())
    }

    /// Attributes a step's local memory events to the footprint of the
    /// chunk open on each event's core. Called on a whole event batch
    /// *before* [`Recorder::process_mem_events`], because
    /// processing may terminate the chunk mid-batch (signature
    /// saturation) while the remaining events still belong to the
    /// just-closed chunk — replay executes every access of a chunk's
    /// instructions, including post-saturation drains, inside that chunk.
    #[inline]
    fn note_footprint(&mut self, events: &[MemEvent]) {
        for event in events {
            match *event {
                MemEvent::LocalRead { core, line, .. } => {
                    self.fp_sets[core.index()].0.insert(line);
                }
                MemEvent::LocalWrite { core, line, .. } => {
                    self.fp_sets[core.index()].1.insert(line);
                }
                MemEvent::BusTxn { .. } | MemEvent::Eviction { .. } => {}
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qr_isa::{abi, Asm, Reg};

    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    /// Two threads incrementing a shared counter under a spinlock built
    /// on cas + futex.
    pub(crate) fn racy_program() -> Program {
        let mut a = Asm::new();
        a.data_word("counter", &[0]);
        a.align_data_line();
        a.data_word("lock", &[0]);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "work");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        a.movi(Reg::R1, 0);
        a.call("work_body");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi_sym(Reg::R2, "counter");
            a.ld(Reg::R1, Reg::R2, 0);
        });
        // worker thread entry
        a.label("work");
        a.call("work_body");
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        // shared body: 50 locked increments
        a.label("work_body");
        a.movi(Reg::R8, 50);
        a.label("iter");
        // spin: cas(lock: 0 -> 1)
        a.movi_sym(Reg::R2, "lock");
        a.label("acquire");
        a.movi(Reg::R3, 0);
        a.movi(Reg::R4, 1);
        a.cas(Reg::R3, Reg::R2, Reg::R4);
        a.beqz(Reg::R3, "locked");
        a.pause();
        a.jmp("acquire");
        a.label("locked");
        a.movi_sym(Reg::R5, "counter");
        a.ld(Reg::R7, Reg::R5, 0);
        a.addi(Reg::R7, Reg::R7, 1);
        a.st(Reg::R5, 0, Reg::R7);
        // release
        a.movi(Reg::R3, 0);
        a.xchg(Reg::R3, Reg::R2);
        a.addi(Reg::R8, Reg::R8, -1);
        a.bnez(Reg::R8, "iter");
        a.ret();
        a.finish().unwrap()
    }

    #[test]
    fn recording_captures_a_racy_execution() {
        let recording = record(racy_program(), RecordingConfig::with_cores(2)).unwrap();
        assert_eq!(recording.exit_code, 100, "both threads' increments landed");
        assert!(recording.chunks.len() > 2, "multiple chunks recorded");
        assert!(
            recording.recorder_stats.conflict_chunks() > 0,
            "lock contention must produce conflict terminations: {:?}",
            recording.recorder_stats.chunks_by_reason
        );
        assert!(recording.inputs.events().len() >= 4, "spawn/join/exit syscalls logged");
        recording.check_consistency().unwrap();
    }

    #[test]
    fn recording_is_deterministic() {
        let a = record(racy_program(), RecordingConfig::with_cores(2)).unwrap();
        let b = record(racy_program(), RecordingConfig::with_cores(2)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn hardware_only_mode_charges_no_software_cycles() {
        let cfg = RecordingConfig {
            mode: RecordingMode::HardwareOnly,
            ..RecordingConfig::with_cores(2)
        };
        let recording = record(racy_program(), cfg).unwrap();
        assert_eq!(recording.overhead.software_total(), 0);
        assert!(!recording.chunks.is_empty(), "hardware still records");
    }

    #[test]
    fn full_stack_costs_more_than_hardware_only() {
        let full = record(racy_program(), RecordingConfig::with_cores(2)).unwrap();
        let hw = record(
            racy_program(),
            RecordingConfig { mode: RecordingMode::HardwareOnly, ..RecordingConfig::with_cores(2) },
        )
        .unwrap();
        assert!(full.overhead.software_total() > 0);
        assert!(full.cycles > hw.cycles, "software stack must slow recording down");
        assert_eq!(full.exit_code, hw.exit_code);
    }

    #[test]
    fn timestamps_are_unique_and_sorted_schedule_exists() {
        let recording = record(racy_program(), RecordingConfig::with_cores(4)).unwrap();
        let schedule = recording.chunks.replay_schedule().unwrap();
        assert_eq!(schedule.len(), recording.chunks.len());
    }

    #[test]
    fn chunk_icounts_sum_to_user_instructions() {
        // Every retired user instruction must be covered by exactly one
        // chunk: threads only leave a core after their chunk terminated.
        let recording = record(racy_program(), RecordingConfig::with_cores(2)).unwrap();
        assert_eq!(
            recording.chunks.total_instructions(),
            recording.instructions,
            "chunks must partition the instruction stream"
        );
    }

    #[test]
    fn nondet_values_are_logged() {
        let mut a = Asm::new();
        a.rdtsc(Reg::R4);
        a.rdrand(Reg::R5);
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let recording = record(a.finish().unwrap(), RecordingConfig::with_cores(1)).unwrap();
        assert_eq!(recording.inputs.nondet_count(), 2);
    }

    #[test]
    fn read_payloads_are_captured() {
        let mut a = Asm::new();
        a.data_space("buf", 8);
        sys(&mut a, abi::SYS_READ, |a| {
            a.movi_sym(Reg::R1, "buf");
            a.movi(Reg::R2, 32);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let recording = record(a.finish().unwrap(), RecordingConfig::with_cores(1)).unwrap();
        let read_event = recording
            .inputs
            .events()
            .iter()
            .find_map(|e| match e {
                InputEvent::Syscall { record, .. } if record.number == abi::SYS_READ => {
                    Some(record)
                }
                _ => None,
            })
            .expect("read syscall logged");
        assert_eq!(read_event.writes.len(), 1);
        assert_eq!(read_event.writes[0].1.len(), 32);
    }

    /// Main spawns two workers, so three threads share two cores, and
    /// every thread yields `YIELDS` times in a register-only loop: each
    /// yield finds a thread waiting and switches.
    fn yield_loop() -> Program {
        let mut a = Asm::new();
        for saved in [Reg::R6, Reg::R7] {
            sys(&mut a, abi::SYS_SPAWN, |a| {
                a.movi_sym(Reg::R1, "worker");
                a.movi(Reg::R2, 0);
            });
            a.mov(saved, Reg::R0);
        }
        a.call("yields");
        for saved in [Reg::R6, Reg::R7] {
            sys(&mut a, abi::SYS_JOIN, |a| {
                a.mov(Reg::R1, saved);
            });
        }
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        a.label("worker");
        a.call("yields");
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        a.label("yields");
        a.movi(Reg::R8, 20);
        a.label("again");
        sys(&mut a, abi::SYS_YIELD, |_| {});
        a.addi(Reg::R8, Reg::R8, -1);
        a.bnez(Reg::R8, "again");
        a.ret();
        a.finish().unwrap()
    }

    /// Passes every hook on to `inner` and books every cycle each core
    /// gains under one of three heads: its steps (`StepResult::cycles`),
    /// the ledger (each lift and `kernel_cycles` the kernel reported, and
    /// a signal delivery's half switch) and what `inner`'s hooks added to
    /// any core. It also measures each yield that switched threads: the
    /// cycles its core gained from the end of the syscall boundary hook to
    /// the start of the outcome hook (the kernel's work alone), the lift
    /// onto that core and the `kernel_cycles` the outcome reported.
    struct Audit<'m, M> {
        inner: &'m mut M,
        signal_cycles: u64,
        steps: Vec<u64>,
        ledger: Vec<u64>,
        hooks: Vec<u64>,
        clocks: Vec<u64>,
        at_boundary: u64,
        yields: Vec<(u64, u64, u64)>,
    }

    impl<'m, M: Monitor> Audit<'m, M> {
        fn new(inner: &'m mut M, cfg: &RecordingConfig) -> Self {
            let cores = vec![0; cfg.cpu.num_cores];
            Audit {
                inner,
                signal_cycles: cfg.os.context_switch_cycles / 2,
                steps: cores.clone(),
                ledger: cores.clone(),
                hooks: cores.clone(),
                clocks: cores,
                at_boundary: 0,
                yields: Vec::new(),
            }
        }

        /// Runs one of `inner`'s hooks, booking what it added to each core.
        fn hook<R>(&mut self, machine: &mut Machine, hook: impl FnOnce(&mut M, &mut Machine) -> R) -> R {
            for (i, clock) in self.clocks.iter_mut().enumerate() {
                *clock = machine.core(CoreId(i as u8)).cycles();
            }
            let result = hook(self.inner, machine);
            for (i, clock) in self.clocks.iter().enumerate() {
                self.hooks[i] += machine.core(CoreId(i as u8)).cycles() - clock;
            }
            result
        }

        /// Books the lifts in `sched`; returns the one onto `core`.
        fn book_lifts(&mut self, core: CoreId, sched: &[SchedEvent]) -> u64 {
            let mut onto_core = 0;
            for event in sched {
                if let SchedEvent::ScheduledOn { core: placed, lift, .. } = *event {
                    self.ledger[placed.index()] += lift;
                    if placed == core {
                        onto_core += lift;
                    }
                }
            }
            onto_core
        }

        /// Asserts every core's clock is exactly its booked cycles and
        /// returns what the hooks added over all cores.
        fn balance(&self, machine: &Machine, run: &str) -> u64 {
            for (i, ((steps, ledger), hooks)) in self.steps.iter().zip(&self.ledger).zip(&self.hooks).enumerate() {
                let cycles = machine.core(CoreId(i as u8)).cycles();
                let booked = steps + ledger + hooks;
                assert_eq!(cycles, booked, "{run}: core {i}: steps {steps} + ledger {ledger} + hooks {hooks}");
            }
            self.hooks.iter().sum()
        }
    }

    impl<M: Monitor> Monitor for Audit<'_, M> {
        fn scheduled(&mut self, machine: &mut Machine, events: &[SchedEvent]) {
            self.book_lifts(CoreId(0), events);
            self.hook(machine, |inner, machine| inner.scheduled(machine, events));
        }
        fn stepped(&mut self, machine: &mut Machine, core: CoreId, step: &StepResult) -> Result<()> {
            self.steps[core.index()] += step.cycles;
            self.hook(machine, |inner, machine| inner.stepped(machine, core, step))
        }
        fn boundary(&mut self, machine: &mut Machine, core: CoreId, b: Boundary, drain: Option<&Access>) -> Result<()> {
            self.hook(machine, |inner, machine| inner.boundary(machine, core, b, drain))?;
            self.at_boundary = machine.core(core).cycles();
            Ok(())
        }
        fn kernel_outcome(&mut self, machine: &mut Machine, core: CoreId, out: SyscallOutcome) -> Result<()> {
            let lift = self.book_lifts(core, &out.sched);
            self.ledger[core.index()] += out.kernel_cycles;
            let yielded = out.records.first().is_some_and(|r| r.number == abi::SYS_YIELD);
            let switched = out.sched.iter().any(|e| matches!(e, SchedEvent::DescheduledFrom { .. }));
            if yielded && switched {
                let gained = machine.core(core).cycles() - self.at_boundary;
                self.yields.push((gained, lift, out.kernel_cycles));
            }
            self.hook(machine, |inner, machine| inner.kernel_outcome(machine, core, out))
        }
        fn signal_delivered(&mut self, machine: &mut Machine, core: CoreId, tid: ThreadId) {
            self.ledger[core.index()] += self.signal_cycles;
            self.hook(machine, |inner, machine| inner.signal_delivered(machine, core, tid));
        }
        fn nondet(&mut self, tid: ThreadId, kind: NondetKind, value: u32) {
            self.inner.nondet(tid, kind, value);
        }
        fn iteration_end(&mut self, machine: &mut Machine, core: CoreId) {
            self.hook(machine, |inner, machine| inner.iteration_end(machine, core));
        }
    }

    /// A yield that switches threads charges its syscall and its switch
    /// once each, on top of the lift to the makespan it reported, also
    /// when its core trailed the makespan by more than that charge.
    #[test]
    fn an_oversubscribed_yield_charges_its_switch_once() {
        let cfg = RecordingConfig::with_cores(2);
        let once = cfg.os.syscall_base_cycles + cfg.os.context_switch_cycles;

        let mut machine = Machine::new(yield_loop(), cfg.cpu.clone()).unwrap();
        let mut kernel = Kernel::new(cfg.os.clone(), &mut machine).unwrap();
        let mut native_run = ();
        let mut native = Audit::new(&mut native_run, &cfg);
        qr_os::run(&mut machine, &mut kernel, &mut native).unwrap();
        let native = native.yields;

        let mut session = RecordingSession::new(yield_loop(), cfg.clone()).unwrap();
        let mut recorded = Audit::new(&mut session.recorder, &cfg);
        qr_os::run(&mut session.machine, &mut session.kernel, &mut recorded).unwrap();
        let recorded = recorded.yields;

        for (run, yields) in [("native", native), ("recorded", recorded)] {
            assert!(yields.len() >= 20, "{run}: only {} switching yields", yields.len());
            assert!(yields.iter().any(|&(_, lift, _)| lift > 0), "{run}: no switching core trailed the makespan");
            for (gained, lift, reported) in yields {
                assert_eq!((gained, reported), (lift + once, once), "{run}: charged and reported");
            }
        }
    }

    /// Over the suite, oversubscribed, every cycle a core gains is a
    /// step's, a ledger entry's or a monitor hook's; the hooks add
    /// exactly the overhead the recording reports, and nothing natively.
    #[test]
    fn every_core_cycle_is_a_step_a_ledger_entry_or_a_hook_charge() {
        let cfg = RecordingConfig::with_cores(2);
        for spec in qr_workloads::suite() {
            let program = (spec.build)(3, qr_workloads::Scale::Test).unwrap();

            let mut machine = Machine::new(program.clone(), cfg.cpu.clone()).unwrap();
            let mut kernel = Kernel::new(cfg.os.clone(), &mut machine).unwrap();
            let mut native_run = ();
            let mut native = Audit::new(&mut native_run, &cfg);
            qr_os::run(&mut machine, &mut kernel, &mut native).unwrap();
            assert_eq!(native.balance(&machine, spec.name), 0, "{}: a native hook charged", spec.name);

            let mut session = RecordingSession::new(program, cfg.clone()).unwrap();
            let mut audit = Audit::new(&mut session.recorder, &cfg);
            let instructions = qr_os::run(&mut session.machine, &mut session.kernel, &mut audit).unwrap();
            let hooks = audit.balance(&session.machine, spec.name);
            let overhead = session.finish(instructions).unwrap().overhead;
            assert_eq!(hooks, overhead.software_total() + overhead.hw_stall_cycles, "{}", spec.name);
        }
    }
}