//! The recording session: machine + kernel + recorder, orchestrated.
//!
//! # Event-ordering protocol (the soundness core)
//!
//! The replayer executes chunks in global-timestamp order and re-derives
//! store-buffer drain points from each thread's own instruction stream.
//! For that to reproduce the recorded execution, the session maintains
//! one invariant: **every cross-thread dependency's source chunk (or
//! syscall record) receives its timestamp before the dependent access's
//! chunk does.** Concretely:
//!
//! 1. An instruction's retirement is counted into its chunk *before* its
//!    memory events are processed, so signatures always describe a
//!    nonempty chunk.
//! 2. A remote transaction that hits a core's signature terminates that
//!    core's chunk *at detection time* — before any core steps again —
//!    so the victim's timestamp precedes the accessor's (which
//!    terminates later).
//! 3. Conflict-victim terminations do **not** drain the victim's store
//!    buffer (pending stores drain later, attributed to the chunk open
//!    at drain time — the visibility-time attribution that makes TSO
//!    replayable and avoids ordering cycles). Self-initiated boundary
//!    terminations (syscall, trap, context switch, thread end) always
//!    drain; hardware chunk closings (IC overflow, signature
//!    saturation) drain only in `DrainAtChunk` mode, and the reason code
//!    in the packet tells the replayer which rule applied.
//! 4. Syscall records are stamped *after* the kernel's memory effects
//!    (whose coherence transactions have already terminated any
//!    conflicting chunks), so `ts(victim) < ts(record) < ts(any chunk
//!    that observes the effects)`.

use crate::input_log::{InputEvent, InputLog};
use crate::overhead::OverheadBreakdown;
use crate::recording::{Recording, RecordingConfig, RecordingMeta, RecordingMode};
use crate::sphere::ReplaySphere;
use qr_common::{CoreId, LineAddr, QrError, Result};
use qr_cpu::{Machine, StepOutcome};
use qr_isa::Program;
use qr_mem::{BusKind, MemEvent};
use qr_os::{Kernel, SchedEvent, SyscallOutcome};
use quickrec_core::{ChunkFootprint, FootprintLog, RecorderBank, TerminationReason};
use std::collections::BTreeSet;

/// An in-progress recording of one program execution.
#[derive(Debug)]
pub struct RecordingSession {
    cfg: RecordingConfig,
    machine: Machine,
    kernel: Kernel,
    bank: RecorderBank,
    sphere: ReplaySphere,
    chunks: quickrec_core::ChunkLog,
    inputs: InputLog,
    footprints: FootprintLog,
    /// Per-core (read, write) line sets of the chunk currently open on
    /// that core, flushed into `footprints` when the chunk terminates.
    fp_sets: Vec<(BTreeSet<LineAddr>, BTreeSet<LineAddr>)>,
    overhead: OverheadBreakdown,
    instructions: u64,
}

/// Records `program` under `cfg`, running it to completion.
///
/// # Errors
///
/// Returns configuration errors, [`QrError::BudgetExceeded`] on runaway
/// programs, or [`QrError::Execution`] on kernel-level deadlock.
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
        Ok(RecordingSession {
            machine,
            kernel,
            bank,
            sphere: ReplaySphere::new(0),
            chunks: quickrec_core::ChunkLog::new(),
            inputs: InputLog::new(),
            footprints: FootprintLog::new(),
            fp_sets: vec![Default::default(); cfg.cpu.num_cores],
            overhead: OverheadBreakdown::default(),
            instructions: 0,
            cfg,
        })
    }

    fn full_stack(&self) -> bool {
        self.cfg.mode == RecordingMode::Full
    }

    /// Runs the program to completion and returns the recording.
    ///
    /// # Errors
    ///
    /// See [`record`].
    pub fn run(mut self) -> Result<Recording> {
        let sched = self.kernel.place_runnable(&mut self.machine);
        self.apply_sched(&sched);
        let budget = self.kernel.config().max_instructions;
        while !self.kernel.all_done() {
            let Some(core) = self.machine.least_advanced_busy_core() else {
                let sched = self.kernel.place_runnable(&mut self.machine);
                self.apply_sched(&sched);
                if self.machine.least_advanced_busy_core().is_none() {
                    return Err(QrError::Execution {
                        detail: format!(
                            "deadlock: {} threads blocked forever",
                            self.kernel.live_threads()
                        ),
                    });
                }
                continue;
            };
            let step = self.machine.step(core);
            let mut overflow = false;
            if step.instruction_retired() {
                self.instructions += 1;
                if self.instructions > budget {
                    return Err(QrError::BudgetExceeded { executed: self.instructions });
                }
                // Invariant 1: count retirement before processing events.
                overflow = self.bank.unit_mut(core).note_retired();
            }
            // Processing re-enters the machine (terminate drains store
            // buffers), so borrow the step's events by moving the buffer
            // out and back rather than copying them.
            let events = self.machine.take_events();
            self.note_footprint(&events);
            self.process_mem_events(&events)?;
            self.machine.restore_events(events);
            // An overflow that coincides with a syscall or halt yields to
            // that boundary's own termination (reason Syscall/SphereEnd),
            // so the packet's reason always tells the replayer what the
            // chunk's final instruction did.
            if overflow
                && matches!(step.outcome, StepOutcome::Retired | StepOutcome::Nondet { .. })
            {
                self.terminate(core, TerminationReason::IcOverflow)?;
            }
            self.bank.advance(core, step.cycles);
            match step.outcome {
                StepOutcome::Retired => {
                    if self.kernel.quantum_expired(&self.machine, core) {
                        self.terminate(core, TerminationReason::ContextSwitch)?;
                        let out = self.kernel.preempt(&mut self.machine, core);
                        self.apply_outcome(core, out)?;
                    }
                    if self.kernel.signal_ready(core) {
                        self.terminate(core, TerminationReason::Trap)?;
                        let tid = self.kernel.deliver_signal(&mut self.machine, core);
                        if self.full_stack() {
                            let cost = self.cfg.overhead.signal_intercept_cycles;
                            self.overhead.signal_cycles += cost;
                            self.machine.core_mut(core).add_cycles(cost);
                        }
                        let ts = self.machine.mem_mut().tick_clock();
                        self.inputs.push_event(InputEvent::Signal { ts, tid });
                    }
                }
                StepOutcome::Syscall => {
                    let drain = self.machine.drain_store_buffer(core)?;
                    self.note_footprint(&drain.events);
                    self.process_mem_events(&drain.events)?;
                    self.terminate(core, TerminationReason::Syscall)?;
                    if self.full_stack() {
                        let cost = self.cfg.overhead.syscall_intercept_cycles;
                        self.overhead.syscall_cycles += cost;
                        self.machine.core_mut(core).add_cycles(cost);
                    }
                    let out = self.kernel.handle_syscall(&mut self.machine, core)?;
                    self.apply_outcome(core, out)?;
                    let sched = self.kernel.place_runnable(&mut self.machine);
                    self.apply_sched(&sched);
                }
                StepOutcome::Nondet { kind, rd } => {
                    let tid = self.kernel.thread_on(core).expect("nondet from a running thread");
                    let value = self.kernel.nondet_value(&self.machine, kind);
                    self.machine.write_reg(core, rd, value);
                    self.inputs.push_nondet(tid, kind, value);
                }
                StepOutcome::Halt => {
                    let drain = self.machine.drain_store_buffer(core)?;
                    self.note_footprint(&drain.events);
                    self.process_mem_events(&drain.events)?;
                    self.terminate(core, TerminationReason::SphereEnd)?;
                    let out = self.kernel.handle_halt(&mut self.machine, core);
                    self.apply_outcome(core, out)?;
                }
                StepOutcome::Fault(err) => {
                    let drain = self.machine.drain_store_buffer(core)?;
                    self.note_footprint(&drain.events);
                    self.process_mem_events(&drain.events)?;
                    self.terminate(core, TerminationReason::SphereEnd)?;
                    let out = self.kernel.handle_fault(&mut self.machine, core, &err);
                    self.apply_outcome(core, out)?;
                }
                StepOutcome::Idle => {}
            }
            self.service_cmem_interrupt(core);
        }
        self.finish()
    }

    fn finish(mut self) -> Result<Recording> {
        self.bank.flush_all();
        let (packets, _) = self.bank.drain_cmem();
        self.chunks.extend(packets);
        self.sphere.close();
        let cycles = (0..self.machine.num_cores())
            .map(|i| self.machine.core(CoreId(i as u8)).cycles())
            .max()
            .unwrap_or(0);
        self.overhead.hw_stall_cycles = (0..self.machine.num_cores())
            .map(|i| self.bank.stall_cycles(CoreId(i as u8)))
            .sum();
        let mut recording = Recording {
            meta: RecordingMeta {
                program_fingerprint: self.machine.program().fingerprint(),
                tso_mode: self.cfg.cpu.mem.tso_mode,
                cpu: self.cfg.cpu.clone(),
                os: self.cfg.os.clone(),
            },
            cycles,
            instructions: self.instructions,
            console: self.kernel.console().to_vec(),
            exit_code: self.kernel.exit_code(),
            fingerprint: qr_os::native::state_fingerprint(&self.machine, &self.kernel),
            recorder_stats: self.bank.stats().clone(),
            overhead: self.overhead,
            chunks: self.chunks,
            inputs: self.inputs,
            footprints: Some(self.footprints),
            order: None,
        };
        recording.check_consistency()?;
        if self.cfg.order == quickrec_core::OrderMode::PartialOrder {
            let (log, _) = recording.derive_order()?;
            recording.order = Some(log);
        }
        Ok(recording)
    }

    /// Invariant 2: conflicts terminate victims at detection time.
    fn process_mem_events(&mut self, events: &[MemEvent]) -> Result<()> {
        for event in events {
            match *event {
                MemEvent::LocalRead { core, line, .. } => {
                    if self.bank.unit(core).is_recording()
                        && self.bank.unit_mut(core).note_local_read(line)
                        && self.bank.unit(core).chunk_icount() > 0
                    {
                        self.terminate(core, TerminationReason::SigSaturation)?;
                    }
                }
                MemEvent::LocalWrite { core, line, .. } => {
                    if self.bank.unit(core).is_recording()
                        && self.bank.unit_mut(core).note_local_write(line)
                        && self.bank.unit(core).chunk_icount() > 0
                    {
                        self.terminate(core, TerminationReason::SigSaturation)?;
                    }
                }
                MemEvent::BusTxn { from, line, kind } => {
                    if kind.is_read() || kind.is_write() {
                        let victims = self.bank.conflicting_cores(from, line, kind.is_write());
                        for (victim, reason) in victims {
                            self.terminate(victim, reason)?;
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
    fn terminate(&mut self, core: CoreId, reason: TerminationReason) -> Result<()> {
        if !self.bank.unit(core).is_recording() || self.bank.unit(core).chunk_icount() == 0 {
            return Ok(());
        }
        if reason.drains_store_buffer(self.cfg.cpu.mem.tso_mode) {
            let drain = self.machine.drain_store_buffer(core)?;
            self.note_footprint(&drain.events);
            self.process_mem_events(&drain.events)?;
        }
        let rsw = self.machine.mem().pending_stores(core).min(u8::MAX as usize) as u8;
        let ts = self.machine.mem_mut().tick_clock();
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
            self.machine.core_mut(core).add_cycles(stall);
        }
        Ok(())
    }

    /// Attributes a step's local memory events to the footprint of the
    /// chunk open on each event's core. Called on a whole event batch
    /// *before* [`RecordingSession::process_mem_events`], because
    /// processing may terminate the chunk mid-batch (signature
    /// saturation) while the remaining events still belong to the
    /// just-closed chunk — replay executes every access of a chunk's
    /// instructions, including post-saturation drains, inside that chunk.
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

    fn apply_sched(&mut self, events: &[SchedEvent]) {
        for event in events {
            match *event {
                SchedEvent::ScheduledOn { core, tid } => {
                    self.bank.unit_mut(core).start(tid);
                    self.sphere.add_thread(tid);
                    if self.full_stack() {
                        let cost = self.cfg.overhead.mrr_switch_cycles;
                        self.overhead.switch_cycles += cost;
                        self.machine.core_mut(core).add_cycles(cost);
                    }
                }
                SchedEvent::DescheduledFrom { core, tid } => {
                    debug_assert_eq!(
                        self.bank.unit(core).chunk_icount(),
                        0,
                        "deschedule with an open chunk on {core}"
                    );
                    let owner = self.bank.unit_mut(core).stop();
                    debug_assert_eq!(owner, Some(tid));
                    if self.full_stack() {
                        let cost = self.cfg.overhead.mrr_switch_cycles;
                        self.overhead.switch_cycles += cost;
                        self.machine.core_mut(core).add_cycles(cost);
                    }
                }
            }
        }
    }

    /// Invariant 4: kernel memory effects, then scheduling, then stamped
    /// records.
    fn apply_outcome(&mut self, core: CoreId, out: SyscallOutcome) -> Result<()> {
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
        self.process_mem_events(&out.mem_events)?;
        self.apply_sched(&out.sched);
        for record in out.records {
            if self.full_stack() {
                let bytes: usize =
                    16 + record.writes.iter().map(|(_, data)| data.len()).sum::<usize>();
                let cost = self.cfg.overhead.input_copy_cycles_per_byte * bytes as u64;
                self.overhead.copy_cycles += cost;
                self.machine.core_mut(core).add_cycles(cost);
            }
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
            let ts = self.machine.mem_mut().tick_clock();
            self.footprints.push(ChunkFootprint::new(ts, kernel_reads.clone(), writes));
            self.inputs.push_event(InputEvent::Syscall { ts, record });
        }
        Ok(())
    }

    fn service_cmem_interrupt(&mut self, core: CoreId) {
        if !self.bank.cmem_interrupt_pending() {
            return;
        }
        let (packets, bytes) = self.bank.drain_cmem();
        self.chunks.extend(packets);
        if self.full_stack() {
            let cost = self.cfg.overhead.drain_base_cycles
                + self.cfg.overhead.drain_cycles_per_byte * bytes as u64;
            self.overhead.drain_cycles += cost;
            self.machine.core_mut(core).add_cycles(cost);
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
}
