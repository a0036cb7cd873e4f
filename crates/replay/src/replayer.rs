//! The chunk-ordered replayer.

use crate::exec::{self, Effect, ReplayThread};
use crate::outcome::ReplayOutcome;
use crate::races::{RaceDetector, RaceReport};
use qr_capo::{Recording, TimelineEntry, TimelineEvent};
use qr_common::{CoreId, Cycle, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, CpuContext, Machine, NondetKind};
use qr_isa::Program;
use qr_mem::PagedMemory;
use quickrec_core::TerminationReason;
use std::collections::VecDeque;
use std::sync::Arc;

/// Replays `recording` of `program` and verifies the outcome matches.
///
/// # Errors
///
/// Returns [`QrError::ReplayDivergence`] on any mismatch, or the
/// underlying error for malformed logs.
pub fn replay_and_verify(program: &Program, recording: &Recording) -> Result<ReplayOutcome> {
    let outcome = replay(program, recording)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` of `program` without verification.
///
/// # Errors
///
/// See [`replay_and_verify`].
pub fn replay(program: &Program, recording: &Recording) -> Result<ReplayOutcome> {
    Replayer::new(program, recording)?.run()
}

/// Replays `recording` with the dynamic race detector attached,
/// returning both the (verified) outcome and the race report.
///
/// Because replay is deterministic, the report is stable: the same
/// recording always yields the same races.
///
/// # Errors
///
/// See [`replay_and_verify`].
pub fn replay_with_race_detection(
    program: &Program,
    recording: &Recording,
) -> Result<(ReplayOutcome, RaceReport)> {
    let mut replayer = Replayer::new(program, recording)?;
    replayer.enable_race_detection();
    let (outcome, report) = replayer.run_with_report()?;
    outcome.verify_against(recording)?;
    Ok((outcome, report))
}

/// One replay in progress.
#[derive(Debug)]
pub struct Replayer<'a> {
    recording: &'a Recording,
    state: ReplayState,
    /// The merged timeline. Shared, so a query engine merges it once and
    /// hands it to every seek.
    timeline: Arc<[TimelineEntry<'a>]>,
    detector: Option<RaceDetector>,
}

/// Everything a replay has accumulated by some timeline position: what
/// a checkpoint snapshots and a resume restores.
#[derive(Debug, Clone)]
struct ReplayState {
    machine: Machine,
    threads: Vec<ReplayThread>,
    console: Vec<u8>,
    instructions: u64,
    chunks_replayed: usize,
    inputs_injected: usize,
    timeline_pos: usize,
}

/// First byte of a serialized checkpoint record: what its memory
/// overlay is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// The image [`fresh_machine`] builds — what a restore starts from —
    /// so the record stands alone.
    Keyframe = 0,
    /// The memory of the record before it.
    Delta = 1,
}

impl RecordKind {
    /// Reads a record's kind byte and refuses any kind but `self`: the
    /// reader of a record knows from the record's place in its index
    /// which base the memory it is about to overlay holds.
    pub(crate) fn expect(self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        match r.u8()? {
            byte if byte == self as u8 => Ok(()),
            byte => Err(r.corrupt_at(0, format!("record kind byte {byte}, expected {} ({self:?})", self as u8))),
        }
    }
}

impl ReplayState {
    /// Serializes one checkpoint record: the kind byte, guest memory as
    /// an overlay on `base`, then all other state in full (memory
    /// hierarchy, cores, per-thread replay state, console, counters).
    /// The bytes are a deterministic function of the two states.
    fn to_record(&self, kind: RecordKind, base: &PagedMemory, program_fingerprint: u64) -> Vec<u8> {
        use qr_common::varint::write_u64;
        let mut out = vec![kind as u8];
        self.machine.save_state(base, &mut out);
        write_u64(&mut out, self.threads.len() as u64);
        for t in &self.threads {
            out.push(t.created as u8);
            match t.exit_code {
                Some(code) => {
                    out.push(1);
                    out.extend_from_slice(&code.to_le_bytes());
                }
                None => out.push(0),
            }
            match t.handler {
                Some(addr) => {
                    out.push(1);
                    out.extend_from_slice(&addr.0.to_le_bytes());
                }
                None => out.push(0),
            }
            match &t.signal_saved {
                Some(ctx) => {
                    out.push(1);
                    ctx.save_state(&mut out);
                }
                None => out.push(0),
            }
            write_u64(&mut out, t.nondet.len() as u64);
            for &(kind, value) in &t.nondet {
                out.push(match kind {
                    NondetKind::Rdtsc => 0,
                    NondetKind::Rdrand => 1,
                });
                out.extend_from_slice(&value.to_le_bytes());
            }
            match t.last_reason {
                Some(reason) => {
                    out.push(1);
                    out.push(reason.code());
                }
                None => out.push(0),
            }
        }
        write_u64(&mut out, self.console.len() as u64);
        out.extend_from_slice(&self.console);
        write_u64(&mut out, self.instructions);
        write_u64(&mut out, self.chunks_replayed as u64);
        write_u64(&mut out, self.inputs_injected as u64);
        write_u64(&mut out, self.timeline_pos as u64);
        out.extend_from_slice(&program_fingerprint.to_le_bytes());
        out
    }

    /// Inverse of [`ReplayState::to_record`]: overwrites `machine`, whose
    /// memory must hold the record's base, with the serialized state, so
    /// a resumed replay is bit-for-bit identical to one resumed from the
    /// in-memory checkpoint. Returns the state and the program
    /// fingerprint the record was written under.
    fn from_record(mut machine: Machine, kind: RecordKind, record: &[u8]) -> Result<(ReplayState, u64)> {
        let mut r = qr_common::cursor::ByteReader::new(record, "checkpoint snapshot");
        kind.expect(&mut r)?;
        machine.restore_state(&mut r)?;
        let num_threads = r.count(250)?;
        let mut threads = Vec::with_capacity(num_threads);
        for _ in 0..num_threads {
            let created = r.u8()? != 0;
            let exit_code = match r.u8()? {
                0 => None,
                _ => Some(r.u32()?),
            };
            let handler = match r.u8()? {
                0 => None,
                _ => Some(VirtAddr(r.u32()?)),
            };
            let signal_saved = match r.u8()? {
                0 => None,
                _ => Some(CpuContext::load_state(&mut r)?),
            };
            // kind byte + u32 value per entry.
            let nondet_len = r.list_count(1 << 24, 5)?;
            let mut nondet = VecDeque::with_capacity(nondet_len);
            for _ in 0..nondet_len {
                let kind = match r.u8()? {
                    0 => NondetKind::Rdtsc,
                    1 => NondetKind::Rdrand,
                    code => return Err(r.corrupt(format!("unknown nondet kind {code}"))),
                };
                nondet.push_back((kind, r.u32()?));
            }
            let last_reason = match r.u8()? {
                0 => None,
                _ => {
                    let code = r.u8()?;
                    Some(TerminationReason::from_code(code).ok_or_else(|| {
                        r.corrupt(format!("unknown termination reason {code}"))
                    })?)
                }
            };
            threads.push(ReplayThread {
                created,
                exit_code,
                handler,
                signal_saved,
                nondet,
                last_reason,
            });
        }
        let console_len = r.count(1 << 30)?;
        let console = r.bytes(console_len)?.to_vec();
        let instructions = r.varint()?;
        let chunks_replayed = r.varint()? as usize;
        let inputs_injected = r.varint()? as usize;
        let timeline_pos = r.varint()? as usize;
        let program_fingerprint = r.u64()?;
        r.finish()?;
        let state = ReplayState {
            machine,
            threads,
            console,
            instructions,
            chunks_replayed,
            inputs_injected,
            timeline_pos,
        };
        Ok((state, program_fingerprint))
    }
}

/// A resumable snapshot of an in-progress replay.
///
/// Checkpoints bound replay latency: instead of replaying a long
/// recording from the start to inspect a late event, resume from the
/// nearest checkpoint (the paper discusses periodic checkpointing as the
/// way to make replay-based debugging interactive).
///
/// A checkpoint is bound to the (program, recording) pair it came from;
/// [`Replayer::resume`] verifies the binding.
#[derive(Debug, Clone)]
pub struct ReplayCheckpoint {
    state: ReplayState,
    program_fingerprint: u64,
}

impl ReplayCheckpoint {
    /// Position in the merged timeline (events already replayed).
    pub fn position(&self) -> usize {
        self.state.timeline_pos
    }
}

/// The CPU configuration a replay of `recording` runs under: one virtual
/// core per recorded thread, the recorded drain interval and memory
/// hierarchy.
///
/// # Errors
///
/// Returns [`QrError::Unsupported`] for recordings with more than 250
/// threads.
pub(crate) fn replay_cpu_config(recording: &Recording) -> Result<CpuConfig> {
    let max_tid = recording
        .chunks
        .packets()
        .iter()
        .map(|p| p.tid.0)
        .chain(recording.inputs.events().iter().map(|e| e.tid().0))
        .max()
        .unwrap_or(0);
    let num_threads = max_tid as usize + 1;
    if num_threads > 250 {
        return Err(QrError::Unsupported(format!(
            "replay supports at most 250 threads, recording has {num_threads}"
        )));
    }
    Ok(CpuConfig {
        num_cores: num_threads,
        drain_interval: recording.meta.cpu.drain_interval,
        mem: recording.meta.cpu.mem.clone(),
    })
}

/// The machine every replay of `recording` starts from and every
/// checkpoint restore is applied onto: the program image loaded under
/// [`replay_cpu_config`]. Its memory is the base keyframes are encoded
/// against.
pub(crate) fn fresh_machine(program: &Program, recording: &Recording) -> Result<Machine> {
    Machine::new(program.clone(), replay_cpu_config(recording)?)
}

impl<'a> Replayer<'a> {
    /// Prepares a replay: builds a machine with one virtual core per
    /// recorded thread (each thread keeps its own store buffer, which is
    /// what makes TSO reproduction exact) and creates the main thread.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if the program does not
    /// match the recording, or [`QrError::Unsupported`] for recordings
    /// with more than 250 threads.
    pub fn new(program: &Program, recording: &'a Recording) -> Result<Replayer<'a>> {
        exec::check_program(program, recording)?;
        Replayer::start(recording, recording.timeline()?.into(), fresh_machine(program, recording)?)
    }

    /// [`Replayer::new`] for a caller that already matched the program
    /// to the recording, merged its timeline and built (a copy of) its
    /// [`fresh_machine`].
    pub(crate) fn start(
        recording: &'a Recording,
        timeline: Arc<[TimelineEntry<'a>]>,
        machine: Machine,
    ) -> Result<Replayer<'a>> {
        let threads = (0..machine.num_cores())
            .map(|i| ReplayThread::new(recording, ThreadId(i as u32)))
            .collect();
        let entry = machine.program().entry();
        let mut replayer = Replayer {
            recording,
            state: ReplayState {
                machine,
                threads,
                console: Vec::new(),
                instructions: 0,
                chunks_replayed: 0,
                inputs_injected: 0,
                timeline_pos: 0,
            },
            timeline,
            detector: None,
        };
        replayer.create_thread(ThreadId(0), entry, 0)?;
        Ok(replayer)
    }

    /// Attaches the dynamic race detector for this replay.
    pub fn enable_race_detection(&mut self) {
        self.detector = Some(RaceDetector::new(self.state.threads.len()));
    }

    /// Creates thread `tid`: context on its core, stack mapped.
    fn create_thread(&mut self, tid: ThreadId, entry: VirtAddr, arg: u32) -> Result<()> {
        let slot = self
            .state
            .threads
            .get_mut(tid.index())
            .ok_or_else(|| QrError::ReplayDivergence(format!("spawn of unknown thread {tid}")))?;
        let (ctx, (base, len)) = slot.create(self.recording, tid, entry, arg)?;
        self.state.machine.mem_mut().map_region(base, len)?;
        self.state.machine.core_mut(CoreId(tid.0 as u8)).swap_context(Some(ctx));
        Ok(())
    }

    /// Runs the merged timeline to completion.
    ///
    /// # Errors
    ///
    /// See [`replay_and_verify`].
    pub fn run(self) -> Result<ReplayOutcome> {
        self.run_with_report().map(|(outcome, _)| outcome)
    }

    /// Runs the merged timeline to completion, returning the race report
    /// (empty unless [`Replayer::enable_race_detection`] was called).
    ///
    /// # Errors
    ///
    /// See [`replay_and_verify`].
    pub fn run_with_report(mut self) -> Result<(ReplayOutcome, RaceReport)> {
        crate::obs::run_started("serial");
        while self.step_timeline()? {}
        crate::obs::nodes_executed("serial", self.state.timeline_pos as u64);
        self.finish()
    }

    // ----- time-travel inspection ------------------------------------

    /// Replays exactly one timeline event (a whole chunk or one input
    /// injection). Returns `false` when the timeline is exhausted.
    ///
    /// Between steps the replayed state can be inspected with
    /// [`Replayer::inspect_memory`], [`Replayer::thread_registers`] and
    /// [`Replayer::console_so_far`] — deterministic time-travel
    /// debugging over a recorded execution.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] like a full run would.
    pub fn step_timeline(&mut self) -> Result<bool> {
        let Some(entry) = self.timeline.get(self.state.timeline_pos) else {
            return Ok(false);
        };
        let event = entry.event;
        self.state.timeline_pos += 1;
        self.process_event(&event)?;
        Ok(true)
    }

    /// Current position in the merged timeline (events replayed so far).
    pub fn position(&self) -> usize {
        self.state.timeline_pos
    }

    /// Total number of timeline events.
    pub fn timeline_len(&self) -> usize {
        self.timeline.len()
    }

    /// The global timestamp of the next event to replay, if any.
    pub fn next_timestamp(&self) -> Option<Cycle> {
        self.timeline.get(self.state.timeline_pos).map(|e| e.event.ts())
    }

    /// Reads replayed guest memory at the current position.
    ///
    /// # Errors
    ///
    /// Faults on unmapped ranges, like the guest would.
    pub fn inspect_memory(&self, addr: VirtAddr, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.memory().read_bytes(addr, &mut buf)?;
        Ok(buf)
    }

    /// The replayed guest memory at the current position.
    pub(crate) fn memory(&self) -> &PagedMemory {
        self.state.machine.mem().memory()
    }

    /// The registers of a live thread at the current position (`None`
    /// for exited or not-yet-created threads).
    pub fn thread_registers(&self, tid: ThreadId) -> Option<[u32; 16]> {
        let t = self.state.threads.get(tid.index())?;
        if !t.created || t.exit_code.is_some() {
            return None;
        }
        self.state.machine.core(CoreId(tid.0 as u8)).context().map(|c| *c.regs())
    }

    /// Console output produced up to the current position.
    pub fn console_so_far(&self) -> &[u8] {
        &self.state.console
    }

    /// Architectural fingerprint of the replay state at the current
    /// position, computed with the same digest the recorder used but
    /// *without* requiring every thread to have exited — the
    /// partial-progress view salvage replay reports.
    pub fn partial_fingerprint(&self) -> u64 {
        let exit_codes: Vec<Option<u32>> = self.state.threads.iter().map(|t| t.exit_code).collect();
        qr_os::native::fingerprint_of(&self.state.machine, &self.state.console, &exit_codes)
    }

    /// Instructions re-executed up to the current position.
    pub fn instructions_so_far(&self) -> u64 {
        self.state.instructions
    }

    /// Chunks replayed up to the current position.
    pub fn chunks_replayed_so_far(&self) -> usize {
        self.state.chunks_replayed
    }

    /// Input events injected up to the current position.
    pub fn inputs_injected_so_far(&self) -> usize {
        self.state.inputs_injected
    }

    /// Validates terminal state and produces the outcome.
    pub(crate) fn finish(mut self) -> Result<(ReplayOutcome, RaceReport)> {
        let state = self.state;
        let exit_codes = exec::final_exit_codes(state.threads.iter())?;
        let fingerprint = qr_os::native::fingerprint_of(&state.machine, &state.console, &exit_codes);
        let cycles = (0..state.machine.num_cores())
            .map(|i| state.machine.core(CoreId(i as u8)).cycles())
            .sum();
        let report = self.detector.take().map(RaceDetector::into_report).unwrap_or_default();
        Ok((
            ReplayOutcome {
                console: state.console,
                exit_code: exit_codes.first().copied().flatten().unwrap_or(0),
                fingerprint,
                cycles,
                instructions: state.instructions,
                chunks_replayed: state.chunks_replayed,
                inputs_injected: state.inputs_injected,
            },
            report,
        ))
    }

    /// Replays one event on its thread's core and applies its effect to
    /// this replay's one machine.
    fn process_event(&mut self, event: &TimelineEvent) -> Result<()> {
        let tid = event.tid();
        let state = &mut self.state;
        let effect = exec::exec_event(
            &mut state.machine,
            CoreId(tid.0 as u8),
            &mut state.threads[tid.index()],
            event,
            self.recording.meta.tso_mode,
            &mut state.instructions,
            self.detector.as_mut(),
        )?;
        match effect {
            Effect::None => {}
            Effect::Spawn { child, entry, arg } => self.create_thread(child, entry, arg)?,
            Effect::Map { base, len } => self.state.machine.mem_mut().map_region(base, len)?,
            Effect::Console(bytes) => self.state.console.extend_from_slice(&bytes),
        }
        match event {
            TimelineEvent::Chunk(_) => self.state.chunks_replayed += 1,
            TimelineEvent::Input(_) => self.state.inputs_injected += 1,
        }
        Ok(())
    }

    /// Runs to completion, taking a [`ReplayCheckpoint`] every
    /// `every_events` timeline events.
    ///
    /// # Errors
    ///
    /// Returns [`qr_common::QrError::Unsupported`] when the race detector
    /// is attached (its analysis state is not checkpointable), plus the
    /// usual replay errors.
    pub fn run_with_checkpoints(
        mut self,
        every_events: usize,
    ) -> Result<(ReplayOutcome, Vec<ReplayCheckpoint>)> {
        let mut checkpoints = Vec::new();
        self.run_checkpointing(every_events, |rp| {
            checkpoints.push(ReplayCheckpoint {
                state: rp.state.clone(),
                program_fingerprint: rp.recording.meta.program_fingerprint,
            })
        })?;
        let (outcome, _) = self.finish()?;
        Ok((outcome, checkpoints))
    }

    /// Steps the timeline to its end, calling `checkpoint` at every
    /// position that is a positive multiple of `every_events` — the
    /// schedule in-memory checkpoints and the persisted index share.
    pub(crate) fn run_checkpointing(
        &mut self,
        every_events: usize,
        mut checkpoint: impl FnMut(&Replayer<'a>),
    ) -> Result<()> {
        if self.detector.is_some() {
            return Err(QrError::Unsupported(
                "checkpointing cannot be combined with race detection".into(),
            ));
        }
        if every_events == 0 {
            return Err(QrError::InvalidConfig("checkpoint interval must be nonzero".into()));
        }
        while self.state.timeline_pos < self.timeline.len() {
            if self.state.timeline_pos > 0 && self.state.timeline_pos.is_multiple_of(every_events) {
                checkpoint(self);
            }
            self.step_timeline()?;
        }
        Ok(())
    }

    /// Serializes the current replay state as one checkpoint record
    /// whose memory overlay is relative to `base`, which `kind` names.
    pub(crate) fn checkpoint_record(&self, kind: RecordKind, base: &PagedMemory) -> Vec<u8> {
        self.state.to_record(kind, base, self.recording.meta.program_fingerprint)
    }

    /// Resumes a replay from a checkpoint taken on the same
    /// (program, recording) pair.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if the checkpoint does not
    /// belong to this program/recording.
    pub fn resume(
        program: &Program,
        recording: &'a Recording,
        checkpoint: ReplayCheckpoint,
    ) -> Result<Replayer<'a>> {
        if program.fingerprint() != recording.meta.program_fingerprint
            || checkpoint.program_fingerprint != recording.meta.program_fingerprint
        {
            return Err(QrError::ReplayDivergence(
                "checkpoint does not belong to this program/recording".into(),
            ));
        }
        Ok(Replayer {
            recording,
            state: checkpoint.state,
            timeline: recording.timeline()?.into(),
            detector: None,
        })
    }

    /// [`Replayer::resume`] from a serialized checkpoint record, for a
    /// caller that already matched the program to the recording and
    /// merged its timeline. `machine` must hold the memory the record's
    /// overlay is relative to, which `kind` names: a [`fresh_machine`]
    /// for a keyframe, with the overlays of the chain so far applied for
    /// a delta.
    pub(crate) fn restore(
        recording: &'a Recording,
        timeline: Arc<[TimelineEntry<'a>]>,
        machine: Machine,
        kind: RecordKind,
        record: &[u8],
    ) -> Result<Replayer<'a>> {
        let (state, program_fingerprint) = ReplayState::from_record(machine, kind, record)?;
        if program_fingerprint != recording.meta.program_fingerprint || state.timeline_pos > timeline.len() {
            return Err(QrError::ReplayDivergence(
                "checkpoint does not belong to this program/recording".into(),
            ));
        }
        Ok(Replayer { recording, state, timeline, detector: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{racy_program, sys};
    use qr_capo::{record, RecordingConfig};
    use qr_isa::{abi, Asm, Reg};
    use qr_mem::TsoMode;
    use quickrec_core::ChunkPacket;

    #[test]
    fn racy_recording_replays_exactly() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.exit_code, 80);
        assert_eq!(outcome.chunks_replayed, recording.chunks.len());
        assert!(outcome.inputs_injected >= recording.inputs.events().len());
    }

    #[test]
    fn hostile_nondet_count_is_corrupt_before_anything_is_reserved() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let fresh = fresh_machine(&program, &recording).unwrap();
        let timeline: Arc<[TimelineEntry<'_>]> = recording.timeline().unwrap().into();
        let restore = |kind, record: &[u8]| {
            Replayer::restore(&recording, timeline.clone(), fresh.clone(), kind, record)
        };
        // The first checkpoint of a run, as the keyframe an index holds.
        let keyframe = |rp: &Replayer<'_>| rp.checkpoint_record(RecordKind::Keyframe, fresh.mem().memory());
        let mut records = Vec::new();
        let mut run = Replayer::start(&recording, timeline.clone(), fresh.clone()).unwrap();
        run.run_checkpointing(4, |rp| records.push(keyframe(rp))).unwrap();
        let bytes = &records[0];
        let restored = restore(RecordKind::Keyframe, bytes).unwrap();
        assert_eq!(restored.position(), 4);
        assert_eq!(&keyframe(&restored), bytes, "a clean record round-trips");
        // Keep the kind byte and the machine image; follow them with one
        // thread record that claims 2^24 nondet entries and ends there.
        let mut r = qr_common::cursor::ByteReader::new(&bytes[1..], "snapshot");
        fresh.clone().restore_state(&mut r).unwrap();
        let mut hostile = bytes[..1 + r.pos()].to_vec();
        hostile.extend_from_slice(&[1, 1, 0, 0, 0]); // 1 thread: created, no exit/handler/signal
        qr_common::varint::write_u64(&mut hostile, 1 << 24);
        let err = restore(RecordKind::Keyframe, &hostile).unwrap_err();
        assert!(err.to_string().contains("implausible count 16777216"), "{err}");
        // Read as a delta the record is refused by kind: `fresh` is not
        // the base a delta's overlay is relative to.
        let err = restore(RecordKind::Delta, bytes).unwrap_err();
        assert!(err.to_string().contains("kind byte 0, expected 1 (Delta)"), "{err}");
    }

    #[test]
    fn four_core_recording_replays() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn single_core_preemptive_recording_replays() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(1);
        cfg.os.quantum_cycles = 2_000; // force many context switches
        let recording = record(program.clone(), cfg).unwrap();
        assert!(
            recording
                .recorder_stats
                .chunks_by_reason[TerminationReason::ContextSwitch.code() as usize]
                > 0,
            "short quantum must produce context-switch chunks"
        );
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn read_payloads_and_nondet_replay() {
        let mut a = Asm::new();
        a.data_space("buf", 16);
        sys(&mut a, abi::SYS_READ, |a| {
            a.movi_sym(Reg::R1, "buf");
            a.movi(Reg::R2, 64);
        });
        a.rdtsc(Reg::R4);
        a.rdrand(Reg::R5);
        a.movi_sym(Reg::R3, "buf");
        a.ld(Reg::R6, Reg::R3, 0);
        a.add(Reg::R6, Reg::R6, Reg::R4);
        a.add(Reg::R6, Reg::R6, Reg::R5);
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.exit_code, recording.exit_code);
    }

    #[test]
    fn console_output_is_reproduced() {
        let mut a = Asm::new();
        a.data_bytes("msg", b"quickrec replay\n");
        sys(&mut a, abi::SYS_WRITE, |a| {
            a.movi_sym(Reg::R1, "msg");
            a.movi(Reg::R2, 16);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(1)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.console, b"quickrec replay\n");
    }

    #[test]
    fn signals_replay_at_the_recorded_point() {
        let mut a = Asm::new();
        a.data_word("hits", &[0]);
        sys(&mut a, abi::SYS_SIGACTION, |a| {
            a.movi_sym(Reg::R1, "handler");
        });
        sys(&mut a, abi::SYS_GETTID, |_| {});
        a.mov(Reg::R7, Reg::R0);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "killer");
            a.mov(Reg::R2, Reg::R7);
        });
        a.mov(Reg::R6, Reg::R0);
        a.movi_sym(Reg::R3, "hits");
        a.label("wait");
        a.ld(Reg::R4, Reg::R3, 0);
        a.beqz(Reg::R4, "wait");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi_sym(Reg::R3, "hits");
            a.ld(Reg::R1, Reg::R3, 0);
        });
        a.label("handler");
        a.movi_sym(Reg::R3, "hits");
        a.ld(Reg::R4, Reg::R3, 0);
        a.addi(Reg::R4, Reg::R4, 1);
        a.st(Reg::R3, 0, Reg::R4);
        a.fence();
        a.movi_u(Reg::R0, abi::SYS_SIGRETURN);
        a.syscall();
        a.label("killer");
        a.movi_u(Reg::R0, abi::SYS_KILL);
        a.syscall();
        a.movi(Reg::R1, 0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert_eq!(recording.exit_code, 1);
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn rsw_mode_recordings_replay_too() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.cpu.mem.tso_mode = TsoMode::Rsw;
        cfg.cpu.drain_interval = 12; // more reordering pressure
        let recording = record(program.clone(), cfg).unwrap();
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn wrong_program_is_rejected() {
        let program = racy_program();
        let recording = record(program, RecordingConfig::with_cores(2)).unwrap();
        let mut other = Asm::new();
        other.halt();
        let other = other.finish().unwrap();
        match replay(&other, &recording) {
            Err(QrError::ReplayDivergence(msg)) => assert!(msg.contains("does not match")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_chunk_log_is_detected() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        // Corrupt one chunk's instruction count.
        let mut packets: Vec<ChunkPacket> = recording.chunks.packets().to_vec();
        let mid = packets.len() / 2;
        packets[mid].icount += 1;
        recording.chunks = packets.into_iter().collect();
        assert!(
            replay_and_verify(&program, &recording).is_err(),
            "a perturbed chunk schedule must not verify"
        );
    }

    #[test]
    fn replay_timing_metrics_are_populated() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        let outcome = replay(&program, &recording).unwrap();
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.instructions, recording.instructions);
        assert!(outcome.slowdown_vs(&recording) > 0.0);
        // The replay executes serially, so its execution-cycle total must
        // at least cover every recorded instruction.
        assert!(outcome.cycles >= recording.instructions);
    }
}
