//! The event executor: how one timeline event is replayed on one
//! thread's core.
//!
//! Serial replay runs every thread on its own core of one machine;
//! `--jobs N` and ordered replay give each thread a private single-core
//! lane machine. Both replay events through the functions here, over
//! `(machine, core, &mut ReplayThread)`. What an event does beyond its
//! own thread's core and memory — creating a thread, growing the heap,
//! emitting console bytes — is returned as an [`Effect`] for the caller
//! to apply to whatever holds its authoritative image.

use crate::races::RaceDetector;
use qr_capo::{InputEvent, Recording, TimelineEvent};
use qr_common::{CoreId, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::{CpuContext, Machine, NondetKind, StepOutcome};
use qr_isa::program::STACK_TOP;
use qr_isa::{abi, Program, Reg};
use qr_mem::{MemEvent, TsoMode};
use qr_os::kernel::EFAULT;
use qr_os::SyscallRecord;
use quickrec_core::{ChunkPacket, TerminationReason};
use std::collections::VecDeque;

fn diverged(msg: String) -> QrError {
    QrError::ReplayDivergence(msg)
}

/// Refuses a program other than the one `recording` was made from.
pub(crate) fn check_program(program: &Program, recording: &Recording) -> Result<()> {
    if program.fingerprint() != recording.meta.program_fingerprint {
        return Err(diverged("program image does not match the recording".into()));
    }
    Ok(())
}

/// Per-thread replay state, beside the thread's core.
#[derive(Debug, Clone)]
pub(crate) struct ReplayThread {
    pub(crate) created: bool,
    pub(crate) exit_code: Option<u32>,
    pub(crate) handler: Option<VirtAddr>,
    pub(crate) signal_saved: Option<CpuContext>,
    pub(crate) nondet: VecDeque<(NondetKind, u32)>,
    /// Reason of the thread's most recently replayed chunk, used to
    /// cross-check syscall records against the replayed register state.
    pub(crate) last_reason: Option<TerminationReason>,
}

impl ReplayThread {
    /// The not-yet-created thread `tid` of `recording`, holding its
    /// recorded nondeterministic values.
    pub(crate) fn new(recording: &Recording, tid: ThreadId) -> ReplayThread {
        ReplayThread {
            created: false,
            exit_code: None,
            handler: None,
            signal_saved: None,
            nondet: recording.inputs.nondet_for(tid).iter().copied().collect(),
            last_reason: None,
        }
    }

    /// Marks the thread created and builds its initial context. The
    /// caller installs the context on the thread's core and maps the
    /// returned stack region `(base, len)` in its memory image.
    pub(crate) fn create(
        &mut self,
        recording: &Recording,
        tid: ThreadId,
        entry: VirtAddr,
        arg: u32,
    ) -> Result<(CpuContext, (VirtAddr, u32))> {
        if self.created {
            return Err(diverged(format!("{tid} created twice")));
        }
        self.created = true;
        // Stack allocation is sequential in tid order, so the address is
        // a pure function of the tid.
        let os = &recording.meta.os;
        let top = STACK_TOP - tid.0 * (os.stack_bytes + os.stack_guard_bytes);
        let mut ctx = CpuContext::new(entry);
        ctx.set_reg(Reg::SP, top);
        ctx.set_reg(Reg::R1, arg);
        Ok((ctx, (VirtAddr(top - os.stack_bytes), os.stack_bytes)))
    }
}

/// An effect of an injected syscall that reaches beyond the calling
/// thread's core and memory.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Nothing beyond the thread itself.
    None,
    /// A successful `SYS_SPAWN`: create `child` at `entry` with `arg`.
    Spawn { child: ThreadId, entry: VirtAddr, arg: u32 },
    /// A successful `SYS_SBRK`: map `len` more heap bytes at `base`.
    Map { base: VirtAddr, len: u32 },
    /// A successful `SYS_WRITE`: these bytes reached the console.
    Console(Vec<u8>),
}

/// Replays `event` on `core` of `machine`, counting retired
/// instructions into `instructions` as they retire (a chunk that
/// diverges half-way has still replayed its first half) and feeding
/// `detector` when one is attached.
pub(crate) fn exec_event(
    machine: &mut Machine,
    core: CoreId,
    thread: &mut ReplayThread,
    event: &TimelineEvent,
    tso_mode: TsoMode,
    instructions: &mut u64,
    detector: Option<&mut RaceDetector>,
) -> Result<Effect> {
    match event {
        TimelineEvent::Chunk(packet) => {
            exec_chunk(machine, core, thread, packet, tso_mode, instructions, detector)?;
            Ok(Effect::None)
        }
        TimelineEvent::Input(InputEvent::Syscall { record, .. }) => {
            apply_syscall(machine, core, thread, record, detector)
        }
        TimelineEvent::Input(InputEvent::Signal { tid, .. }) => {
            deliver_signal(machine, core, thread, *tid, detector)?;
            Ok(Effect::None)
        }
    }
}

/// Instruction-exact chunk execution: `icount` steps with nondet
/// injection, then the recorder's boundary-drain rule and the RSW
/// cross-check.
fn exec_chunk(
    machine: &mut Machine,
    core: CoreId,
    thread: &mut ReplayThread,
    packet: &ChunkPacket,
    tso_mode: TsoMode,
    instructions: &mut u64,
    mut detector: Option<&mut RaceDetector>,
) -> Result<()> {
    let tid = packet.tid;
    if !thread.created {
        return Err(diverged(format!("chunk for never-created {tid}")));
    }
    if thread.exit_code.is_some() {
        return Err(diverged(format!("chunk for exited {tid}")));
    }
    for i in 0..packet.icount {
        let last = i + 1 == packet.icount;
        let step = machine.step(core);
        if step.instruction_retired() {
            *instructions += 1;
        }
        if let Some(detector) = detector.as_deref_mut() {
            for event in machine.events() {
                match *event {
                    MemEvent::LocalRead { addr, width, atomic, .. } => {
                        detector.on_read(tid, addr, width, atomic);
                    }
                    MemEvent::LocalWrite { addr, width, atomic, .. } => {
                        detector.on_write(tid, addr, width, atomic);
                    }
                    _ => {}
                }
            }
        }
        match step.outcome {
            StepOutcome::Retired => {}
            StepOutcome::Nondet { kind, rd } => {
                let (rec_kind, value) = thread
                    .nondet
                    .pop_front()
                    .ok_or_else(|| diverged(format!("{tid} ran out of nondet values")))?;
                if rec_kind != kind {
                    return Err(diverged(format!(
                        "{tid} nondet kind mismatch: replayed {kind:?}, recorded {rec_kind:?}"
                    )));
                }
                machine.write_reg(core, rd, value);
            }
            StepOutcome::Syscall => {
                if !(last && packet.reason == TerminationReason::Syscall) {
                    return Err(diverged(format!(
                        "{tid} trapped into a syscall mid-chunk (instruction {i} of {})",
                        packet.icount
                    )));
                }
            }
            StepOutcome::Halt => {
                if !(last && packet.reason == TerminationReason::SphereEnd) {
                    return Err(diverged(format!("{tid} halted mid-chunk")));
                }
            }
            StepOutcome::Fault(err) => {
                return Err(diverged(format!("{tid} faulted during replay: {err}")));
            }
            StepOutcome::Idle => {
                return Err(diverged(format!("{tid} has no context during its chunk")));
            }
        }
    }
    if packet.reason.drains_store_buffer(tso_mode) {
        crate::obs::store_buffer_drain();
        let access = machine.drain_store_buffer(core)?;
        if let Some(detector) = detector {
            for event in &access.events {
                if let MemEvent::LocalWrite { addr, width, atomic, .. } = *event {
                    detector.on_write(tid, addr, width, atomic);
                }
            }
        }
    }
    let pending = machine.mem().pending_stores(core).min(u8::MAX as usize) as u8;
    if pending != packet.rsw {
        return Err(diverged(format!(
            "{tid} pending-store count {pending} != recorded rsw {}",
            packet.rsw
        )));
    }
    thread.last_reason = Some(packet.reason);
    Ok(())
}

/// Injects one recorded syscall: kernel writes land in memory, the
/// result lands in `R0`, and thread-local structure (exit, sigreturn,
/// sigaction) is re-applied from the replayed registers.
fn apply_syscall(
    machine: &mut Machine,
    core: CoreId,
    thread: &mut ReplayThread,
    record: &SyscallRecord,
    detector: Option<&mut RaceDetector>,
) -> Result<Effect> {
    let tid = record.tid;
    if !thread.created {
        return Err(diverged(format!("syscall record for never-created {tid}")));
    }
    // Cross-check the record against the replayed register state: the
    // thread stopped right after its syscall instruction, so `R0`
    // still holds the syscall number it actually invoked. A mismatch
    // means the log was reordered or tampered with.
    if thread.last_reason == Some(TerminationReason::Syscall) {
        let replayed_number = machine.read_reg(core, Reg::R0);
        if replayed_number != record.number {
            return Err(diverged(format!(
                "{tid} invoked syscall {replayed_number} but the log records {}",
                record.number
            )));
        }
        // An explicit exit's code comes from the replayed R1; the
        // injected result must agree.
        if record.number == abi::SYS_EXIT {
            let replayed_code = machine.read_reg(core, Reg::R1);
            if replayed_code != record.result {
                return Err(diverged(format!(
                    "{tid} exited with {replayed_code} but the log records {}",
                    record.result
                )));
            }
        }
    }
    // Kernel writes into user memory (read payloads) land first, at
    // this timeline position.
    for (addr, data) in &record.writes {
        machine
            .mem_mut()
            .memory_mut()
            .write_bytes(*addr, data)
            .map_err(|e| diverged(format!("kernel write during replay faulted: {e}")))?;
    }
    match record.number {
        abi::SYS_EXIT => {
            if let Some(detector) = detector {
                detector.on_exit(tid);
            }
            thread.exit_code = Some(record.result);
            machine.core_mut(core).swap_context(None);
            return Ok(Effect::None);
        }
        abi::SYS_SIGRETURN => {
            let saved = thread
                .signal_saved
                .take()
                .ok_or_else(|| diverged(format!("{tid} sigreturn without a frame")))?;
            machine.core_mut(core).swap_context(Some(saved));
            return Ok(Effect::None);
        }
        _ => {}
    }
    // Structural effects read the caller's argument registers, which
    // replay has reproduced.
    let a1 = machine.read_reg(core, Reg::R1);
    let a2 = machine.read_reg(core, Reg::R2);
    let ok = record.result != EFAULT;
    // Happens-before edges for the race detector.
    if let Some(detector) = detector {
        match record.number {
            abi::SYS_SPAWN if ok => detector.on_spawn(tid, ThreadId(record.result)),
            abi::SYS_JOIN if ok => detector.on_join(tid, ThreadId(a1)),
            abi::SYS_FUTEX_WAKE => detector.on_futex_wake(tid, VirtAddr(a1)),
            abi::SYS_FUTEX_WAIT => detector.on_futex_wait(tid, VirtAddr(a1)),
            abi::SYS_KILL if ok => detector.on_kill(tid, ThreadId(a1)),
            abi::SYS_WRITE if ok => detector.on_kernel_read(tid, VirtAddr(a1), record.result as usize),
            abi::SYS_READ if ok => {
                for (addr, data) in &record.writes {
                    detector.on_kernel_write(tid, *addr, data.len());
                }
            }
            _ => {}
        }
    }
    let effect = match record.number {
        abi::SYS_SPAWN if ok => {
            Effect::Spawn { child: ThreadId(record.result), entry: VirtAddr(a1), arg: a2 }
        }
        abi::SYS_SBRK if ok && a1 > 0 => {
            Effect::Map { base: VirtAddr(record.result), len: a1.div_ceil(64) * 64 }
        }
        abi::SYS_WRITE if ok => {
            let mut buf = vec![0u8; record.result as usize];
            machine
                .mem()
                .memory()
                .read_bytes(VirtAddr(a1), &mut buf)
                .map_err(|e| diverged(format!("console read during replay faulted: {e}")))?;
            Effect::Console(buf)
        }
        abi::SYS_SIGACTION => {
            thread.handler = (a1 != 0).then_some(VirtAddr(a1));
            Effect::None
        }
        _ => Effect::None,
    };
    machine.write_reg(core, Reg::R0, record.result);
    Ok(effect)
}

/// Redirects the thread to its signal handler (registers only, exactly
/// like the kernel's delivery path).
fn deliver_signal(
    machine: &mut Machine,
    core: CoreId,
    thread: &mut ReplayThread,
    tid: ThreadId,
    detector: Option<&mut RaceDetector>,
) -> Result<()> {
    if let Some(detector) = detector {
        detector.on_signal_delivery(tid);
    }
    let handler =
        thread.handler.ok_or_else(|| diverged(format!("signal for {tid} without a handler")))?;
    let current = machine
        .core_mut(core)
        .swap_context(None)
        .ok_or_else(|| diverged(format!("signal for contextless {tid}")))?;
    let mut frame = current.clone();
    thread.signal_saved = Some(current);
    frame.set_pc(handler);
    frame.set_reg(Reg::R1, 1);
    machine.core_mut(core).swap_context(Some(frame));
    Ok(())
}

/// The exit-code vector of a finished replay, as the fingerprint hashes
/// it.
///
/// # Errors
///
/// Returns [`QrError::ReplayDivergence`] if a created thread never
/// exited.
pub(crate) fn final_exit_codes<'t>(
    threads: impl Iterator<Item = &'t ReplayThread>,
) -> Result<Vec<Option<u32>>> {
    threads
        .enumerate()
        .map(|(i, t)| match t.exit_code {
            None if t.created => Err(diverged(format!("tid{i} never exited during replay"))),
            code => Ok(code),
        })
        .collect()
}
