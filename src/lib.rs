#![warn(missing_docs)]

//! **QuickRec-RS** — record and replay of multithreaded programs on a
//! simulated multicore IA-like platform.
//!
//! A from-scratch reproduction of *QuickRec: prototyping an Intel
//! architecture extension for record and replay of multithreaded
//! programs* (Pokam et al., ISCA 2013). The original prototype put
//! chunk-based memory-race-recording hardware into FPGA-emulated Pentium
//! cores and managed it with Capo3, a modified Linux kernel. This crate
//! reproduces the whole stack in simulation:
//!
//! | Layer | Crate |
//! |---|---|
//! | recording hardware (signatures, chunks, CBUF/CMEM, encodings) | [`quickrec_core`] |
//! | multicore machine (cores, MESI caches, snoopy bus, TSO) | [`qr_cpu`], [`qr_mem`] |
//! | PIA instruction set + assemblers | [`qr_isa`] |
//! | kernel (threads, scheduler, futex, signals) | [`qr_os`] |
//! | Capo3 software stack (recording session, input log, overhead model) | [`qr_capo`] |
//! | deterministic replayer | [`qr_replay`] |
//! | SPLASH-2-style workloads | [`qr_workloads`] |
//!
//! # Quickstart
//!
//! Record a multithreaded workload and replay it deterministically:
//!
//! ```
//! use quickrec::{record, replay_and_verify, RecordingConfig};
//!
//! let spec = quickrec::workloads::find("fft").expect("fft is in the suite");
//! let program = (spec.build)(4, quickrec::workloads::Scale::Test)?;
//!
//! let recording = record(program.clone(), RecordingConfig::with_cores(4))?;
//! assert_eq!(recording.exit_code, (spec.expected)(4, quickrec::workloads::Scale::Test));
//!
//! let outcome = replay_and_verify(&program, &recording)?;
//! assert_eq!(outcome.fingerprint, recording.fingerprint);
//! # Ok::<(), qr_common::QrError>(())
//! ```
//!
//! Write your own guest program with the assembler:
//!
//! ```
//! use quickrec::{record, RecordingConfig};
//! use qr_isa::{abi, Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.movi_u(Reg::R0, abi::SYS_EXIT);
//! a.movi(Reg::R1, 7);
//! a.syscall();
//! let recording = record(a.finish()?, RecordingConfig::with_cores(1))?;
//! assert_eq!(recording.exit_code, 7);
//! # Ok::<(), qr_common::QrError>(())
//! ```

pub use qr_capo::{
    migrate, record, FormatManifest, InputEvent, InputLog, OverheadBreakdown, OverheadModel,
    Recording, RecordingConfig, RecordingMode, RecordingParts, RecordingSession, RecordingVersion,
    PARTIAL_ORDER_FORMAT_VERSION, RECORDING_FORMAT_VERSION,
};
pub use qr_common::{CoreId, Cycle, QrError, Result, ThreadId, VirtAddr};
pub use qr_cpu::{CpuConfig, Machine};
pub use qr_isa::{Asm, Program};
pub use qr_mem::{MemConfig, TsoMode};
pub use qr_os::{run_native, OsConfig, RunOutcome};
pub use qr_replay::{replay, replay_and_verify, replay_ordered, replay_ordered_and_verify,
    replay_parallel_and_verify,
    timeline_descriptors, CheckpointIndex, EventDescriptor, EventKind, ParallelReplayer,
    QueryEngine, QueryPlan, QueryResult, ReplayOutcome, ReplayQuery, Replayer,
    CHECKPOINT_INDEX_VERSION};
pub use quickrec_core::{ChunkLog, ChunkPacket, Encoding, MrrConfig, OrderLog, OrderMode,
    TerminationReason};

/// The SPLASH-2-style workload suite (re-exported from [`qr_workloads`]).
pub mod workloads {
    pub use qr_workloads::suite::{find, init_value, suite, Scale, WorkloadSpec};
}

/// Runs a program natively (no recording) on a fresh machine — the
/// baseline used by the overhead experiments.
///
/// # Errors
///
/// Propagates configuration and execution errors.
///
/// # Example
///
/// ```
/// use qr_isa::{abi, Asm, Reg};
///
/// let mut a = Asm::new();
/// a.movi_u(Reg::R0, abi::SYS_EXIT);
/// a.movi(Reg::R1, 3);
/// a.syscall();
/// let out = quickrec::run_baseline(a.finish()?, 2)?;
/// assert_eq!(out.exit_code, 3);
/// # Ok::<(), qr_common::QrError>(())
/// ```
pub fn run_baseline(program: Program, cores: usize) -> Result<RunOutcome> {
    let cfg = CpuConfig { num_cores: cores, ..CpuConfig::default() };
    let mut machine = Machine::new(program, cfg)?;
    run_native(&mut machine, OsConfig::default())
}
