#![warn(missing_docs)]

//! Capo3 — the software stack that manages the recording hardware.
//!
//! The QuickRec paper's central finding is that the *hardware* records
//! multithreaded executions nearly for free, while the *software stack*
//! (Capo3, built into a modified Linux kernel) costs about 13% on
//! average. This crate is that stack for the simulated platform:
//!
//! - [`session::RecordingSession`] is the replay sphere (one program per
//!   machine, every thread it spawns recorded). It runs the program on
//!   the kernel's run loop with the recorder as its [`qr_os::Monitor`],
//!   whose hooks terminate chunks at syscalls, traps, context switches
//!   and conflicts; virtualize the per-core recorder units as threads
//!   migrate; service the CMEM drain interrupt; and assemble the chunk
//!   log,
//! - [`input_log::InputLog`] captures every nondeterministic input —
//!   syscall results, copy_to_user payloads, signal delivery points,
//!   `rdtsc`/`rdrand` values — with global timestamps where ordering
//!   matters,
//! - [`overhead::OverheadModel`] charges the RSM's costs (interception,
//!   log copying, drain interrupts, recorder save/restore) to the cores
//!   that incur them, producing the overhead breakdown the paper reports.
//!
//! The output is a [`recording::Recording`]: logs + metadata sufficient
//! for `qr-replay` to reproduce the execution exactly.

pub mod format;
pub mod input_log;
pub mod migrate;
pub mod overhead;
pub mod recording;
pub mod session;
pub mod timeline;

pub use format::{FormatManifest, RecordingVersion, PARTIAL_ORDER_FORMAT_VERSION, RECORDING_FORMAT_VERSION};
pub use input_log::{InputEvent, InputLog, InputSalvage};
pub use migrate::{migrate, CrashPoint, MigrateReport};
pub use overhead::{OverheadBreakdown, OverheadModel};
pub use recording::{
    FileCheck, Recording, RecordingConfig, RecordingMode, RecordingParts, RecoveryInfo,
    VerifyReport,
};
pub use session::{record, RecordingSession};
pub use timeline::{TimelineEntry, TimelineEvent};
