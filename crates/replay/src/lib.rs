#![warn(missing_docs)]

//! Deterministic replay of QuickRec recordings.
//!
//! The replayer consumes a [`qr_capo::Recording`] and re-executes the
//! program so that every load observes the same value it did during
//! recording:
//!
//! - **Chunk ordering.** Chunk packets and timestamped input events are
//!   merged into one timeline by their global timestamps
//!   ([`qr_capo::Recording::timeline`]). Chunks execute
//!   to completion (exactly `icount` instructions) in that order; every
//!   cross-thread dependency forced its source chunk to terminate — and
//!   be stamped — before the dependent access committed, so timestamp
//!   order is a legal serialization.
//! - **TSO reproduction.** Each thread replays with its own store
//!   buffer. Drain points are re-derived deterministically: background
//!   drains key on the thread's own retired-instruction counter,
//!   instruction-triggered drains (fences, atomics, overlaps) recur
//!   naturally, and boundary drains follow each chunk's termination
//!   reason exactly as during recording. The packet's RSW field is
//!   checked after every chunk — a pending-store-count mismatch is a
//!   divergence.
//! - **Input injection.** Syscalls are *not* re-executed: results are
//!   injected into `R0`, kernel writes (`read` payloads) are applied to
//!   user memory at the recorded timeline position, and structural
//!   syscalls (`spawn`, `exit`, `sbrk`, signal management) are
//!   re-applied from the replayed thread's own registers. `rdtsc` and
//!   `rdrand` values come from per-thread FIFO queues.
//!
//! Those three rules are written once, in the crate's event executor
//! (chunk execution, syscall injection and signal delivery over a
//! machine, a core and one thread's replay state), and [`Replayer`] is
//! the one host that drives it: every thread on its own core of one
//! machine. Every mode is an order of the one timeline through it:
//! [`Replayer`] runs it in timestamp order (and is what salvage, the
//! checkpoint index and time-travel queries drive); [`ParallelReplayer`]
//! relaxes it to the conflict DAG that
//! [`quickrec_core::hb::ConflictSweep`] yields and dispatches its nodes
//! to the same replayer in the order of a greedy list schedule onto
//! `jobs` *simulated* workers, whose makespan it reports;
//! [`replay_ordered`] schedules the same way under a recorded
//! `order.qrp` edge set instead. Every mode replays on the caller's
//! thread, on the functional memory path (flat memory and per-thread
//! store buffers, no L1s or bus: caches never decide data). Only
//! [`Replayer::modelled`] and [`ParallelReplayer::modelled`] keep the
//! recording's cache and bus model, for the cycles E9 and E9b report.
//!
//! [`replay`] returns a [`ReplayOutcome`]; [`replay_and_verify`] also
//! checks the fingerprint, console and exit code against the recording
//! — the *recorder's* fingerprint, so the modes sharing an executor
//! does not make them each other's oracle.

mod exec;
pub mod order;
pub mod outcome;
pub mod parallel;
pub mod races;
pub mod replayer;
pub mod salvage;
#[cfg(test)]
mod testutil;
pub mod timetravel;

pub use order::{replay_ordered, replay_ordered_and_verify};
pub use outcome::ReplayOutcome;
pub use parallel::{replay_parallel_and_verify, ParallelReplayer};
pub use races::{Race, RaceDetector, RaceReport};
pub use replayer::{replay, replay_and_verify, replay_with_race_detection, Replayer};
pub use salvage::{salvage_replay, salvage_replay_dir, SalvageReport};
pub use timetravel::{
    timeline_descriptors, CheckpointIndex, CheckpointKey, EventDescriptor, EventKind, QueryEngine,
    QueryPlan, QueryResult, ReplayQuery, SeekStats, CHECKPOINT_INDEX_VERSION,
};
