#![warn(missing_docs)]

//! Multicore CPU model: cores, the PIA interpreter, and the machine.
//!
//! A [`machine::Machine`] is the QuickIA-platform analog: `N` cores over
//! the `qr-mem` memory hierarchy, executing one loaded [`qr_isa::Program`].
//! The machine is *passive*: an orchestrator (the kernel in `qr-os`, the
//! recording session in `qr-capo`, or the replayer in `qr-replay`) decides
//! which core steps next and reacts to the returned [`step::StepOutcome`]:
//!
//! - syscalls and nondeterministic reads (`rdtsc`, `rdrand`) *trap* to the
//!   orchestrator instead of being handled internally, which is what makes
//!   record and replay symmetric — the environment supplies the values,
//!
//! - every step leaves the retired instruction's memory events in one
//!   buffer the machine owns ([`machine::Machine::events`]) so the
//!   recording hardware can grow its chunk signatures and detect
//!   conflicts. The slice is valid until the next `step` on that machine
//!   and empty after a fault or an idle step; the buffer is reused, so a
//!   warmed-up `step` never allocates, and it is scratch, not state —
//!   `save_state`/`restore_state` never see it. An orchestrator that must
//!   call back into the machine while walking the events moves the buffer
//!   out and back ([`machine::Machine::take_events`] /
//!   [`machine::Machine::restore_events`]),
//!
//! - faults are reported as outcomes (the kernel kills the thread), not
//!   simulator errors.
//!
//! Cores execute a [`context::CpuContext`] (register file + PC) that the
//! kernel swaps on context switches; a core without a context is idle.

pub mod context;
pub mod core;
pub mod machine;
pub mod step;

pub use context::CpuContext;
pub use machine::{CpuConfig, Machine};
pub use step::{NondetKind, StepOutcome, StepResult};
