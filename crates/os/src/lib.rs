#![warn(missing_docs)]

//! The simulated operating system (the Linux analog under Capo3).
//!
//! QuickRec's software stack, Capo3, lives inside a modified Linux
//! kernel: it intercepts syscalls and signals, virtualizes the recording
//! hardware across context switches, and drains logs. To reproduce its
//! behaviour we need an actual kernel to modify, so this crate implements
//! one for the simulated machine:
//!
//! - threads with kernel-managed stacks, round-robin scheduling with a
//!   cycle quantum, and cross-core migration ([`kernel::Kernel`]),
//! - the syscall surface of [`qr_isa::abi`]: spawn/join/exit, futex
//!   wait/wake (the building block the workload runtime's locks and
//!   barriers use), console write, a synthetic input device, `sbrk`,
//!   time/random reads, and user signals with handler/sigreturn
//!   semantics,
//! - one run loop ([`run_loop::run`]) generic over a [`run_loop::Monitor`]:
//!   the native baseline ([`native::run_native`]) runs it with `()`.
//!
//! The kernel reports every scheduling action, every syscall's
//! user-visible effects and every cycle it costs as data ([`events`]);
//! the loop charges the cycles and hands the rest to the monitor's
//! hooks. That is what lets the Capo3 analog in `qr-capo` be a monitor:
//! terminate chunks at the right boundaries, log inputs, and charge
//! recording overhead — without the kernel knowing whether recording
//! is on.

pub mod config;
pub mod events;
pub mod kernel;
pub mod native;
pub mod run_loop;
pub mod thread;

pub use config::OsConfig;
pub use events::{SchedEvent, SyscallOutcome, SyscallRecord};
pub use kernel::Kernel;
pub use native::{run_native, RunOutcome};
pub use run_loop::{run, Boundary, Monitor};
pub use thread::{Thread, ThreadState};
