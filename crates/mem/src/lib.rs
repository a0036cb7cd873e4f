#![warn(missing_docs)]

//! Memory hierarchy of the simulated QuickIA-like platform.
//!
//! The QuickRec prototype records multithreaded executions by observing
//! cache-coherence traffic: every cross-core data dependency manifests as
//! a snoopy-bus transaction that hits another core's read or write set.
//! This crate models exactly the machinery that behaviour depends on:
//!
//! - a sparse, paged flat memory holding the architectural data
//!   ([`memory::PagedMemory`]),
//! - per-core L1 caches with MESI states and LRU replacement
//!   ([`cache::Cache`]),
//! - a snoopy bus with a global, monotonically increasing timestamp — the
//!   time base used to order recorded chunks ([`bus`]),
//! - per-core TSO store buffers with load forwarding
//!   ([`store_buffer::StoreBuffer`]),
//! - the composed [`system::MemorySystem`] that cores issue accesses to,
//!   and which emits the [`events::MemEvent`] stream consumed by the
//!   recording hardware model in `quickrec-core`.
//!
//! Data values live in the flat memory and become globally visible when a
//! store *drains* from its store buffer; caches carry coherence metadata
//! and timing. This split keeps the simulator fast while preserving every
//! event the recorder cares about (bus transactions, evictions, pending
//! store counts). Replay needs none of the timing, so it drops the caches
//! altogether ([`system::MemorySystem::make_functional`]).

pub mod bus;
pub mod cache;
pub mod config;
pub mod events;
pub mod memory;
pub mod stats;
pub mod store_buffer;
pub mod system;

pub use bus::{BusKind, GlobalClock};
pub use config::{MemConfig, TsoMode};
pub use events::MemEvent;
pub use memory::PagedMemory;
pub use stats::MemStats;
pub use system::{Access, MemorySystem};
