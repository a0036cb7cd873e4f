#![warn(missing_docs)]

//! QuickRec recording hardware — the paper's architecture extension.
//!
//! This crate models the per-core *memory race recorder* (MRR) that the
//! QuickRec prototype (ISCA 2013) added to FPGA-emulated Pentium cores,
//! plus the buffering path that carries its output to software:
//!
//! - **Chunks.** Execution is divided into *chunks*: maximal runs of
//!   retired user instructions free of cross-core data conflicts. A chunk
//!   terminates when a remote coherence request hits the local read or
//!   write signature (a RAW/WAR/WAW dependency), when a signature
//!   saturates, when the instruction counter overflows, or on
//!   syscalls/traps/context switches. Each termination emits a
//!   [`chunk::ChunkPacket`] carrying the instruction count, a global
//!   timestamp, and the reordered-store-window (RSW) count.
//! - **Signatures.** Read/write sets are tracked in Bloom-style hashed
//!   bit-vectors ([`signature::Signature`]); false positives cause only
//!   extra (safe) terminations.
//! - **CBUF / CMEM.** Packets queue in a small hardware chunk buffer
//!   ([`cbuf::Cbuf`]) drained by DMA into a software-managed memory
//!   region ([`cmem::Cmem`]); a full CBUF stalls the core — the *only*
//!   hardware overhead source, matching the paper's "negligible hardware
//!   overhead" claim — and a filling CMEM raises the interrupt the Capo3
//!   software stack services.
//! - **Encodings.** Three on-disk packet formats ([`encoding::Encoding`])
//!   reproduce the paper's log-compression comparison.
//!
//! Replay consumes the resulting [`log::ChunkLog`]: executing chunks in
//! global timestamp order reproduces every cross-thread dependency (each
//! dependency forced its source chunk to terminate — and be stamped —
//! before the dependent access committed).

pub mod cbuf;
pub mod chunk;
pub mod cmem;
pub mod config;
pub mod encoding;
pub mod footprint;
pub mod hb;
pub mod log;
pub mod mrr;
mod obs;
pub mod po;
pub mod signature;
pub mod stats;
pub mod viz;

pub use chunk::{ChunkPacket, TerminationReason};
pub use config::MrrConfig;
pub use encoding::{Encoding, SalvagedPackets, FRAME_GROUP_PACKETS};
pub use footprint::{ChunkFootprint, FootprintLog};
pub use log::ChunkLog;
pub use mrr::{MrrUnit, RecorderBank};
pub use po::{
    DeriveStats, EdgeKind, OrderEdge, OrderLog, OrderMode, OrderSalvage, PoEvent, PoNode,
};
pub use stats::RecorderStats;
