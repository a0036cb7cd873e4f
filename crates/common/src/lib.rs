#![warn(missing_docs)]

//! Shared foundation types for the QuickRec-RS workspace.
//!
//! This crate holds the small, dependency-free vocabulary used by every
//! other crate in the reproduction of *QuickRec: prototyping an Intel
//! architecture extension for record and replay of multithreaded programs*
//! (ISCA 2013):
//!
//! - strongly-typed identifiers ([`CoreId`], [`ThreadId`], [`VirtAddr`],
//!   [`LineAddr`], …),
//! - the workspace-wide error type ([`QrError`]),
//! - LEB128 varint and zigzag codecs used by the chunk-packet encodings
//!   ([`varint`]),
//! - CRC-32 checksums and the crash-consistent framed container format
//!   all on-disk logs are written in ([`crc32`], [`frame`]),
//! - a deterministic, seedable hash / PRNG pair used for state
//!   fingerprinting and signature hashing ([`fingerprint`], [`rng`]),
//! - the one field codec every single-record document is declared with
//!   ([`wire`], [`wire_struct!`], [`wire_enum!`]) and the byte reader
//!   every decoder reads through ([`cursor`]).
//!
//! # Example
//!
//! ```
//! use qr_common::{CoreId, VirtAddr, LineAddr};
//!
//! let addr = VirtAddr(0x1234_5678);
//! assert_eq!(addr.line(), LineAddr(0x1234_5678 >> 6));
//! assert_eq!(CoreId(2).to_string(), "core2");
//! ```

pub mod crc32;
pub mod cursor;
pub mod error;
pub mod fingerprint;
pub mod frame;
pub mod ids;
pub mod rng;
pub mod varint;
pub mod wire;

pub use error::{QrError, Result};
pub use fingerprint::Fingerprint;
pub use ids::{CoreId, Cycle, LineAddr, Pid, ThreadId, VirtAddr, CACHE_LINE_BYTES};
pub use rng::SplitMix64;
