#![warn(missing_docs)]

//! `qr-store` — a compressed, indexed repository for QuickRec
//! recordings.
//!
//! The paper's software stack (Capo3) turns raw chunk logs into a
//! record/replay *system*; systems keep recordings around. This crate
//! is the storage layer the `quickrecd` daemon (and the CLI) put
//! recordings into:
//!
//! - [`lz`] — a dependency-free LZ77-style codec (greedy hash-chain
//!   matcher, varint sequence stream), panic-free on arbitrary input,
//! - [`block`] — a framed block container over [`lz`]: independent
//!   32 KiB blocks, a per-block CRC-32 of the uncompressed bytes and a
//!   block index, plus [`block::salvage`] for longest-valid-prefix
//!   recovery of torn containers,
//! - [`manifest`] — the versioned per-entry manifest binding an entry's
//!   compressed files to its identity, encoding and outcome
//!   fingerprint,
//! - [`store`] — [`RecordingStore`]: atomic `put` (stage + rename, the
//!   manifest written last, so no torn entry is ever visible), strict
//!   `fetch` with every CRC layer verified, and `fetch_salvaged`
//!   feeding damaged entries into the recording layer's existing
//!   salvage path.

pub mod block;
pub mod lz;
pub mod manifest;
pub mod store;

pub use block::{BlockIndex, BlockSalvage, BLOCK_SIZE};
pub use manifest::{Manifest, ManifestFile, MANIFEST_VERSION};
pub use store::{RecordingStore, COMPRESSED_SUFFIX, MANIFEST_FILE};
