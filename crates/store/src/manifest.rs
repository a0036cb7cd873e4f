//! The per-recording store manifest.
//!
//! Every store entry is a directory holding one compressed container
//! per recording file plus `manifest.qrs`, a framed
//! ([`PayloadKind::StoreManifest`]) single-record document binding them
//! together: entry identity, the chunk-log encoding, the recording's
//! outcome fingerprint, and per-file geometry (uncompressed/compressed
//! sizes, block count, CRC-32 of the uncompressed image). The manifest
//! is written *last* and the entry directory is renamed into place
//! atomically, so a manifest that parses implies the entry was complete
//! when committed — [`crate::RecordingStore`] relies on this for its
//! no-torn-entries guarantee.

use qr_common::frame::{self, PayloadKind};
use qr_common::wire::{self, Le, List, Wire};
use qr_common::{wire_struct, Result};
use quickrec_core::Encoding;

/// Manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

wire_struct! {
    /// Geometry and integrity data for one compressed file in an entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ManifestFile {
        /// Logical recording file name (`meta.qrm`, `chunks.qrl`, ...).
        pub name: String,
        /// Uncompressed image size in bytes.
        pub uncompressed: u64,
        /// Compressed container size in bytes.
        pub compressed: u64,
        /// Compression blocks in the container.
        pub blocks: u64,
        /// CRC-32 of the uncompressed image.
        pub crc: u32 as Le,
    }
}

wire_struct! {
    /// One store entry's manifest. On disk its record is the manifest
    /// version, then these fields in declaration order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Manifest {
        /// Store-assigned entry id (sequential, unique within a store root).
        pub id: u64,
        /// Client-supplied entry name (workload or submission label).
        pub name: String,
        /// Chunk-log encoding the entry was stored with.
        pub encoding: Encoding,
        /// The recording's architectural-outcome fingerprint.
        pub fingerprint: u64,
        /// Per-file geometry, in save-layout order (a recording has a
        /// handful).
        pub files: Vec<ManifestFile> as List<16>,
    }
}

impl Manifest {
    /// Serializes the manifest as a framed single-record container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = wire::encode(&MANIFEST_VERSION);
        self.put(&mut payload);
        frame::single(PayloadKind::StoreManifest, &payload)
    }

    /// Parses a manifest container.
    ///
    /// # Errors
    ///
    /// Returns [`qr_common::QrError::Corrupt`] for any structural damage
    /// or another manifest version; never panics on arbitrary bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<Manifest> {
        let mut r = frame::read_single(buf, PayloadKind::StoreManifest, "store manifest")?;
        let version = u64::get(&mut r)?;
        if version != MANIFEST_VERSION {
            return Err(r.corrupt_at(0, format!("unsupported manifest version {version}")));
        }
        wire::decode(r)
    }

    /// Total uncompressed bytes across files.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.uncompressed).sum()
    }

    /// Total compressed bytes across files.
    pub fn compressed_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.compressed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::{varint, QrError, SplitMix64};

    fn sample() -> Manifest {
        Manifest {
            id: 42,
            name: "fft-4t".into(),
            encoding: Encoding::Delta,
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            files: vec![
                ManifestFile {
                    name: "meta.qrm".into(),
                    uncompressed: 120,
                    compressed: 100,
                    blocks: 1,
                    crc: 7,
                },
                ManifestFile {
                    name: "chunks.qrl".into(),
                    uncompressed: 90_000,
                    compressed: 21_000,
                    blocks: 3,
                    crc: 0xFFFF_0001,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(m.uncompressed_bytes(), 90_120);
        assert_eq!(m.compressed_bytes(), 21_100);
    }

    #[test]
    fn mutations_never_panic() {
        let buf = sample().to_bytes();
        let mut rng = SplitMix64::new(11);
        for _ in 0..2000 {
            let mut bad = buf.clone();
            match rng.below(2) {
                0 => {
                    let cut = rng.below(bad.len() as u64 + 1) as usize;
                    bad.truncate(cut);
                }
                _ => {
                    let at = rng.below(bad.len() as u64) as usize;
                    bad[at] ^= 1 << rng.below(8);
                }
            }
            match Manifest::from_bytes(&bad) {
                Ok(m) => assert_eq!(m, sample(), "only a no-op mutation may parse"),
                Err(QrError::Corrupt { .. }) => {}
                Err(other) => panic!("non-structured error: {other}"),
            }
        }
    }

    #[test]
    fn a_hostile_name_length_is_corrupt_not_a_panic() {
        // Version 1, id 1, then an entry name claiming u64::MAX bytes:
        // the length must be checked against what remains, not added to
        // the cursor.
        let mut payload = vec![1, 1];
        varint::write_u64(&mut payload, u64::MAX);
        let mut w = frame::Writer::new(PayloadKind::StoreManifest);
        w.record(&payload);
        let err = Manifest::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("name: need 18446744073709551615 bytes"), "{err}");
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut w = frame::Writer::new(PayloadKind::Meta);
        w.record(b"not a manifest");
        assert!(Manifest::from_bytes(&w.finish()).is_err());
    }
}
