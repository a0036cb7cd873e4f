//! The on-disk recording repository.
//!
//! A store root holds one directory per entry:
//!
//! ```text
//! root/
//!   rec-00000001/
//!     manifest.qrs      framed StoreManifest (written last)
//!     meta.qrm.z        block-compressed meta image
//!     chunks.qrl.z      block-compressed chunk log
//!     inputs.qrl.z      block-compressed input log
//!     footprints.qrl.z  (when the recording has the sidecar)
//! ```
//!
//! Entries are committed atomically: files are written into a
//! `.tmp-<id>` staging directory, the manifest last, and the directory
//! is renamed into place. A crash or shutdown mid-`put` leaves only a
//! staging directory, which [`RecordingStore::open`] sweeps — a visible
//! `rec-*` entry therefore always carries a complete manifest. Damage
//! *after* commit (torn blocks, flipped bytes) is caught by the frame
//! and block CRCs and drops into the salvage path
//! ([`RecordingStore::fetch_salvaged`]) instead of panicking.

use crate::block;
use crate::manifest::{Manifest, ManifestFile};
use qr_capo::{Recording, RecordingParts, RecoveryInfo, VerifyReport};
use qr_common::{crc32, QrError, Result};
use quickrec_core::Encoding;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Manifest file name inside an entry directory.
pub const MANIFEST_FILE: &str = "manifest.qrs";

/// Suffix appended to a logical file name for its compressed container.
pub const COMPRESSED_SUFFIX: &str = ".z";

fn io_err(what: &str, e: std::io::Error) -> QrError {
    QrError::Execution { detail: format!("{what}: {e}") }
}

/// A concurrent-safe compressed recording repository rooted at one
/// directory. All methods take `&self`; the store hands out sequential
/// entry ids and is shared across server workers behind an `Arc`.
#[derive(Debug)]
pub struct RecordingStore {
    root: PathBuf,
    next_id: AtomicU64,
}

impl RecordingStore {
    /// Opens (creating if needed) a store rooted at `root`, sweeping any
    /// staging directories a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] wrapping I/O failures.
    pub fn open(root: &Path) -> Result<RecordingStore> {
        std::fs::create_dir_all(root).map_err(|e| io_err("creating store root", e))?;
        let mut max_id = 0u64;
        let entries =
            std::fs::read_dir(root).map_err(|e| io_err("reading store root", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("reading store root", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-") {
                // A writer died mid-put; the entry was never visible.
                std::fs::remove_dir_all(entry.path())
                    .map_err(|e| io_err("sweeping staging directory", e))?;
            } else if let Some(id) = name.strip_prefix("rec-").and_then(|s| s.parse().ok()) {
                max_id = max_id.max(id);
            }
        }
        Ok(RecordingStore { root: root.to_path_buf(), next_id: AtomicU64::new(max_id + 1) })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of entry `id` (whether or not it exists).
    pub fn entry_dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("rec-{id:08}"))
    }

    /// Stores a recording under `name`, compressing every file, and
    /// returns the assigned entry id.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] wrapping I/O failures; on error
    /// the staging directory is removed and no entry becomes visible.
    pub fn put(&self, name: &str, recording: &Recording, encoding: Encoding) -> Result<u64> {
        self.put_parts(name, &recording.to_parts(encoding), encoding, recording.fingerprint)
    }

    /// [`RecordingStore::put`] over pre-serialized file images.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] wrapping I/O failures.
    pub fn put_parts(
        &self,
        name: &str,
        parts: &RecordingParts,
        encoding: Encoding,
        fingerprint: u64,
    ) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let staging = self.root.join(format!(".tmp-{id}"));
        let result = self.write_entry(&staging, id, name, parts, encoding, fingerprint);
        if result.is_err() {
            let _ = std::fs::remove_dir_all(&staging);
            return result.map(|_| id);
        }
        std::fs::rename(&staging, self.entry_dir(id)).map_err(|e| {
            let _ = std::fs::remove_dir_all(&staging);
            io_err("committing store entry", e)
        })?;
        Ok(id)
    }

    fn write_entry(
        &self,
        staging: &Path,
        id: u64,
        name: &str,
        parts: &RecordingParts,
        encoding: Encoding,
        fingerprint: u64,
    ) -> Result<()> {
        std::fs::create_dir_all(staging).map_err(|e| io_err("creating staging directory", e))?;
        let mut files = Vec::new();
        for (file_name, bytes) in parts.files() {
            let compressed = block::compress(bytes);
            let blocks = block::read_index(&compressed).map(|i| i.blocks.len() as u64)?;
            std::fs::write(
                staging.join(format!("{file_name}{COMPRESSED_SUFFIX}")),
                &compressed,
            )
            .map_err(|e| io_err("writing compressed log", e))?;
            files.push(ManifestFile {
                name: file_name.to_string(),
                uncompressed: bytes.len() as u64,
                compressed: compressed.len() as u64,
                blocks,
                crc: crc32::checksum(bytes),
            });
        }
        let manifest =
            Manifest { id, name: name.to_string(), encoding, fingerprint, files };
        // The manifest commits the entry: written last, so a readable
        // manifest implies every file above it landed.
        std::fs::write(staging.join(MANIFEST_FILE), manifest.to_bytes())
            .map_err(|e| io_err("writing manifest", e))?;
        Ok(())
    }

    /// Reads entry `id`'s manifest.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] for a missing entry,
    /// [`QrError::Corrupt`] for a damaged manifest.
    pub fn manifest(&self, id: u64) -> Result<Manifest> {
        let path = self.entry_dir(id).join(MANIFEST_FILE);
        let buf = std::fs::read(&path)
            .map_err(|e| io_err(&format!("reading store entry {id} manifest"), e))?;
        let manifest = Manifest::from_bytes(&buf)?;
        if manifest.id != id {
            return Err(QrError::Corrupt {
                what: "store manifest".into(),
                offset: 0,
                detail: format!("entry {id} carries manifest id {}", manifest.id),
            });
        }
        Ok(manifest)
    }

    /// All entry manifests, ordered by id.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or manifest-decode failure (a visible
    /// entry with an unreadable manifest violates the commit protocol
    /// and is worth surfacing, not hiding).
    pub fn list(&self) -> Result<Vec<Manifest>> {
        let mut ids = Vec::new();
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| io_err("reading store root", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("reading store root", e))?;
            if let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("rec-"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids.into_iter().map(|id| self.manifest(id)).collect()
    }

    /// Strictly fetches entry `id`'s decompressed file images (and its
    /// manifest), verifying every CRC layer.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] naming the first damaged file.
    pub fn fetch_parts(&self, id: u64) -> Result<(Manifest, RecordingParts)> {
        let manifest = self.manifest(id)?;
        let dir = self.entry_dir(id);
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for f in &manifest.files {
            let compressed = std::fs::read(dir.join(format!("{}{COMPRESSED_SUFFIX}", f.name)))
                .map_err(|e| io_err(&format!("reading {} of entry {id}", f.name), e))?;
            let bytes = block::decompress(&compressed).map_err(|e| QrError::Corrupt {
                what: format!("store entry {id} {}", f.name),
                offset: match &e {
                    QrError::Corrupt { offset, .. } => *offset,
                    _ => 0,
                },
                detail: e.to_string(),
            })?;
            if bytes.len() as u64 != f.uncompressed || crc32::checksum(&bytes) != f.crc {
                return Err(QrError::Corrupt {
                    what: format!("store entry {id} {}", f.name),
                    offset: 0,
                    detail: "decompressed image does not match the manifest".into(),
                });
            }
            files.push((f.name.clone(), bytes));
        }
        Ok((manifest, RecordingParts::from_files(&files)?))
    }

    /// Strictly fetches and decodes entry `id` as a [`Recording`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] for any damage along the way.
    pub fn fetch(&self, id: u64) -> Result<Recording> {
        let (_, parts) = self.fetch_parts(id)?;
        Recording::from_parts(&parts)
    }

    /// Tolerantly fetches entry `id`: torn or flipped blocks reduce
    /// each log to its longest valid prefix (via [`block::salvage`]),
    /// which then flows through the recording layer's own salvage
    /// decoding — exactly the path a torn on-disk recording takes.
    ///
    /// # Errors
    ///
    /// Returns an error only when the manifest or the metadata image is
    /// unrecoverable (a recording without platform metadata cannot
    /// anchor a replay).
    pub fn fetch_salvaged(&self, id: u64) -> Result<(Recording, RecoveryInfo)> {
        let manifest = self.manifest(id)?;
        let dir = self.entry_dir(id);
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for f in &manifest.files {
            let compressed = std::fs::read(dir.join(format!("{}{COMPRESSED_SUFFIX}", f.name)))
                .map_err(|e| io_err(&format!("reading {} of entry {id}", f.name), e))?;
            files.push((f.name.clone(), block::salvage(&compressed).bytes));
        }
        Recording::salvage_from_parts(&RecordingParts::from_files(&files)?)
    }

    /// Decompresses entry `id` back into a plain recording directory
    /// (the layout `Recording::load` and `quickrec replay` consume).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] for damage, [`QrError::Execution`]
    /// for I/O failures.
    pub fn fetch_to_dir(&self, id: u64, dir: &Path) -> Result<Manifest> {
        let (manifest, parts) = self.fetch_parts(id)?;
        parts.save(dir)?;
        Ok(manifest)
    }

    /// Integrity-checks entry `id` end to end — manifest, every block
    /// CRC, and a strict decode of every recovered image — without
    /// keeping the recording.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] when the entry is missing
    /// entirely; damage inside it is reported in the returned
    /// [`VerifyReport`], not as an error.
    pub fn verify(&self, id: u64) -> Result<VerifyReport> {
        let manifest = self.manifest(id)?;
        Ok(match self.fetch_parts(id) {
            // Images recovered; run the same per-file strict decode the
            // directory verifier uses, in memory.
            Ok((_, parts)) => Recording::verify_parts(&parts),
            // Damage before decompression: report it against the entry
            // as a whole.
            Err(e) => VerifyReport {
                files: vec![qr_capo::FileCheck {
                    name: format!("rec-{id:08}"),
                    bytes: Some(manifest.compressed_bytes()),
                    version: None,
                    records: manifest.files.len(),
                    error: Some(e),
                }],
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("qr-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fake_parts() -> RecordingParts {
        // Not a decodable recording — enough for store-layer round trips.
        RecordingParts {
            meta: b"meta-bytes".to_vec(),
            chunks: vec![7u8; 100_000],
            inputs: (0u32..5000).flat_map(|i| i.to_le_bytes()).collect(),
            footprints: None,
            format: None,
            checkpoints: None,
            order: None,
        }
    }

    #[test]
    fn put_fetch_roundtrip_and_ids_are_sequential() {
        let root = scratch("roundtrip");
        let store = RecordingStore::open(&root).unwrap();
        let parts = fake_parts();
        let a = store.put_parts("first", &parts, Encoding::Delta, 0xABC).unwrap();
        let b = store.put_parts("second", &parts, Encoding::Raw, 0xDEF).unwrap();
        assert_eq!((a, b), (1, 2));
        let (manifest, got) = store.fetch_parts(a).unwrap();
        assert_eq!(got, parts);
        assert_eq!(manifest.name, "first");
        assert_eq!(manifest.fingerprint, 0xABC);
        assert!(manifest.compressed_bytes() < manifest.uncompressed_bytes());
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[1].encoding, Encoding::Raw);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_resumes_id_sequence_and_sweeps_staging() {
        let root = scratch("reopen");
        {
            let store = RecordingStore::open(&root).unwrap();
            store.put_parts("one", &fake_parts(), Encoding::Delta, 1).unwrap();
        }
        // A fake crashed writer.
        std::fs::create_dir_all(root.join(".tmp-99")).unwrap();
        std::fs::write(root.join(".tmp-99/partial"), b"x").unwrap();
        let store = RecordingStore::open(&root).unwrap();
        assert!(!root.join(".tmp-99").exists(), "staging dirs must be swept");
        let id = store.put_parts("two", &fake_parts(), Encoding::Delta, 2).unwrap();
        assert_eq!(id, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_block_is_detected_strictly() {
        let root = scratch("torn");
        let store = RecordingStore::open(&root).unwrap();
        let id = store.put_parts("victim", &fake_parts(), Encoding::Delta, 3).unwrap();
        let chunks = store.entry_dir(id).join(format!("chunks.qrl{COMPRESSED_SUFFIX}"));
        let mut bytes = std::fs::read(&chunks).unwrap();
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        std::fs::write(&chunks, &bytes).unwrap();
        let err = store.fetch_parts(id).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_entry_is_a_clean_error() {
        let root = scratch("missing");
        let store = RecordingStore::open(&root).unwrap();
        assert!(store.fetch_parts(7).is_err());
        assert!(store.manifest(7).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
