//! In-place upgrade of saved recordings to the current format.
//!
//! `quickrec migrate <dir>` brings a v1 (unframed, checksum-free) or v2
//! (framed, no manifest) recording up to the current v3 layout. It is the
//! only code that reads v1 — the private [`v1`] module — and every other
//! reader refuses a v1 file set by naming this command. The upgrade is
//! **crash-consistent**, using the same staging-dir + atomic-rename
//! commit protocol as the `qr-store` repository: the upgraded recording
//! is fully written into a hidden sibling staging directory, then swapped
//! in with two renames (original → backup, staging → original), and the
//! backup is removed last. A crash at any point leaves either the old or
//! the new recording intact — never a torn directory — and
//! [`recover`] (run automatically at the start of every migrate) rolls
//! the directory forward or back to a consistent state.
//!
//! Migration is **idempotent at the byte level**: migrating a v3
//! recording verifies it and changes nothing on disk.

use crate::format::{FormatManifest, RecordingVersion};
use crate::recording::{Recording, RecordingParts};
use qr_common::{QrError, Result};
use quickrec_core::Encoding;
use std::path::{Path, PathBuf};

mod v1;

/// Prefix of the staging directory a migrate writes the upgraded
/// recording into (sibling of the target).
pub const STAGING_PREFIX: &str = ".qr-migrate-new-";
/// Prefix of the backup directory holding the original recording during
/// the swap (sibling of the target).
pub const BACKUP_PREFIX: &str = ".qr-migrate-old-";

/// What one migrate run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateReport {
    /// Format generation found on disk.
    pub from: RecordingVersion,
    /// Format generation after the run (always the current one).
    pub to: RecordingVersion,
    /// Whether any bytes changed on disk (`false` for an already-current
    /// recording — the byte-level no-op).
    pub changed: bool,
    /// Chunk encoding of the (upgraded) recording.
    pub encoding: Encoding,
    /// The recording's architectural-outcome fingerprint, preserved
    /// across the upgrade.
    pub fingerprint: u64,
}

impl MigrateReport {
    /// One-line human-readable summary for CLI output.
    pub fn describe(&self) -> String {
        if self.changed {
            format!(
                "migrated {} -> {} ({} encoding, fingerprint {:#018x})",
                self.from, self.to, self.encoding.name(), self.fingerprint
            )
        } else {
            format!(
                "already {} ({} encoding, fingerprint {:#018x}); nothing to do",
                self.to, self.encoding.name(), self.fingerprint
            )
        }
    }
}

/// Injectable crash points for fault-injection tests: the migrate stops
/// dead (returning an error) *after* the named step has reached disk,
/// simulating a power cut at the worst moments of the commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the staging directory is fully written, before any rename.
    AfterStage,
    /// After the original was renamed to the backup, before the staging
    /// dir was renamed into place (the recording is momentarily absent).
    AfterBackup,
    /// After the staging dir was renamed into place, before the backup
    /// was removed.
    AfterSwap,
}

fn io_err(context: &str, e: std::io::Error) -> QrError {
    QrError::Execution { detail: format!("{context}: {e}") }
}

/// The staging/backup sibling paths for a migrate target.
fn protocol_paths(dir: &Path) -> Result<(PathBuf, PathBuf)> {
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| QrError::Execution {
            detail: format!("migrate target `{}` has no usable directory name", dir.display()),
        })?;
    let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
    let parent = parent.map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    Ok((
        parent.join(format!("{STAGING_PREFIX}{name}")),
        parent.join(format!("{BACKUP_PREFIX}{name}")),
    ))
}

/// Rolls a migrate target forward or back to a consistent state after a
/// crash, using the protocol's on-disk markers. Returns `true` when any
/// leftover state was cleaned up. Safe (and a no-op) on a healthy
/// directory; [`migrate`] runs this first.
///
/// Recovery rules, in order:
///
/// - backup present, target present: the swap committed (or never
///   started tearing anything down) — the backup and any staging dir
///   are leftovers; remove them.
/// - backup present, target missing: crashed between the two renames —
///   restore the backup as the target, remove any staging dir (roll
///   *back*; the next migrate redoes the work).
/// - staging present only: crashed before the swap — remove it.
///
/// # Errors
///
/// Returns [`QrError::Execution`] wrapping any I/O failure.
pub fn recover(dir: &Path) -> Result<bool> {
    let (staging, backup) = protocol_paths(dir)?;
    let mut cleaned = false;
    if backup.exists() {
        if dir.exists() {
            std::fs::remove_dir_all(&backup)
                .map_err(|e| io_err("removing migrate backup", e))?;
        } else {
            std::fs::rename(&backup, dir)
                .map_err(|e| io_err("restoring migrate backup", e))?;
        }
        cleaned = true;
    }
    if staging.exists() {
        std::fs::remove_dir_all(&staging)
            .map_err(|e| io_err("removing migrate staging dir", e))?;
        cleaned = true;
    }
    Ok(cleaned)
}

/// Upgrades the recording in `dir` to the current format, in place.
///
/// Already-current recordings are verified and left byte-for-byte
/// untouched. See the module docs for the commit protocol.
///
/// # Errors
///
/// Returns [`QrError::Execution`] for I/O failures and whatever
/// structured error strict decoding of the source recording produces —
/// a recording that cannot be fully decoded is not migrated. (A torn v2+
/// recording can be salvage-replayed instead; a torn v1 recording has no
/// checksums to salvage by.)
pub fn migrate(dir: &Path) -> Result<MigrateReport> {
    migrate_with_crash(dir, None)
}

/// [`migrate`] with an injectable crash point — the fault-injection
/// entry the conformance suite uses to prove the commit protocol never
/// leaves a torn directory. Production callers pass `None` via
/// [`migrate`].
///
/// # Errors
///
/// As [`migrate`]; additionally returns [`QrError::Execution`] with an
/// "injected crash" detail when the requested crash point is reached.
pub fn migrate_with_crash(dir: &Path, crash: Option<CrashPoint>) -> Result<MigrateReport> {
    recover(dir)?;
    let parts = RecordingParts::read(dir)?;
    let from = RecordingVersion::detect(&parts);
    // Strict decode: migration refuses recordings it cannot fully and
    // faithfully re-encode. The source's chunk encoding is preserved
    // across the upgrade.
    let (recording, encoding) = match from {
        RecordingVersion::V1Legacy => v1::read(&parts)?,
        _ => {
            let recording = Recording::from_parts(&parts)?;
            let encoding =
                Encoding::sniff_container(&parts.chunks).ok_or_else(|| QrError::Corrupt {
                    what: "chunk log".into(),
                    offset: 0,
                    detail: "cannot identify chunk encoding".into(),
                })?;
            (recording, encoding)
        }
    };
    if matches!(from, RecordingVersion::V3 | RecordingVersion::V4) {
        // Both current generations (v4 is v3 plus the partial-order
        // sidecar) verify in place without touching a byte.
        let manifest = FormatManifest::from_bytes(
            parts.format.as_deref().ok_or_else(|| QrError::Corrupt {
                what: "recording file set".into(),
                offset: 0,
                detail: format!("{from} recording is missing format.qrv"),
            })?,
        )?;
        return Ok(MigrateReport {
            from,
            to: from,
            changed: false,
            encoding: manifest.encoding,
            fingerprint: recording.fingerprint,
        });
    }
    let upgraded = recording.to_parts(encoding);
    // Prove the upgrade decodes to the same execution before committing.
    let reread = Recording::from_parts(&upgraded)?;
    if reread.fingerprint != recording.fingerprint {
        return Err(QrError::ReplayDivergence(format!(
            "migrated recording fingerprint {:#x} differs from source {:#x}",
            reread.fingerprint, recording.fingerprint
        )));
    }
    // Commit protocol: stage fully, swap with two renames, drop backup.
    let (staging, backup) = protocol_paths(dir)?;
    upgraded.save(&staging)?;
    let crashed = |point: CrashPoint| {
        Err(QrError::Execution { detail: format!("injected crash at {point:?}") })
    };
    if crash == Some(CrashPoint::AfterStage) {
        return crashed(CrashPoint::AfterStage);
    }
    std::fs::rename(dir, &backup).map_err(|e| io_err("parking original recording", e))?;
    if crash == Some(CrashPoint::AfterBackup) {
        return crashed(CrashPoint::AfterBackup);
    }
    std::fs::rename(&staging, dir).map_err(|e| io_err("committing migrated recording", e))?;
    if crash == Some(CrashPoint::AfterSwap) {
        return crashed(CrashPoint::AfterSwap);
    }
    std::fs::remove_dir_all(&backup).map_err(|e| io_err("removing migrate backup", e))?;
    Ok(MigrateReport {
        from,
        to: RecordingVersion::V3,
        changed: true,
        encoding,
        fingerprint: recording.fingerprint,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::input_log::InputLog;
    use crate::recording::RecordingMeta;
    use qr_mem::TsoMode;
    use quickrec_core::{ChunkLog, ChunkPacket, TerminationReason};
    use qr_common::{CoreId, Cycle, ThreadId};
    use std::path::PathBuf;

    /// The replay fingerprint `tests/golden/MANIFEST.toml` pins for the
    /// `hello` fixtures.
    pub(crate) const HELLO_FINGERPRINT: u64 = 0xe806_56d6_4147_7956;

    /// A committed golden recording. `tests/golden/v1/*` are the only v1
    /// bytes there are — nothing writes that format any more.
    pub(crate) fn golden(generation: &str, name: &str) -> RecordingParts {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        RecordingParts::read(&dir.join(generation).join(name)).expect("golden fixture")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("qr-migrate-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(
            dir.with_file_name(format!("{STAGING_PREFIX}{}", dir.file_name().unwrap().to_str().unwrap())),
        );
        let _ = std::fs::remove_dir_all(
            dir.with_file_name(format!("{BACKUP_PREFIX}{}", dir.file_name().unwrap().to_str().unwrap())),
        );
        dir
    }

    /// A small synthetic (but fully consistent) recording.
    fn sample() -> Recording {
        let mut chunks = ChunkLog::new();
        chunks.extend((0..10u32).map(|i| ChunkPacket {
            tid: ThreadId(i % 2),
            core: CoreId((i % 2) as u8),
            icount: 40 + i as u64,
            timestamp: Cycle(10 + 7 * i as u64),
            rsw: 0,
            reason: TerminationReason::Syscall,
        }));
        let instructions = chunks.total_instructions();
        Recording {
            chunks,
            inputs: InputLog::new(),
            footprints: None,
            meta: RecordingMeta {
                program_fingerprint: 0x1234,
                tso_mode: TsoMode::DrainAtChunk,
                cpu: Default::default(),
                os: Default::default(),
            },
            cycles: 500,
            instructions,
            console: b"hi\n".to_vec(),
            exit_code: 0,
            fingerprint: 0xfeed_beef,
            recorder_stats: Default::default(),
            overhead: Default::default(),
            order: None,
        }
    }

    /// The v2 shape: modern parts minus the format manifest.
    fn v2_parts(rec: &Recording, encoding: Encoding) -> RecordingParts {
        RecordingParts { format: None, ..rec.to_parts(encoding) }
    }

    fn read_all_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_str().unwrap().to_string(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn v1_and_v2_upgrade_to_v3_preserving_fingerprint() {
        let rec = sample();
        for encoding in Encoding::ALL {
            let name = format!("hello-{}", encoding.name());
            let v1 = golden("v1", &name);
            let v1_twin =
                Recording::from_parts(&golden("v3", &name)).expect("v3 twin of the v1 fixture");
            for (label, parts, want) in
                [("v1", v1, &v1_twin), ("v2", v2_parts(&rec, encoding), &rec)]
            {
                let dir = scratch(&format!("up-{label}-{}", encoding.name()));
                parts.save(&dir).unwrap();
                let report = migrate(&dir).unwrap();
                assert!(report.changed, "{label} {encoding:?}");
                assert_eq!(report.from.to_string(), label);
                assert_eq!(report.to, RecordingVersion::V3);
                assert_eq!(report.encoding, encoding);
                assert_eq!(report.fingerprint, want.fingerprint);
                let loaded = Recording::load(&dir).unwrap();
                assert_eq!(loaded.fingerprint, want.fingerprint);
                assert_eq!(loaded.chunks, want.chunks);
                assert_eq!(loaded.inputs, want.inputs);
                assert!(dir.join(Recording::FORMAT_FILE).exists());
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn v2_upgrade_only_adds_the_manifest_byte_identically() {
        let rec = sample();
        let encoding = Encoding::Delta;
        let dir = scratch("v2-bytes");
        let v2 = v2_parts(&rec, encoding);
        v2.save(&dir).unwrap();
        migrate(&dir).unwrap();
        let after = RecordingParts::read(&dir).unwrap();
        // The three core files are already canonical in v2; the upgrade
        // must not disturb a single byte of them.
        assert_eq!(after.meta, v2.meta);
        assert_eq!(after.chunks, v2.chunks);
        assert_eq!(after.inputs, v2.inputs);
        assert!(after.format.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_twice_is_a_byte_level_no_op() {
        let dir = scratch("idempotent");
        golden("v1", "hello-packed").save(&dir).unwrap();
        migrate(&dir).unwrap();
        let first = read_all_files(&dir);
        let report = migrate(&dir).unwrap();
        assert!(!report.changed);
        assert_eq!(report.from, RecordingVersion::V3);
        assert_eq!(read_all_files(&dir), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_crash_point_recovers_to_a_consistent_recording() {
        for crash in [CrashPoint::AfterStage, CrashPoint::AfterBackup, CrashPoint::AfterSwap] {
            let dir = scratch(&format!("crash-{crash:?}"));
            golden("v1", "hello-delta").save(&dir).unwrap();
            let err = migrate_with_crash(&dir, Some(crash)).unwrap_err();
            assert!(err.to_string().contains("injected crash"), "{crash:?}: {err}");
            // Re-running migrate must recover and complete the upgrade.
            let report = migrate(&dir).unwrap();
            assert_eq!(report.to, RecordingVersion::V3);
            assert_eq!(report.fingerprint, HELLO_FINGERPRINT);
            let loaded = Recording::load(&dir).unwrap();
            assert_eq!(loaded.fingerprint, HELLO_FINGERPRINT);
            // No protocol litter survives.
            let (staging, backup) = protocol_paths(&dir).unwrap();
            assert!(!staging.exists(), "{crash:?} left staging");
            assert!(!backup.exists(), "{crash:?} left backup");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_after_swap_already_committed_the_upgrade() {
        // AfterSwap is special: the new recording is already in place, so
        // recovery just removes the backup and the second migrate is a
        // no-op.
        let dir = scratch("crash-swap-committed");
        golden("v1", "hello-raw").save(&dir).unwrap();
        migrate_with_crash(&dir, Some(CrashPoint::AfterSwap)).unwrap_err();
        let loaded = Recording::load(&dir).unwrap();
        assert_eq!(loaded.fingerprint, HELLO_FINGERPRINT);
        let report = migrate(&dir).unwrap();
        assert!(!report.changed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_source_is_refused_without_touching_the_directory() {
        let dir = scratch("corrupt-source");
        let mut parts = golden("v1", "hello-delta");
        parts.chunks.truncate(parts.chunks.len() - 3);
        parts.save(&dir).unwrap();
        let before = read_all_files(&dir);
        assert!(migrate(&dir).is_err());
        assert_eq!(read_all_files(&dir), before, "failed migrate modified the source");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_mixing_generations_is_neither_loaded_nor_migrated() {
        // No recorder ever wrote one; a v1 chunk stream beside framed
        // files is refused by the loaders (as v1) and by the v1 reader
        // (whose meta is not a bare `QRM1` blob).
        let dir = scratch("mixed");
        let mut parts = v2_parts(&sample(), Encoding::Raw);
        parts.chunks = golden("v1", "hello-raw").chunks;
        parts.save(&dir).unwrap();
        let err = Recording::load(&dir).unwrap_err();
        assert!(matches!(err, QrError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("quickrec migrate"), "{err}");
        let err = migrate(&dir).unwrap_err();
        assert!(err.to_string().contains("bad recording-meta magic"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_a_structured_error() {
        let dir = scratch("missing");
        let err = migrate(&dir).unwrap_err();
        assert!(matches!(err, QrError::Execution { .. }), "{err}");
    }
}
