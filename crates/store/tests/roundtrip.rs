//! Store round-trip contract: record → store (compressed) → fetch →
//! replay must be byte- and fingerprint-identical to recording straight
//! into a directory, across all three chunk-log encodings — and a torn
//! store entry drops to the salvage path instead of panicking.

use qr_capo::{record, Recording, RecordingConfig};
use qr_common::frame;
use qr_store::{RecordingStore, COMPRESSED_SUFFIX, MANIFEST_FILE};
use quickrec_core::Encoding;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-store-rt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn recorded_workload(threads: usize) -> (qr_isa::Program, Recording) {
    let spec = qr_workloads::find("fft").expect("fft workload");
    let scale = qr_workloads::Scale::Test;
    let program = (spec.build)(threads, scale).expect("build workload");
    let recording =
        record(program.clone(), RecordingConfig::with_cores(threads)).expect("record workload");
    assert_eq!(
        recording.exit_code,
        (spec.expected)(threads, scale),
        "workload must self-validate before the store is involved"
    );
    (program, recording)
}

/// The most a block container may add to its input, read off the
/// container: the frame header, the index record, and each block
/// record's length prefix, checksum and method byte. A block LZ does not
/// shrink is stored raw (`qr_store::block::compress_with_block_size`),
/// so no block payload outgrows its input.
fn container_overhead(container: &[u8]) -> u64 {
    let spans = frame::record_spans(container);
    let index = spans.first().map_or(0, |span| span.len());
    let blocks = spans.len().saturating_sub(1);
    (frame::HEADER_LEN + index + blocks * (frame::RECORD_OVERHEAD + 1)) as u64
}

#[test]
fn store_round_trip_matches_direct_directory_for_every_encoding() {
    let dir = scratch("encodings");
    let (program, recording) = recorded_workload(2);

    for encoding in Encoding::ALL {
        let direct = dir.join(format!("direct-{}", encoding.name()));
        recording.save(&direct, encoding).expect("direct save");

        let store = RecordingStore::open(&dir.join(format!("store-{}", encoding.name())))
            .expect("open store");
        let id = store.put("fft", &recording, encoding).expect("store put");

        // No file grows past the container's own overhead, and where
        // the logs are compressible (Raw packets) the entry shrinks.
        // Test-scale Packed and Delta logs are already dense: LZ saves
        // less than the fixed cost of a container per file.
        let manifest = store.manifest(id).expect("manifest");
        for file in &manifest.files {
            let container =
                std::fs::read(store.entry_dir(id).join(format!("{}{COMPRESSED_SUFFIX}", file.name)))
                    .expect("stored container");
            assert_eq!(container.len() as u64, file.compressed, "{}", file.name);
            assert!(
                file.compressed <= file.uncompressed + container_overhead(&container),
                "{} {}: {} stored vs {} raw",
                encoding.name(),
                file.name,
                file.compressed,
                file.uncompressed
            );
        }
        if encoding == Encoding::Raw {
            assert!(
                manifest.compressed_bytes() < manifest.uncompressed_bytes(),
                "{} stored vs {} raw",
                manifest.compressed_bytes(),
                manifest.uncompressed_bytes()
            );
        }

        // Fetched recording replays to the same fingerprint as the
        // original and as a load from the direct directory.
        let fetched = store.fetch(id).expect("fetch");
        let outcome =
            qr_replay::replay_and_verify(&program, &fetched).expect("replay fetched recording");
        assert_eq!(outcome.fingerprint, recording.fingerprint, "{}", encoding.name());
        let direct_loaded = Recording::load(&direct).expect("load direct");
        assert_eq!(direct_loaded.fingerprint, fetched.fingerprint, "{}", encoding.name());

        // And the materialized files are byte-identical to the direct
        // save: compression is invisible to everything downstream.
        let unpacked = dir.join(format!("unpacked-{}", encoding.name()));
        store.fetch_to_dir(id, &unpacked).expect("fetch_to_dir");
        for entry in std::fs::read_dir(&direct).expect("direct dir") {
            let entry = entry.expect("dir entry");
            let name = entry.file_name();
            let a = std::fs::read(entry.path()).expect("direct bytes");
            let b = std::fs::read(unpacked.join(&name)).expect("unpacked bytes");
            assert_eq!(a, b, "{}: {} differs after store round trip", encoding.name(), name.to_string_lossy());
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_store_entry_fails_strict_fetch_but_salvages_a_replayable_prefix() {
    let dir = scratch("torn");
    let (program, recording) = recorded_workload(2);

    let store = RecordingStore::open(&dir.join("store")).expect("open store");
    let id = store.put("fft", &recording, Encoding::Delta).expect("store put");

    // Tear the tail off the compressed chunk log, as a crash mid-write
    // would have (the manifest survives: it was committed atomically).
    let chunks_z = store.entry_dir(id).join(format!("chunks.qrl{COMPRESSED_SUFFIX}"));
    let bytes = std::fs::read(&chunks_z).expect("read compressed chunk log");
    std::fs::write(&chunks_z, &bytes[..bytes.len() - 9]).expect("tear compressed chunk log");

    // Strict fetch refuses with a structured error, never a panic.
    let err = store.fetch(id).expect_err("strict fetch must refuse a torn entry");
    assert!(
        matches!(err, qr_common::QrError::Corrupt { .. }),
        "structured Corrupt error, got: {err}"
    );

    // Salvage recovers a decodable prefix that replays consistently —
    // the same contract `quickrec replay --salvage` applies to torn
    // on-disk recordings.
    let (salvaged, info) = store.fetch_salvaged(id).expect("salvage fetch");
    assert!(!info.is_clean(), "salvage must report the loss");
    let report = qr_replay::salvage_replay(&program, &salvaged, &info);
    assert!(
        report.fingerprint.is_none() || report.fingerprint_consistent,
        "salvaged prefix must be internally consistent:\n{}",
        report.summary()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_puts_leave_staging_dirs_that_reopening_sweeps_away() {
    let dir = scratch("staging");
    let (_, recording) = recorded_workload(2);

    let root = dir.join("store");
    let store = RecordingStore::open(&root).expect("open store");
    let keep = store.put("keep", &recording, Encoding::Delta).expect("put keep");

    // Simulate a put interrupted mid-stage: a `.tmp-*` directory with
    // partial files and no committed `rec-*` entry. It is invisible to
    // list() and swept on the next open.
    let staging = root.join(".tmp-00000099");
    std::fs::create_dir_all(&staging).expect("staging dir");
    std::fs::write(staging.join("chunks.qrl.z"), b"partial").expect("partial file");
    let listed = store.list().expect("list with staging present");
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].id, keep);

    let reopened = RecordingStore::open(&root).expect("reopen store");
    assert!(!staging.exists(), "reopen must sweep interrupted staging dirs");
    reopened.fetch(keep).expect("committed entry survives the sweep");

    // A committed entry whose manifest is later destroyed violates the
    // commit protocol; list() surfaces that loudly instead of hiding it.
    let drop_id = reopened.put("drop", &recording, Encoding::Delta).expect("put drop");
    std::fs::remove_file(reopened.entry_dir(drop_id).join(MANIFEST_FILE)).expect("drop manifest");
    assert!(reopened.list().is_err(), "manifest loss must surface in list()");
    assert!(reopened.fetch(drop_id).is_err(), "and the damaged entry must not fetch");
    reopened.fetch(keep).expect("undamaged entries still fetch");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_verifies_of_one_entry_do_not_disturb_each_other() {
    // The daemon runs VERIFY follow-ups on pool workers, so one entry is
    // verified from several threads at once. Verification is in-memory:
    // there is no shared scratch path to race on, and nothing is ever
    // written into the entry.
    let dir = scratch("concurrent-verify");
    let (_, recording) = recorded_workload(2);
    let store = RecordingStore::open(&dir.join("store")).expect("open store");
    let id = store.put("fft", &recording, Encoding::Delta).expect("store put");
    let entry_files = || {
        let mut names: Vec<_> = std::fs::read_dir(store.entry_dir(id))
            .expect("entry dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = entry_files();

    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    let start = std::sync::Barrier::new(THREADS);
    let bad: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..ROUNDS)
                        .filter(|_| !store.verify(id).is_ok_and(|report| report.all_ok()))
                        .count()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("verify worker")).sum()
    });
    assert_eq!(bad, 0, "{bad} of {} concurrent verifies reported damage", THREADS * ROUNDS);
    assert_eq!(entry_files(), before, "verify wrote into the entry directory");
    assert!(!store.entry_dir(id).join(".verify").exists());

    std::fs::remove_dir_all(&dir).ok();
}

