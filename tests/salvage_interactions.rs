//! Interplay of crash salvage with checkpointed and parallel replay: a
//! recording that survives salvage is a first-class recording, so every
//! replay mode built on top of the serial replayer must work on it —
//! checkpoint index build, seek and resume, and the parallel
//! conflict-dependency scheduler (which, like on any recording read
//! back from disk, has no footprints to schedule by and *refuses* it by
//! name unless the recorder's in-memory footprints are at hand).

#[path = "support/seek.rs"]
mod seek;

use qr_replay::{salvage_replay_dir, CheckpointIndex, ParallelReplayer, QueryEngine, ReplayQuery};
use quickrec::workloads::{find, Scale};
use quickrec::{record, Encoding, Program, QrError, Recording, RecordingConfig, RecordingParts};

fn recorded() -> (Program, Recording) {
    let spec = find("lu").expect("lu exists");
    let program = (spec.build)(3, Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(3)).expect("records");
    (program, recording)
}

fn saved(recording: &Recording, tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("quickrec-interplay-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    recording.save(&dir, Encoding::Delta).unwrap();
    dir
}

/// Asserts that the conflict schedule refuses `recording`, which has no
/// footprints, naming what it lacks.
fn assert_refused(program: &Program, recording: &Recording, what: &str) {
    match ParallelReplayer::new(program, recording, 4) {
        Err(QrError::InvalidConfig(why)) => {
            assert!(why.contains("needs the footprints of a fresh recording"), "{what}: {why}");
        }
        other => panic!("{what}: expected a refusal naming the footprints, got {:?}", other.map(drop)),
    }
}

/// Appends garbage to the chunk log, as a crash mid-append would leave
/// it: the framed prefix — here the *whole* timeline — survives, the
/// trailing bytes are detected and dropped.
fn append_garbage(dir: &std::path::Path) {
    let path = dir.join(Recording::CHUNKS_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xFF; 7]);
    std::fs::write(&path, &bytes).unwrap();
}

#[test]
fn a_salvage_survivor_supports_checkpointed_resume() {
    let (program, recording) = recorded();
    let dir = saved(&recording, "checkpoint");
    append_garbage(&dir);

    // Salvage confirms the damage cost only the garbage bytes.
    let report = salvage_replay_dir(&program, &dir).unwrap();
    assert!(report.chunk_corruption.is_some(), "{}", report.summary());
    assert!(report.chunk_bytes_dropped > 0);
    assert!(report.prefix_ok(), "{}", report.summary());
    assert_eq!(report.events_replayed, report.timeline_len, "full timeline survived");

    // The survivor then builds an index and resumes from every key like
    // any recording.
    let (salvaged, recovery) = Recording::load_salvaged(&dir).unwrap();
    assert!(!recovery.is_clean());
    let outcome = qr_replay::replay(&program, &salvaged).unwrap();
    assert_eq!(Some(outcome.fingerprint), report.fingerprint);
    assert_eq!(outcome.console, report.console);
    let index = CheckpointIndex::build(&program, &salvaged, 25).unwrap();
    assert!(!index.keys.is_empty(), "multi-chunk survivor yields checkpoints");
    seek::seek_every_checkpoint(&program, &salvaged, &index, |i, resumed| {
        let resumed = resumed.run().unwrap_or_else(|e| panic!("resume from checkpoint {i}: {e}"));
        assert_eq!(resumed.fingerprint, outcome.fingerprint, "checkpoint {i}");
        resumed.verify_against(&salvaged).unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_salvage_survivor_keeps_its_seek_index_and_a_torn_one_degrades() {
    let (program, recording) = recorded();
    let index = CheckpointIndex::build(&program, &recording, 8).unwrap();
    let dir = saved(&recording, "timetravel");
    std::fs::write(dir.join(Recording::CHECKPOINTS_FILE), index.to_bytes()).unwrap();
    append_garbage(&dir);

    // The tear cost only the appended garbage, so the survivor still
    // carries the recorded fingerprint and the persisted index binds.
    let (salvaged, recovery) = Recording::load_salvaged(&dir).unwrap();
    assert!(!recovery.is_clean());
    let sidecar = RecordingParts::read(&dir).unwrap().checkpoints.expect("sidecar survives");
    let scratch = QueryEngine::new(&program, &salvaged).unwrap();
    let mut engine = QueryEngine::new(&program, &salvaged).unwrap();
    assert!(engine.attach_index_bytes(&sidecar), "survivor keeps its seek index");
    let query = ReplayQuery::ReverseStep { events: 4 };
    let indexed = engine.execute(query, None).unwrap();
    assert_eq!(
        indexed.to_bytes(),
        scratch.execute(query, None).unwrap().to_bytes(),
        "indexed query over a salvage survivor matches scratch bit for bit"
    );

    // A tear through the sidecar itself must not take queries down:
    // attach refuses, the engine silently answers from scratch.
    let mut degraded = QueryEngine::new(&program, &salvaged).unwrap();
    assert!(!degraded.attach_index_bytes(&sidecar[..sidecar.len() / 2]));
    assert!(!degraded.has_index());
    assert_eq!(degraded.execute(query, None).unwrap().to_bytes(), indexed.to_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_salvage_survivor_replays_in_parallel_when_footprints_survive() {
    let (program, recording) = recorded();
    assert!(recording.footprints.is_some(), "a fresh recording keeps its footprints");
    let dir = saved(&recording, "parallel");
    append_garbage(&dir);
    let (mut salvaged, recovery) = Recording::load_salvaged(&dir).unwrap();
    assert!(recovery.chunks.corruption.is_some());
    let serial = qr_replay::replay_and_verify(&program, &salvaged).unwrap();

    // Footprints are record-time evidence: nothing on disk carries them,
    // so the conflict schedule refuses the survivor alone by name.
    assert!(salvaged.footprints.is_none(), "a salvaged recording carries no footprints");
    assert_refused(&program, &salvaged, "salvaged");

    // Where the recorder's in-memory footprints survive alongside it,
    // the conflict-dependency scheduler accepts the survivor outright.
    salvaged.footprints = recording.footprints.clone();
    let parallel = ParallelReplayer::new(&program, &salvaged, 4).unwrap().run().unwrap();
    assert_eq!(parallel.fingerprint, serial.fingerprint);
    assert_eq!(parallel.console, serial.console);
    assert_eq!(parallel.exit_code, serial.exit_code);
    assert_eq!(parallel.instructions, serial.instructions);
    parallel.verify_against(&salvaged).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_footprint_sidecar_is_refused_by_the_conflict_schedule() {
    let (program, recording) = recorded();
    let dir = saved(&recording, "torn");
    // A directory written while footprints were persisted may carry a
    // torn `footprints.qrl`: here the kept fixture's sidecar, cut in
    // half. Readers skip it, so chunk and input logs load clean and the
    // recording carries no footprints to schedule by.
    let kept = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/footprint-sidecar/v3-hello-raw/footprints.qrl");
    let bytes = std::fs::read(kept).unwrap();
    std::fs::write(dir.join("footprints.qrl"), &bytes[..bytes.len() / 2]).unwrap();

    let loaded = Recording::load(&dir).unwrap();
    let (salvaged, recovery) = Recording::load_salvaged(&dir).unwrap();
    assert!(recovery.is_clean(), "chunk and input logs are untouched");
    for (what, rec) in [("loaded", &loaded), ("salvaged", &salvaged)] {
        assert!(rec.footprints.is_none(), "{what} recording carries footprints");
        assert_refused(&program, rec, what);
        qr_replay::replay_and_verify(&program, rec).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
