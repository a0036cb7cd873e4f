//! Logs survive serialization: a recording written to bytes (chunk log +
//! input log) and read back must still replay exactly — the property a
//! real deployment relies on when logs are stored for later debugging.

use quickrec::{record, replay_and_verify, ChunkLog, Encoding, InputLog, RecordingConfig};

fn recorded() -> (quickrec::Program, quickrec::Recording) {
    let spec = quickrec::workloads::find("water").expect("water exists");
    let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(2)).expect("records");
    (program, recording)
}

#[test]
fn chunk_log_round_trips_in_every_encoding() {
    let (_, recording) = recorded();
    for encoding in Encoding::ALL {
        let bytes = recording.chunks.to_bytes(encoding);
        let decoded = ChunkLog::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, recording.chunks, "{encoding:?}");
    }
}

#[test]
fn input_log_round_trips() {
    let (_, recording) = recorded();
    let bytes = recording.inputs.to_bytes();
    let decoded = InputLog::from_bytes(&bytes).expect("decodes");
    assert_eq!(decoded, recording.inputs);
}

#[test]
fn replay_from_deserialized_logs_is_still_exact() {
    let (program, recording) = recorded();
    // Simulate storing the logs and loading them later.
    let chunk_bytes = recording.chunks.to_bytes(Encoding::Delta);
    let input_bytes = recording.inputs.to_bytes();
    let mut reloaded = recording.clone();
    reloaded.chunks = ChunkLog::from_bytes(&chunk_bytes).expect("chunks decode");
    reloaded.inputs = InputLog::from_bytes(&input_bytes).expect("inputs decode");
    let outcome = replay_and_verify(&program, &reloaded).expect("replays from stored logs");
    assert_eq!(outcome.exit_code, recording.exit_code);
}

#[test]
fn log_files_round_trip_through_disk() {
    let (program, recording) = recorded();
    let dir = std::env::temp_dir().join(format!("quickrec-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let chunk_path = dir.join("chunks.qrl");
    let input_path = dir.join("inputs.qrl");
    std::fs::write(&chunk_path, recording.chunks.to_bytes(Encoding::Packed)).expect("write");
    std::fs::write(&input_path, recording.inputs.to_bytes()).expect("write");

    let mut reloaded = recording.clone();
    reloaded.chunks =
        ChunkLog::from_bytes(&std::fs::read(&chunk_path).expect("read")).expect("decode");
    reloaded.inputs =
        InputLog::from_bytes(&std::fs::read(&input_path).expect("read")).expect("decode");
    replay_and_verify(&program, &reloaded).expect("replays from disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recording_save_load_round_trips_and_replays() {
    let (program, recording) = recorded();
    let dir = std::env::temp_dir().join(format!("quickrec-saveload-{}", std::process::id()));
    recording.save(&dir, Encoding::Delta).expect("saves");
    let loaded = quickrec::Recording::load(&dir).expect("loads");
    assert_eq!(loaded.chunks, recording.chunks);
    assert_eq!(loaded.inputs, recording.inputs);
    assert_eq!(loaded.meta, recording.meta);
    assert_eq!(loaded.fingerprint, recording.fingerprint);
    assert_eq!(loaded.console, recording.console);
    replay_and_verify(&program, &loaded).expect("replays from saved recording");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loading_garbage_meta_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("quickrec-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(quickrec::Recording::META_FILE), b"not a recording").unwrap();
    std::fs::write(dir.join(quickrec::Recording::CHUNKS_FILE), b"").unwrap();
    std::fs::write(dir.join(quickrec::Recording::INPUTS_FILE), b"").unwrap();
    assert!(quickrec::Recording::load(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_stored_logs_are_rejected_not_misreplayed() {
    let (program, recording) = recorded();
    let mut bytes = recording.chunks.to_bytes(Encoding::Delta);
    // Flip a byte somewhere in the packet payload region.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    match ChunkLog::from_bytes(&bytes) {
        Err(_) => {} // decode refused: fine
        Ok(decoded) => {
            // Decoded into *something*: replay must then detect the
            // divergence rather than silently produce a different run.
            let mut reloaded = recording.clone();
            reloaded.chunks = decoded;
            assert!(
                replay_and_verify(&program, &reloaded).is_err(),
                "corrupt log must not verify"
            );
        }
    }
}

#[test]
fn an_unreadable_optional_file_fails_load_verify_and_migrate_naming_it() {
    use quickrec::Recording;
    let (_, recording) = recorded();
    for name in [Recording::FORMAT_FILE, Recording::ORDER_FILE, Recording::CHECKPOINTS_FILE] {
        let dir = std::env::temp_dir()
            .join(format!("quickrec-unreadable-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        recording.save(&dir, Encoding::Delta).expect("saves");
        // The file exists but cannot be read: a directory in its place.
        // Only a file that does not exist is an absent optional one.
        std::fs::remove_file(dir.join(name)).ok();
        std::fs::create_dir(dir.join(name)).unwrap();

        let err = Recording::load(&dir).expect_err("load must not take the file as absent");
        assert!(err.to_string().contains(name), "{name}: load: {err}");
        let report = Recording::verify_dir(&dir);
        assert!(!report.all_ok(), "{name}: verify passed");
        let listed = report.files.iter().find(|f| f.name == name);
        assert!(listed.is_some_and(|f| f.error.is_some()), "{name}: {:?}", report.files);
        let err = quickrec::migrate::migrate(&dir).expect_err("migrate must refuse");
        assert!(err.to_string().contains(name), "{name}: migrate: {err}");
        assert!(dir.join(name).is_dir(), "{name}: refused migrate rewrote the directory");
        std::fs::remove_dir_all(&dir).ok();
    }
}
