//! Replay checkpointing: resuming from any checkpoint must reach exactly
//! the same outcome as a from-scratch replay — checkpoints only bound
//! latency, never change semantics.

use quickrec::{record, CheckpointIndex, QueryEngine, RecordingConfig};
use qr_replay::Replayer;

fn recorded() -> (quickrec::Program, quickrec::Recording) {
    recorded_workload("lu")
}

fn recorded_workload(name: &str) -> (quickrec::Program, quickrec::Recording) {
    let spec = quickrec::workloads::find(name).expect("suite workload");
    let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(3)).expect("records");
    (program, recording)
}

/// `_count` and `_sum` of the records-applied-per-restored-seek
/// histogram.
fn restore_records() -> (f64, f64) {
    let snapshot = qr_obs::global().snapshot();
    let value = |name: &str| snapshot.iter().find(|(n, _, _)| n == name).map_or(0.0, |s| s.2);
    (value("qr_replay_seek_restore_records_count"), value("qr_replay_seek_restore_records_sum"))
}

#[test]
fn chain_restored_replayers_equal_the_in_memory_checkpoints() {
    // A persisted checkpoint is a keyframe (every 8th) or a delta on the
    // one before it, and restoring it walks the chain from the keyframe.
    // Wherever in a chain it sits, the replayer it yields is the one the
    // in-memory checkpoint at that position resumes: same state there,
    // same outcome at the end. No other test of this binary seeks, so
    // the histogram deltas below are this test's alone.
    let was_enabled = qr_obs::enabled();
    qr_obs::set_enabled(true);
    for name in ["lu", "fft", "radix"] {
        let (program, recording) = recorded_workload(name);
        let (plain, checkpoints) =
            Replayer::new(&program, &recording).unwrap().run_with_checkpoints(4).unwrap();
        // Records 7 | 8 and 15 | 16 straddle keyframes.
        assert!(checkpoints.len() > 17, "{name}: only {} checkpoints", checkpoints.len());
        let index = CheckpointIndex::build(&program, &recording, 4).unwrap();
        assert_eq!(index, CheckpointIndex::from_bytes(&index.to_bytes()).unwrap());
        let mut engine = QueryEngine::new(&program, &recording).unwrap();
        engine.attach_index(index.clone()).unwrap();

        let (count_before, sum_before) = restore_records();
        let mut applied = 0;
        for (i, cp) in checkpoints.into_iter().enumerate() {
            assert_eq!(index.keys[i].position as usize, cp.position(), "{name}: checkpoint {i}");
            let restored = engine.seek(cp.position()).unwrap();
            let resumed = Replayer::resume(&program, &recording, cp).unwrap();
            assert_eq!(restored.position(), resumed.position(), "{name}: checkpoint {i}");
            assert_eq!(
                restored.partial_fingerprint(),
                resumed.partial_fingerprint(),
                "{name}: state at checkpoint {i}"
            );
            assert_eq!(restored.console_so_far(), resumed.console_so_far());
            assert_eq!(restored.instructions_so_far(), resumed.instructions_so_far());
            let outcome = restored.run().unwrap_or_else(|e| panic!("{name}: run on from {i}: {e}"));
            assert_eq!(outcome, resumed.run().unwrap(), "{name}: outcome from checkpoint {i}");
            assert_eq!(outcome, plain, "{name}: outcome from checkpoint {i}");
            applied += i % 8 + 1;
        }
        // Every seek was served by its chain, none by a silent fallback
        // to scratch: record i applies the keyframe through itself.
        let (count, sum) = restore_records();
        assert_eq!(count - count_before, index.keys.len() as f64, "{name}: restored seeks");
        assert_eq!(sum - sum_before, applied as f64, "{name}: records applied");
    }
    qr_obs::set_enabled(was_enabled);
}

#[test]
fn checkpointed_run_matches_plain_replay() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let (with_cp, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(25)
        .unwrap();
    assert_eq!(with_cp, plain, "checkpoint collection must not perturb replay");
    assert!(!checkpoints.is_empty(), "a multi-chunk recording yields checkpoints");
    // Positions are strictly increasing multiples of the interval.
    for (i, cp) in checkpoints.iter().enumerate() {
        assert_eq!(cp.position(), (i + 1) * 25);
    }
}

#[test]
fn resuming_from_every_checkpoint_reaches_the_same_outcome() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(40)
        .unwrap();
    assert!(checkpoints.len() >= 2, "want several checkpoints to resume from");
    for (i, cp) in checkpoints.into_iter().enumerate() {
        let resumed = Replayer::resume(&program, &recording, cp)
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("resume from checkpoint {i}: {e}"));
        assert_eq!(resumed.fingerprint, plain.fingerprint, "checkpoint {i}");
        assert_eq!(resumed.exit_code, plain.exit_code);
        assert_eq!(resumed.instructions, plain.instructions, "instruction totals include the prefix");
        resumed.verify_against(&recording).unwrap();
    }
}

#[test]
fn checkpoints_are_reusable() {
    // The same checkpoint can seed multiple independent resumes (e.g. a
    // debugger stepping forward repeatedly from one snapshot).
    let (program, recording) = recorded();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(50)
        .unwrap();
    let cp = checkpoints.into_iter().next().expect("at least one checkpoint");
    let a = Replayer::resume(&program, &recording, cp.clone()).unwrap().run().unwrap();
    let b = Replayer::resume(&program, &recording, cp).unwrap().run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn foreign_checkpoints_are_rejected() {
    let (program, recording) = recorded();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(50)
        .unwrap();
    let cp = checkpoints.into_iter().next().expect("checkpoint");
    // A different program/recording pair must refuse the checkpoint.
    let spec = quickrec::workloads::find("fft").unwrap();
    let other_program = (spec.build)(3, quickrec::workloads::Scale::Test).unwrap();
    let other_recording = record(other_program.clone(), RecordingConfig::with_cores(3)).unwrap();
    assert!(Replayer::resume(&other_program, &other_recording, cp).is_err());
}

#[test]
fn zero_interval_is_rejected_and_race_detection_excluded() {
    let (program, recording) = recorded();
    assert!(Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(0)
        .is_err());
    let mut replayer = Replayer::new(&program, &recording).unwrap();
    replayer.enable_race_detection();
    assert!(replayer.run_with_checkpoints(10).is_err());
}

#[test]
fn step_timeline_inspection_matches_full_replay() {
    let (program, recording) = recorded();
    let full = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let mut stepper = Replayer::new(&program, &recording).unwrap();
    assert_eq!(stepper.position(), 0);
    let total = stepper.timeline_len();
    assert!(total > 0);
    let mut steps = 0;
    while stepper.step_timeline().unwrap() {
        steps += 1;
        assert_eq!(stepper.position(), steps);
    }
    assert_eq!(steps, total);
    assert!(!stepper.step_timeline().unwrap(), "exhausted timeline stays exhausted");
    assert_eq!(stepper.console_so_far(), full.console.as_slice());
}

#[test]
fn mid_timeline_inspection_is_deterministic() {
    let (program, recording) = recorded();
    let mat = program.symbol("mat").expect("lu matrix symbol");
    let probe = |position: usize| {
        let mut r = Replayer::new(&program, &recording).unwrap();
        while r.position() < position && r.step_timeline().unwrap() {}
        r.inspect_memory(mat, 64).unwrap()
    };
    let total = Replayer::new(&program, &recording).unwrap().timeline_len();
    for pos in [1, total / 3, total / 2, total - 1] {
        assert_eq!(probe(pos), probe(pos), "inspection at {pos} must be stable");
    }
    // State actually evolves along the timeline.
    assert_ne!(probe(1), probe(total - 1));
}

#[test]
fn thread_registers_visible_only_while_alive() {
    let (program, recording) = recorded();
    let mut r = Replayer::new(&program, &recording).unwrap();
    assert!(r.thread_registers(quickrec::ThreadId(0)).is_some(), "main exists at start");
    assert!(r.thread_registers(quickrec::ThreadId(1)).is_none(), "worker not yet spawned");
    while r.step_timeline().unwrap() {}
    assert!(r.thread_registers(quickrec::ThreadId(0)).is_none(), "all exited at the end");
}
