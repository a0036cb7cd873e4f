//! Replay checkpointing through the persisted index: a seek to any
//! checkpoint must hold exactly the state a plain replay stepped to the
//! same position holds, and resuming from it must reach the same outcome
//! as a from-scratch replay — checkpoints only bound latency, never
//! change semantics.

#[path = "support/seek.rs"]
mod seek;

use quickrec::{record, CheckpointIndex, QrError, QueryEngine, RecordingConfig, Replayer};
use seek::seek_every_checkpoint;

fn recorded() -> (quickrec::Program, quickrec::Recording) {
    recorded_workload("lu")
}

fn recorded_workload(name: &str) -> (quickrec::Program, quickrec::Recording) {
    let spec = quickrec::workloads::find(name).expect("suite workload");
    let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(3)).expect("records");
    (program, recording)
}

#[test]
fn chain_restored_replayers_equal_a_stepped_plain_replay() {
    // A persisted checkpoint is a keyframe (every 8th) or a delta on the
    // one before it, and restoring it walks the chain from the keyframe.
    // Wherever in a chain it sits, the replayer it yields is the plain
    // replay at that position: same state there, same outcome at the end.
    for name in ["lu", "fft", "radix"] {
        let (program, recording) = recorded_workload(name);
        let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
        let index = CheckpointIndex::build(&program, &recording, 4).unwrap();
        // Records 7 | 8 and 15 | 16 straddle keyframes.
        assert!(index.keys.len() > 17, "{name}: only {} checkpoints", index.keys.len());
        assert_eq!(index, CheckpointIndex::from_bytes(&index.to_bytes()).unwrap());
        seek_every_checkpoint(&program, &recording, &index, |i, restored| {
            let outcome = restored.run().unwrap_or_else(|e| panic!("{name}: run on from {i}: {e}"));
            assert_eq!(outcome, plain, "{name}: outcome from checkpoint {i}");
        });
    }
}

#[test]
fn checkpointed_run_matches_plain_replay() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    // Building the index replays the recording and verifies the outcome,
    // so collecting checkpoints does not perturb the replay.
    let index = CheckpointIndex::build(&program, &recording, 25).unwrap();
    assert!(!index.keys.is_empty(), "a multi-chunk recording yields checkpoints");
    // Positions are every positive multiple of the interval short of the
    // end, in order.
    let positions: Vec<u64> = index.keys.iter().map(|k| k.position).collect();
    let multiples: Vec<u64> = (1..).map(|i| i * 25).take_while(|&p| p < index.timeline_len).collect();
    assert_eq!(positions, multiples);
    let mut engine = QueryEngine::new(&program, &recording).unwrap();
    engine.attach_index(index.clone()).unwrap();
    let last = *positions.last().unwrap() as usize;
    assert_eq!(engine.seek(last).unwrap().run().unwrap(), plain);
}

#[test]
fn resuming_from_every_checkpoint_reaches_the_same_outcome() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let index = CheckpointIndex::build(&program, &recording, 40).unwrap();
    assert!(index.keys.len() >= 2, "want several checkpoints to resume from");
    seek_every_checkpoint(&program, &recording, &index, |i, resumed| {
        let resumed = resumed.run().unwrap_or_else(|e| panic!("resume from checkpoint {i}: {e}"));
        assert_eq!(resumed.fingerprint, plain.fingerprint, "checkpoint {i}");
        assert_eq!(resumed.exit_code, plain.exit_code);
        assert_eq!(resumed.instructions, plain.instructions, "instruction totals include the prefix");
        resumed.verify_against(&recording).unwrap();
    });
}

#[test]
fn checkpoints_are_reusable() {
    // The same checkpoint can seed multiple independent resumes (e.g. a
    // debugger stepping forward repeatedly from one snapshot).
    let (program, recording) = recorded();
    let index = CheckpointIndex::build(&program, &recording, 50).unwrap();
    let first = index.keys.first().expect("at least one checkpoint").position as usize;
    let mut engine = QueryEngine::new(&program, &recording).unwrap();
    engine.attach_index(index).unwrap();
    let a = engine.seek(first).unwrap().run().unwrap();
    let b = engine.seek(first).unwrap().run().unwrap();
    assert_eq!(a, b);
    assert_eq!(engine.seek_stats().restored[0], 2, "both seeks restored the checkpoint");
}

#[test]
fn foreign_checkpoints_are_rejected() {
    let (program, recording) = recorded();
    let index = CheckpointIndex::build(&program, &recording, 50).unwrap();
    assert!(!index.keys.is_empty(), "checkpoint");
    // A different program/recording pair must refuse the index.
    let spec = quickrec::workloads::find("fft").unwrap();
    let other_program = (spec.build)(3, quickrec::workloads::Scale::Test).unwrap();
    let other_recording = record(other_program.clone(), RecordingConfig::with_cores(3)).unwrap();
    let mut engine = QueryEngine::new(&other_program, &other_recording).unwrap();
    assert!(engine.attach_index(index.clone()).is_err());
    assert!(!engine.attach_index_bytes(&index.to_bytes()));
    assert!(!engine.has_index());
}

#[test]
fn zero_interval_is_rejected() {
    let (program, recording) = recorded();
    assert!(matches!(CheckpointIndex::build(&program, &recording, 0), Err(QrError::InvalidConfig(_))));
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
