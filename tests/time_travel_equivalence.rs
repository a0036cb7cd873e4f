//! Time-travel equivalence battery: every query answered through the
//! persisted checkpoint index must be byte-identical to the same slice
//! of a from-scratch serial replay — the index bounds seek latency,
//! never changes answers.
//!
//! Covers the full workload suite across every chunk-log encoding
//! round-trip, a seeded random sweep of seek targets (including the
//! boundary positions and out-of-range targets), and a SplitMix64
//! mutation sweep over the `checkpoints.qrc` bytes proving corrupt
//! indexes are structured errors that silently degrade to from-scratch
//! replay.

use qr_common::SplitMix64;
use quickrec::workloads::{find, suite, Scale};
use quickrec::{
    record, CheckpointIndex, Encoding, Program, QueryEngine, Recording, RecordingConfig,
    ReplayQuery, ThreadId,
};

const THREADS: usize = 3;

fn recorded(name: &str) -> (Program, Recording) {
    let spec = find(name).expect("suite workload");
    let program = (spec.build)(THREADS, Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(THREADS)).expect("records");
    (program, recording)
}

/// Round-trips a recording through its serialized parts, as it would
/// arrive from the store or over the wire.
fn reloaded(recording: &Recording, encoding: Encoding) -> Recording {
    Recording::from_parts(&recording.to_parts(encoding)).expect("parts decode")
}

/// The query mix exercised against every recording: chunk ranges,
/// thread slices, instruction windows, the pre-divergence tail, and
/// reverse steps, sized from the recording itself.
fn query_mix(recording: &Recording, timeline_len: u64) -> Vec<ReplayQuery> {
    let chunks = recording.chunks.len() as u64;
    vec![
        ReplayQuery::Range { start: 0, end: chunks.max(1) / 2 },
        ReplayQuery::Range { start: chunks / 3, end: chunks },
        ReplayQuery::Thread { tid: ThreadId(0) },
        ReplayQuery::Thread { tid: ThreadId(1) },
        ReplayQuery::Window { start: recording.instructions / 4, end: recording.instructions / 2 },
        ReplayQuery::BeforeDivergence { instructions: 64 },
        ReplayQuery::ReverseStep { events: 1 },
        ReplayQuery::ReverseStep { events: timeline_len / 2 },
    ]
}

#[test]
fn every_query_matches_scratch_replay_across_workloads_and_encodings() {
    for spec in suite() {
        let (program, original) = recorded(spec.name);
        for encoding in Encoding::ALL {
            let recording = reloaded(&original, encoding);
            let index = CheckpointIndex::build(&program, &recording, 16).expect("index builds");
            let persisted = index.to_bytes();

            let scratch = QueryEngine::new(&program, &recording).expect("engine");
            let mut indexed = QueryEngine::new(&program, &recording).expect("engine");
            assert!(
                indexed.attach_index_bytes(&persisted),
                "{}/{}: a freshly persisted index must attach",
                spec.name,
                encoding.name()
            );
            assert!(indexed.has_index() && !scratch.has_index());

            for query in query_mix(&recording, scratch.timeline_len() as u64) {
                let context = format!("{}/{}/{query}", spec.name, encoding.name());
                let from_scratch =
                    scratch.execute(query, None).unwrap_or_else(|e| panic!("{context}: {e}"));
                let from_index =
                    indexed.execute(query, None).unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_eq!(
                    from_index.to_bytes(),
                    from_scratch.to_bytes(),
                    "indexed answer diverged from the from-scratch answer: {context}"
                );
            }
        }
    }
}

#[test]
fn query_results_match_slices_of_a_full_serial_replay() {
    // Cross-check the engine against the slice computed by hand: step a
    // plain replayer to the span boundaries and diff its console and
    // instruction counters.
    let (program, recording) = recorded("lu");
    let index = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let mut engine = QueryEngine::new(&program, &recording).expect("engine");
    assert!(engine.attach_index_bytes(&index.to_bytes()));

    let at = |position: u64| {
        let mut r = qr_replay::Replayer::new(&program, &recording).unwrap();
        while (r.position() as u64) < position && r.step_timeline().unwrap() {}
        (r.console_so_far().to_vec(), r.instructions_so_far(), r.partial_fingerprint())
    };

    let len = engine.timeline_len() as u64;
    for query in query_mix(&recording, len) {
        let result = engine.execute(query, None).unwrap_or_else(|e| panic!("{query}: {e}"));
        let (console_start, instructions_start, _) = at(result.start);
        let (console_end, instructions_end, fingerprint_end) = at(result.end);
        assert_eq!(
            result.console,
            console_end[console_start.len()..].to_vec(),
            "{query}: console slice"
        );
        assert_eq!(
            result.instructions,
            instructions_end - instructions_start,
            "{query}: instruction delta"
        );
        assert_eq!(result.fingerprint, fingerprint_end, "{query}: end-of-span fingerprint");
    }
}

#[test]
fn seeded_seek_sweep_agrees_with_scratch_and_rejects_out_of_range() {
    let (program, recording) = recorded("lu");
    let index = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    let mut indexed = QueryEngine::new(&program, &recording).expect("engine");
    assert!(indexed.attach_index_bytes(&index.to_bytes()));

    let len = scratch.timeline_len();
    let mut rng = SplitMix64::new(0xC0FFEE_5EED);
    let mut targets = vec![0, len / 3, len - 1, len];
    targets.extend((0..24).map(|_| rng.below(len as u64 + 1) as usize));
    for target in targets {
        let a = indexed.seek(target).unwrap_or_else(|e| panic!("indexed seek {target}: {e}"));
        let b = scratch.seek(target).unwrap_or_else(|e| panic!("scratch seek {target}: {e}"));
        assert_eq!(a.position(), target, "seek lands exactly on the target");
        assert_eq!(a.position(), b.position());
        assert_eq!(a.partial_fingerprint(), b.partial_fingerprint(), "target {target}");
        assert_eq!(a.console_so_far(), b.console_so_far(), "target {target}");
        assert_eq!(a.instructions_so_far(), b.instructions_so_far(), "target {target}");
    }

    // Out-of-range targets are structured errors, not panics, on both
    // engines; so are queries over spans that do not exist.
    for bad in [len + 1, len + 1000, usize::MAX] {
        for engine in [&indexed, &scratch] {
            match engine.seek(bad) {
                Err(quickrec::QrError::InvalidConfig(msg)) => {
                    assert!(msg.contains("beyond"), "{msg}")
                }
                other => panic!("seek {bad}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
    assert!(matches!(
        indexed.execute(ReplayQuery::Thread { tid: ThreadId(200) }, None),
        Err(quickrec::QrError::InvalidConfig(_))
    ));
}

/// One deterministic mutation of `bytes`, chosen by `rng`: truncate,
/// flip one bit, or swap two bytes (a reorder). Retries until the
/// result actually differs (a swap can pick two equal bytes).
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    loop {
        let mut out = bytes.to_vec();
        match rng.below(3) {
            0 => {
                let keep = rng.below(out.len() as u64) as usize;
                out.truncate(keep);
            }
            1 => {
                let at = rng.below(out.len() as u64) as usize;
                out[at] ^= 1 << rng.below(8);
            }
            _ => {
                let a = rng.below(out.len() as u64) as usize;
                let b = rng.below(out.len() as u64) as usize;
                out.swap(a, b);
            }
        }
        if out != bytes {
            return out;
        }
    }
}

#[test]
fn mutated_indexes_are_structured_errors_and_degrade_to_scratch() {
    let (program, recording) = recorded("fft");
    let pristine = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let bytes = pristine.to_bytes();
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    let baseline = scratch
        .execute(ReplayQuery::ReverseStep { events: 3 }, None)
        .expect("baseline query")
        .to_bytes();

    let mut rejected = 0u64;
    let mut rng = SplitMix64::new(0xBAD_1DE5);
    let mut degraded = 0u64;
    for round in 0..48 {
        let mutated = mutate(&bytes, &mut rng);
        // Decoding damage is always a structured error, never a panic.
        match CheckpointIndex::from_bytes(&mutated) {
            Ok(_) => panic!("round {round}: a mutated index decoded cleanly"),
            Err(e @ (quickrec::QrError::Corrupt { .. } | quickrec::QrError::Unsupported(_))) => {
                let _ = e.to_string(); // error formatting is panic-free too
            }
            Err(other) => panic!("round {round}: unstructured error {other:?}"),
        }
        // Attaching the damaged sidecar silently degrades: the engine
        // reports no index and answers queries bit-for-bit like scratch.
        let mut engine = QueryEngine::new(&program, &recording).expect("engine");
        let attached = engine.attach_index_bytes(&mutated);
        rejected += u64::from(!attached);
        assert!(!attached, "round {round}: damaged index attached");
        assert!(!engine.has_index());
        degraded += 1;
        if round % 12 == 0 {
            let answer = engine
                .execute(ReplayQuery::ReverseStep { events: 3 }, None)
                .unwrap_or_else(|e| panic!("round {round}: degraded query failed: {e}"));
            assert_eq!(answer.to_bytes(), baseline, "round {round}");
        }
    }
    assert!(degraded >= 40, "the sweep must actually exercise mutations");

    // Damage the framing cannot see: the record the seek lands on has
    // one memory region's start and end swapped, and `to_bytes` stamps
    // fresh CRCs over it. The index decodes and attaches; only the
    // region check in the restore path can refuse the record, and the
    // seek must then replay from scratch to the same answer (an inverted
    // region used to overflow, or hash ~4 GiB, in the state fingerprint).
    let seek_target = scratch.timeline_len() - 3;
    let chosen = pristine.keys.iter().rposition(|k| k.position as usize <= seek_target)
        .expect("a checkpoint precedes the reverse-step target");
    let mut inverted = pristine.clone();
    inverted.snapshots[chosen] = invert_a_region(&pristine.snapshots[chosen]);
    let mut engine = QueryEngine::new(&program, &recording).expect("engine");
    assert!(engine.attach_index_bytes(&inverted.to_bytes()), "re-stamped index must attach");
    let answer = engine
        .execute(ReplayQuery::ReverseStep { events: 3 }, None)
        .expect("a refused record falls back to from-scratch replay");
    assert_eq!(answer.to_bytes(), baseline, "inverted-region record changed the answer");
    assert_eq!(engine.seek_stats().refused, 1, "the refused record was not counted");

    assert_eq!(rejected, degraded, "every rejected attach is reported");
}

/// A checkpoint is a keyframe or a delta on the one before it, so one
/// bad record takes out the rest of its chain and nothing else: a seek
/// whose chain walks through the record falls back to scratch (counted,
/// same answer), a seek served by the records before it or by another
/// keyframe never notices.
#[test]
fn damaged_chain_records_degrade_exactly_the_seeks_behind_them() {
    const CHAIN: usize = 8;
    let (program, recording) = recorded("lu");
    let pristine = CheckpointIndex::build(&program, &recording, 4).expect("index builds");
    assert!(pristine.keys.len() > 2 * CHAIN, "{} checkpoints", pristine.keys.len());
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    // A delta in the middle of the first chain, then the keyframe that
    // opens the second.
    for damaged in [3, CHAIN] {
        let bad = invert_a_region(&pristine.snapshots[damaged]);
        let mut index = pristine.clone();
        index.snapshots[damaged] = bad;
        let mut engine = QueryEngine::new(&program, &recording).expect("engine");
        assert!(engine.attach_index_bytes(&index.to_bytes()), "re-stamped index must attach");
        for (i, key) in pristine.keys.iter().enumerate() {
            let target = key.position as usize + 1;
            let before = engine.seek_stats().refused;
            let got = engine.seek(target).unwrap_or_else(|e| panic!("seek {target}: {e}"));
            let want = scratch.seek(target).expect("scratch seek");
            assert_eq!(got.position(), target);
            assert_eq!(got.partial_fingerprint(), want.partial_fingerprint(), "target {target}");
            assert_eq!(got.console_so_far(), want.console_so_far(), "target {target}");
            let walks_through = i / CHAIN == damaged / CHAIN && i >= damaged;
            assert_eq!(
                engine.seek_stats().refused - before,
                u64::from(walks_through),
                "record {damaged} damaged, seek served by checkpoint {i}"
            );
        }
    }
}

/// Returns `record` — one serialized checkpoint: the kind byte, the
/// count of mapped memory regions, then `(u32 start, u32 end)` for each
/// — with the start and end of its first region swapped.
fn invert_a_region(record: &[u8]) -> Vec<u8> {
    assert!((1..0x80).contains(&record[1]), "a nonzero one-byte region count");
    let mut bad = record.to_vec();
    bad[2..6].copy_from_slice(&record[6..10]);
    bad[6..10].copy_from_slice(&record[2..6]);
    bad
}
