//! The reference a checkpoint index is checked against: a plain
//! `Replayer::new` stepped with `step_timeline`, which no checkpoint
//! touches.

use quickrec::{CheckpointIndex, Program, QueryEngine, Recording, Replayer, ThreadId};

/// Seeks every checkpoint of `index` on an engine over (`program`,
/// `recording`) and asserts that the seeked replayer holds what a plain
/// replay stepped to the same position holds: position, partial
/// fingerprint, console, instruction / chunk / input counts (which the
/// checkpoint's key must also carry) and every live thread's registers.
/// Every seek must be served by its checkpoint chain (record `i`
/// applies its keyframe through itself), none by a silent fallback to
/// replay from scratch. `then` gets each seeked replayer, by checkpoint
/// number, to run on.
pub fn seek_every_checkpoint<'a>(
    program: &'a Program,
    recording: &'a Recording,
    index: &CheckpointIndex,
    mut then: impl FnMut(usize, Replayer<'a>),
) {
    let mut engine = QueryEngine::new(program, recording).unwrap();
    engine.attach_index(index.clone()).unwrap();
    let mut plain = Replayer::new(program, recording).unwrap();
    let mut applied = 0;
    for (i, key) in index.keys.iter().enumerate() {
        while plain.position() < key.position as usize {
            assert!(plain.step_timeline().unwrap(), "checkpoint {i} beyond the timeline");
        }
        let seeked = engine.seek(plain.position()).unwrap();
        assert_eq!(seeked.position(), plain.position(), "checkpoint {i}: position");
        assert_eq!(seeked.partial_fingerprint(), plain.partial_fingerprint(), "checkpoint {i}: state");
        assert_eq!(seeked.console_so_far(), plain.console_so_far(), "checkpoint {i}: console");
        let counts = |rp: &Replayer<'_>| {
            [rp.instructions_so_far(), rp.chunks_replayed_so_far() as u64, rp.inputs_injected_so_far() as u64]
        };
        assert_eq!(counts(&seeked), counts(&plain), "checkpoint {i}: counts");
        assert_eq!(
            [key.instructions, key.chunks_replayed, key.inputs_injected],
            counts(&plain),
            "checkpoint {i}: key"
        );
        for tid in (0..key.thread_icounts.len() as u32).map(ThreadId) {
            assert_eq!(seeked.thread_registers(tid), plain.thread_registers(tid), "checkpoint {i}: {tid}");
        }
        applied += i as u64 % 8 + 1;
        then(i, seeked);
    }
    let stats = engine.seek_stats();
    assert_eq!((stats.from_scratch, stats.refused), (0, 0), "a seek fell back to scratch");
    assert_eq!(stats.from_index(), index.keys.len() as u64, "restored seeks");
    let records: u64 = (1..).zip(stats.restored).map(|(records, seeks)| records * seeks).sum();
    assert_eq!(records, applied, "records applied");
}
