//! Parallel replay must be indistinguishable from serial replay.
//!
//! The parallel replayer relaxes the recorded total order to a
//! conflict-dependency DAG, so its one correctness obligation is
//! producing the exact architectural outcome the serial replayer
//! produces: same memory image and exit codes (both folded into the
//! fingerprint), same console bytes, same replayed-event counts. This
//! battery checks that for every suite workload, across every chunk-log
//! encoding round-trip and several worker counts.

use quickrec::workloads::{suite, Scale};
use quickrec::{
    record, replay, ChunkLog, Encoding, ParallelReplayer, RecordingConfig, ReplayOutcome, Replayer,
};

/// Simulated makespans (`outcome.cycles`) at 1, 2 and 4 jobs of each
/// suite workload (3 threads, Test scale, 4 cores) on the modelled memory
/// path ([`ParallelReplayer::modelled`], E9b's "parallel cycles"). They
/// moved once, when the schedule began executing on the serial replayer's
/// one machine instead of per-thread lane machines: a lane received the
/// lines other threads wrote by a copy beneath its own L1, so such a line
/// stayed a hit, and the lanes' makespans undercounted the coherence
/// misses serial replay pays (cholesky's one-job makespan was 15 520
/// against 26 464 serial cycles). One worker now executes exactly what
/// serial replay executes, so the first column equals [`SERIAL_CYCLES`].
const MAKESPANS: [(&str, [u64; 3]); 11] = [
    ("fft", [14540, 14492, 14492]),
    ("lu", [23547, 22793, 22793]),
    ("radix", [101302, 100062, 100062]),
    ("ocean", [26700, 21933, 21933]),
    ("barnes", [22596, 21760, 21760]),
    ("water", [20014, 19744, 19744]),
    ("fmm", [9997, 9934, 9934]),
    ("raytrace", [17558, 16526, 16526]),
    ("cholesky", [26464, 24501, 24501]),
    ("volrend", [103234, 82378, 82378]),
    ("radiosity", [10659, 10535, 10535]),
];

/// Serial replay cycles of the same recordings on the modelled path
/// ([`Replayer::modelled`], E9's "replay cycles" and E9b's "serial
/// cycles"), as every replay computed them before replay became
/// functional.
const SERIAL_CYCLES: [(&str, u64); 11] = [
    ("fft", 14540),
    ("lu", 23547),
    ("radix", 101302),
    ("ocean", 26700),
    ("barnes", 22596),
    ("water", 20014),
    ("fmm", 9997),
    ("raytrace", 17558),
    ("cholesky", 26464),
    ("volrend", 103234),
    ("radiosity", 10659),
];

/// Asserts the parallel outcome matches serial byte for byte (cycles are
/// exempt: parallel reports a simulated makespan, not a serialization).
fn assert_equivalent(parallel: &ReplayOutcome, serial: &ReplayOutcome, context: &str) {
    assert_eq!(parallel.fingerprint, serial.fingerprint, "fingerprint diverged: {context}");
    assert_eq!(parallel.console, serial.console, "console diverged: {context}");
    assert_eq!(parallel.exit_code, serial.exit_code, "exit code diverged: {context}");
    assert_eq!(parallel.instructions, serial.instructions, "instructions diverged: {context}");
    assert_eq!(parallel.chunks_replayed, serial.chunks_replayed, "chunk count diverged: {context}");
    assert_eq!(parallel.inputs_injected, serial.inputs_injected, "input count diverged: {context}");
}

#[test]
fn every_workload_encoding_and_job_count_matches_serial() {
    for spec in suite() {
        let program = (spec.build)(3, Scale::Test).expect("workload builds");
        let recording =
            record(program.clone(), RecordingConfig::with_cores(4)).expect("workload records");
        let serial = replay(&program, &recording).expect("serial replay");
        let modelled = Replayer::modelled(&program, &recording)
            .and_then(Replayer::run)
            .expect("modelled replay");
        assert_equivalent(&modelled, &serial, &format!("{} modelled serial", spec.name));
        let pinned_serial =
            SERIAL_CYCLES.iter().find(|(name, _)| *name == spec.name).expect("pinned").1;
        assert_eq!(modelled.cycles, pinned_serial, "{}: modelled serial cycles moved", spec.name);
        let pinned = MAKESPANS.iter().find(|(name, _)| *name == spec.name).expect("pinned").1;
        assert!(pinned[0] >= pinned[1] && pinned[1] >= pinned[2], "{}: {pinned:?}", spec.name);
        for encoding in Encoding::ALL {
            // Round-trip the chunk log through this encoding, as a
            // stored recording would arrive from disk.
            let bytes = recording.chunks.to_bytes(encoding);
            let mut reloaded = recording.clone();
            reloaded.chunks = ChunkLog::from_bytes(&bytes).expect("chunk log decodes");
            for (jobs, makespan) in [1usize, 2, 4].into_iter().zip(pinned) {
                let context = format!("{} / {encoding:?} / {jobs} jobs", spec.name);
                // The Delta pass runs the modelled schedule whose
                // makespans are pinned; the others run functional ones.
                let replayer = if encoding == Encoding::Delta {
                    ParallelReplayer::modelled(&program, &reloaded, jobs)
                } else {
                    ParallelReplayer::new(&program, &reloaded, jobs)
                }
                .unwrap_or_else(|e| panic!("a fresh recording must schedule: {context}: {e}"));
                let outcome = replayer.run().unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_equivalent(&outcome, &serial, &context);
                if encoding == Encoding::Delta {
                    if jobs == 1 {
                        // The model checks itself: one worker executes
                        // the serial replay's events on its machine.
                        assert_eq!(outcome.cycles, modelled.cycles, "one-job makespan != serial: {context}");
                    }
                    assert_eq!(outcome.cycles, makespan, "makespan moved: {context}");
                }
                outcome.verify_against(&recording).expect("verifies against the recording");
            }
        }
    }
}

#[test]
fn rsw_mode_suite_recordings_match_serial_in_parallel() {
    // Reordered-store-window recordings leave stores in flight across
    // chunk boundaries; each thread's core owns its store buffer, so the
    // drains must land identically. One pass over the suite at 4 jobs.
    for spec in suite() {
        let program = (spec.build)(3, Scale::Test).expect("workload builds");
        let mut cfg = RecordingConfig::with_cores(4);
        cfg.cpu.mem.tso_mode = quickrec::TsoMode::Rsw;
        cfg.cpu.drain_interval = 12;
        let recording = record(program.clone(), cfg).expect("workload records");
        let serial = replay(&program, &recording).expect("serial replay");
        let parallel = quickrec::replay_parallel_and_verify(&program, &recording, 4)
            .unwrap_or_else(|e| panic!("{} (rsw): {e}", spec.name));
        assert_equivalent(&parallel, &serial, &format!("{} (rsw)", spec.name));
    }
}
