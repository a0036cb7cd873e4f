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
use quickrec::{record, replay, ChunkLog, Encoding, ParallelReplayer, RecordingConfig, ReplayOutcome};

/// Simulated makespans (`outcome.cycles`) at 1, 2 and 4 jobs of each
/// suite workload (3 threads, Test scale, 4 cores), as the worker-pool
/// replayer computed them before replay became one sequential list
/// schedule. The model must not move.
const MAKESPANS: [(&str, [u64; 3]); 11] = [
    ("fft", [10468, 10420, 10420]),
    ("lu", [18355, 17690, 17690]),
    ("radix", [85150, 84625, 84614]),
    ("ocean", [23068, 18701, 18701]),
    ("barnes", [21364, 20571, 20571]),
    ("water", [14022, 13848, 13848]),
    ("fmm", [6213, 6152, 6152]),
    ("raytrace", [16966, 15905, 15905]),
    ("cholesky", [15520, 14471, 14471]),
    ("volrend", [102578, 81733, 81733]),
    ("radiosity", [8547, 8450, 8450]),
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
                let replayer =
                    ParallelReplayer::new(&program, &reloaded, jobs).expect("replayer builds");
                assert_eq!(
                    replayer.fallback_reason(),
                    None,
                    "fresh recordings must carry full footprints: {context}"
                );
                let outcome = replayer.run().unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_equivalent(&outcome, &serial, &context);
                if encoding == Encoding::Delta {
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
    // chunk boundaries; each lane owns its thread's store buffer, so the
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
