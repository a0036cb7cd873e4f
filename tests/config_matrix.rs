//! Record/replay across the machine-configuration matrix: every
//! combination must stay self-validating and replay-exact, because none
//! of these knobs is allowed to affect *correctness* — only logs and
//! timing. Every recording is replayed twice, on the functional memory
//! path and on the recording's cache and bus model, and the two must
//! agree on everything but cycles: caches never decide data.

use qr_replay::replay_with_race_detection;
use quickrec::{record, Program, Recording, RecordingConfig, Replayer, TsoMode};

fn workload() -> quickrec::Program {
    let spec = quickrec::workloads::find("radix").expect("radix exists");
    (spec.build)(4, quickrec::workloads::Scale::Test).expect("builds")
}

fn expected() -> u32 {
    let spec = quickrec::workloads::find("radix").expect("radix exists");
    (spec.expected)(4, quickrec::workloads::Scale::Test)
}

/// Records `program` under `cfg` and replays it both ways with the race
/// detector attached; the functional replay must verify and the modelled
/// one must match it.
fn check(program: &Program, cfg: RecordingConfig, label: &str) -> Recording {
    let recording = record(program.clone(), cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (functional, races) =
        replay_with_race_detection(program, &recording).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut modelled =
        Replayer::modelled(program, &recording).unwrap_or_else(|e| panic!("{label}: {e}"));
    modelled.enable_race_detection();
    let (modelled, modelled_races) =
        modelled.run_with_report().unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(functional.fingerprint, modelled.fingerprint, "{label}: fingerprint");
    assert_eq!(functional.console, modelled.console, "{label}: console");
    assert_eq!(functional.exit_code, modelled.exit_code, "{label}: exit code");
    assert_eq!(functional.instructions, modelled.instructions, "{label}: instructions");
    assert_eq!(functional.chunks_replayed, modelled.chunks_replayed, "{label}: chunks");
    assert_eq!(functional.inputs_injected, modelled.inputs_injected, "{label}: inputs");
    assert_eq!(races, modelled_races, "{label}: race report");
    recording
}

/// [`check`] on radix, which must also compute its checksum.
fn check_radix(cfg: RecordingConfig, label: &str) -> Recording {
    let recording = check(&workload(), cfg, label);
    assert_eq!(recording.exit_code, expected(), "{label}: wrong checksum");
    recording
}

#[test]
fn core_counts() {
    for cores in 1..=4 {
        check_radix(RecordingConfig::with_cores(cores), &format!("cores={cores}"));
    }
}

#[test]
fn tso_modes_and_drain_intervals() {
    for mode in [TsoMode::DrainAtChunk, TsoMode::Rsw] {
        for interval in [1u64, 2, 8, 32] {
            let mut cfg = RecordingConfig::with_cores(2);
            cfg.cpu.mem.tso_mode = mode;
            cfg.cpu.drain_interval = interval;
            check_radix(cfg, &format!("{mode:?}/interval={interval}"));
        }
    }
}

#[test]
fn store_buffer_sizes() {
    for entries in [1usize, 2, 16] {
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.cpu.mem.store_buffer_entries = entries;
        check_radix(cfg, &format!("sb={entries}"));
    }
}

#[test]
fn tiny_caches_force_evictions() {
    let mut cfg = RecordingConfig::with_cores(2);
    cfg.cpu.mem.l1_sets = 2;
    cfg.cpu.mem.l1_ways = 1;
    check_radix(cfg, "l1=2x1");
}

#[test]
fn tiny_signatures_force_saturation_terminations() {
    let mut cfg = RecordingConfig::with_cores(4);
    cfg.mrr.read_sig_bits = 64;
    cfg.mrr.write_sig_bits = 64;
    cfg.mrr.sig_saturation_permille = 300;
    let recording = check_radix(cfg, "sig=64");
    let sat = recording.recorder_stats.chunks_by_reason
        [quickrec::TerminationReason::SigSaturation.code() as usize];
    assert!(sat > 0, "64-bit signatures must saturate");
}

#[test]
fn tiny_chunk_limit_forces_ic_overflow() {
    let mut cfg = RecordingConfig::with_cores(2);
    cfg.mrr.max_chunk_icount = 50;
    let recording = check_radix(cfg, "max_chunk_icount=50");
    let ovf = recording.recorder_stats.chunks_by_reason
        [quickrec::TerminationReason::IcOverflow.code() as usize];
    assert!(ovf > 0, "a 50-instruction cap must overflow");
}

#[test]
fn aggressive_preemption() {
    for quantum in [500u64, 2_000, 10_000] {
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.os.quantum_cycles = quantum;
        check_radix(cfg, &format!("quantum={quantum}"));
    }
}

#[test]
fn tiny_cbuf_and_cmem_still_record_correctly() {
    let mut cfg = RecordingConfig::with_cores(4);
    cfg.mrr.cbuf_entries = 1;
    cfg.mrr.cbuf_drain_cycles = 256;
    cfg.mrr.cmem_capacity = 256;
    cfg.mrr.cmem_interrupt_threshold = 64;
    let recording = check_radix(cfg, "cbuf=1");
    assert!(recording.overhead.hw_stall_cycles > 0, "a 1-entry CBUF must stall");
}

#[test]
fn every_suite_workload_under_both_tso_modes() {
    for spec in quickrec::workloads::suite() {
        let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
        for mode in [TsoMode::DrainAtChunk, TsoMode::Rsw] {
            let mut cfg = RecordingConfig::with_cores(4);
            cfg.cpu.mem.tso_mode = mode;
            let label = format!("{}/{mode:?}", spec.name);
            let recording = check(&program, cfg, &label);
            let expected = (spec.expected)(3, quickrec::workloads::Scale::Test);
            assert_eq!(recording.exit_code, expected, "{label}");
        }
    }
}

#[test]
fn exact_set_tracking_does_not_change_behaviour() {
    let mut with = RecordingConfig::with_cores(2);
    with.mrr.track_exact_sets = true;
    let a = record(workload(), with).unwrap();
    let b = record(workload(), RecordingConfig::with_cores(2)).unwrap();
    assert_eq!(a.chunks, b.chunks, "exact tracking is observation-only");
    assert_eq!(a.fingerprint, b.fingerprint);
}
