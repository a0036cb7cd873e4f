//! Partial-order recording equivalence battery.
//!
//! A partial-order recording replaces the global chunk timestamps with
//! recorded happens-before edges as the replay-ordering authority. Its
//! correctness obligations, checked here across the whole workload
//! suite:
//!
//! 1. **Fingerprint equivalence.** Replaying under the recorded partial
//!    order — serially or on any worker count — produces the exact
//!    outcome a total-order recording of the same seeded execution
//!    replays to, for every chunk-log encoding round-trip.
//! 2. **Differential discipline.** Turning partial-order recording on
//!    changes nothing about the other logs: meta, chunks and inputs
//!    stay byte-identical to the total-order recording, the in-memory
//!    footprints equal; default-mode recordings never grow an
//!    `order.qrp`.
//! 3. **Observability neutrality.** The new ordering metrics follow the
//!    metrics-on/off byte-identity gate like every other counter.
//! 4. **Edge-set equivalence.** The reduced edge set `po::derive` logs
//!    orders exactly the pairs the full conflict sweep orders — the
//!    recorded-order DAG and the conflict DAG differ only by the
//!    input-injection chain — over seeded random footprint timelines.

use quickrec::workloads::{suite, Scale};
use quickrec::{
    record, replay, replay_ordered, replay_ordered_and_verify, ChunkLog, Encoding, OrderMode,
    Recording, RecordingConfig, ReplayOutcome,
};

const THREADS: usize = 3;
const CORES: usize = 4;

fn config(order: OrderMode) -> RecordingConfig {
    let mut cfg = RecordingConfig::with_cores(CORES);
    cfg.order = order;
    cfg
}

fn assert_equivalent(ordered: &ReplayOutcome, serial: &ReplayOutcome, context: &str) {
    assert_eq!(ordered.fingerprint, serial.fingerprint, "fingerprint diverged: {context}");
    assert_eq!(ordered.console, serial.console, "console diverged: {context}");
    assert_eq!(ordered.exit_code, serial.exit_code, "exit code diverged: {context}");
    assert_eq!(ordered.instructions, serial.instructions, "instructions diverged: {context}");
    assert_eq!(ordered.chunks_replayed, serial.chunks_replayed, "chunk count diverged: {context}");
    assert_eq!(ordered.inputs_injected, serial.inputs_injected, "input count diverged: {context}");
}

#[test]
fn partial_order_replay_matches_total_order_for_every_workload_encoding_and_job_count() {
    for spec in suite() {
        let program = (spec.build)(THREADS, Scale::Test).expect("workload builds");
        // The seeded execution is deterministic, so the total-order and
        // partial-order recordings capture the same run.
        let total = record(program.clone(), config(OrderMode::TotalOrder)).expect("total record");
        let partial =
            record(program.clone(), config(OrderMode::PartialOrder)).expect("partial record");
        assert!(total.order.is_none(), "{}: total-order recording grew an order log", spec.name);
        let order = partial.order.as_ref().expect("partial-order recording has a log");
        assert!(order.node_count() > 0, "{}: empty order log", spec.name);
        let serial = replay(&program, &total).expect("serial total-order replay");
        for encoding in Encoding::ALL {
            // Round-trip the chunk log through this encoding, as a
            // stored recording would arrive from disk.
            let bytes = partial.chunks.to_bytes(encoding);
            let mut reloaded = partial.clone();
            reloaded.chunks = ChunkLog::from_bytes(&bytes).expect("chunk log decodes");
            for jobs in [1usize, 2, 4] {
                let context = format!("{} / {encoding:?} / {jobs} jobs", spec.name);
                let outcome = replay_ordered_and_verify(&program, &reloaded, jobs)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_equivalent(&outcome, &serial, &context);
            }
        }
    }
}

#[test]
fn partial_order_recording_changes_only_the_sidecar_and_manifest() {
    for spec in suite() {
        let program = (spec.build)(THREADS, Scale::Test).expect("workload builds");
        let total = record(program.clone(), config(OrderMode::TotalOrder)).expect("total record");
        let partial =
            record(program, config(OrderMode::PartialOrder)).expect("partial record");
        let total_parts = total.to_parts(Encoding::Delta);
        let partial_parts = partial.to_parts(Encoding::Delta);
        // Same execution, same logs: only format.qrv (version bump) and
        // order.qrp (the new sidecar) may differ.
        assert_eq!(total_parts.meta, partial_parts.meta, "{}: meta drifted", spec.name);
        assert_eq!(total_parts.chunks, partial_parts.chunks, "{}: chunks drifted", spec.name);
        assert_eq!(total_parts.inputs, partial_parts.inputs, "{}: inputs drifted", spec.name);
        assert_eq!(total.footprints, partial.footprints, "{}: footprints drifted", spec.name);
        assert!(total_parts.order.is_none(), "{}: total order grew order.qrp", spec.name);
        assert!(partial_parts.order.is_some(), "{}: partial order lost order.qrp", spec.name);
        assert_ne!(total_parts.format, partial_parts.format, "{}: same format version", spec.name);
    }
}

#[test]
fn partial_order_recordings_round_trip_through_disk() {
    let dir = std::env::temp_dir().join(format!("quickrec-order-rt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = quickrec::workloads::find("lu").expect("lu exists");
    let program = (spec.build)(THREADS, Scale::Test).expect("workload builds");
    let partial = record(program.clone(), config(OrderMode::PartialOrder)).expect("record");
    for encoding in Encoding::ALL {
        let enc_dir = dir.join(encoding.name());
        partial.save(&enc_dir, encoding).expect("save");
        assert!(enc_dir.join("order.qrp").is_file(), "order.qrp not written");
        let loaded = Recording::load(&enc_dir).expect("load");
        assert_eq!(loaded.order, partial.order, "{}: order log drifted", encoding.name());
        let outcome = replay_ordered(&program, &loaded, 2).expect("ordered replay");
        assert_eq!(outcome.fingerprint, partial.fingerprint);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ordering_metrics_do_not_change_recorded_bytes() {
    let spec = quickrec::workloads::find("fft").expect("fft exists");
    let program = (spec.build)(THREADS, Scale::Test).expect("workload builds");
    let mut counted = qr_obs::Registry::new();

    let observed = record(program.clone(), config(OrderMode::PartialOrder)).expect("record");
    let order = observed.order.as_ref().expect("a partial-order recording has an order log");
    counted.counter("qr_core_po_edges_total", "edges", &[]).add(order.edges().len() as u64);
    let observed_replay = replay_ordered(&program, &observed, 2).expect("ordered replay");
    let blind = record(program.clone(), config(OrderMode::PartialOrder)).expect("record");
    let blind_replay = replay_ordered(&program, &blind, 2).expect("ordered replay");

    assert_eq!(observed_replay.fingerprint, blind_replay.fingerprint);
    for encoding in Encoding::ALL {
        let on = observed.to_parts(encoding);
        let off = blind.to_parts(encoding);
        for ((name, on_bytes), (_, off_bytes)) in on.files().iter().zip(off.files()) {
            assert_eq!(
                *on_bytes, off_bytes,
                "{}/{name}: bytes differ with metrics enabled",
                encoding.name()
            );
        }
    }
}

/// Must-precede sets of a DAG whose edges all point from lower to
/// higher timeline indices: `reach[i]` is the bitmask of `i`'s ancestors.
fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<u64> {
    let mut reach = vec![0u64; n];
    for i in 0..n {
        for &(from, to) in edges.iter().filter(|&&(_, to)| to == i) {
            assert!(from < to, "edges follow recorded order");
            reach[i] |= 1 << from | reach[from];
        }
    }
    reach
}

#[test]
fn reduced_order_log_and_full_conflict_sweep_order_the_same_pairs() {
    use qr_common::{Cycle, LineAddr, SplitMix64, ThreadId};
    use quickrec_core::hb::ConflictSweep;
    use quickrec_core::{po, ChunkFootprint, EdgeKind, PoEvent};
    let mut rng = SplitMix64::new(0x4842_0013);
    for case in 0..600 {
        let nthreads = 1 + rng.below(5) as usize;
        let nlines = 1 + rng.below(6) as u32;
        let write_pct = 10 + rng.below(80);
        let n = 2 + rng.below(39) as usize;
        // Thread 0 exists from the start; the others are spawned by an
        // input event of an already-live thread.
        let mut live = vec![0usize];
        let mut unspawned: Vec<usize> = (1..nthreads).rev().collect();
        let mut footprints = Vec::with_capacity(n);
        let mut shape = Vec::with_capacity(n); // (tid, is_input, spawned child)
        for _ in 0..n {
            let tid = live[rng.below(live.len() as u64) as usize];
            let spawns = if rng.chance(1, 4) { unspawned.pop() } else { None };
            let is_input = spawns.is_some() || rng.chance(1, 5);
            let mut lines = |pct: u64| -> Vec<LineAddr> {
                (0..nlines).filter(|_| rng.chance(pct, 300)).map(LineAddr).collect()
            };
            let (reads, writes) = (lines(100 - write_pct), lines(write_pct));
            // Like signal deliveries, some inputs carry no footprint.
            let footprinted = !is_input || rng.chance(1, 2);
            footprints.push(footprinted.then(|| ChunkFootprint::new(Cycle(0), reads, writes)));
            shape.push((tid, is_input, spawns));
            live.extend(spawns);
        }

        // What each consumer layers around the sweep: program order and
        // spawn edges (both DAGs), the input chain (recorded order only).
        let (mut program_order, mut spawn, mut input_chain) = (Vec::new(), Vec::new(), Vec::new());
        let (mut last_of, mut spawner) = (vec![None; nthreads], vec![None; nthreads]);
        let mut last_input = None;
        // (tid, seq) -> timeline index, to map logged edges back.
        let mut index = std::collections::HashMap::new();
        let mut seqs = vec![0u32; nthreads];
        for (idx, &(tid, is_input, spawns)) in shape.iter().enumerate() {
            match last_of[tid].replace(idx) {
                Some(prev) => program_order.push((prev, idx)),
                None => spawn.extend(spawner[tid].map(|s| (s, idx))),
            }
            if is_input {
                input_chain.extend(last_input.replace(idx).map(|prev| (prev, idx)));
            }
            if let Some(child) = spawns {
                spawner[child] = Some(idx);
            }
            index.insert((tid as u32, seqs[tid]), idx);
            seqs[tid] += 1;
        }
        // The full sweep, every pair as-is, beside a brute-force
        // all-pairs conflict check as its independent oracle.
        let (mut swept, mut brute) = (Vec::new(), Vec::new());
        let mut sweep = ConflictSweep::new();
        for (idx, fp) in footprints.iter().enumerate() {
            let Some(fp) = fp else { continue };
            sweep.visit(idx, fp, |from| swept.push((from, idx)));
            for (from, earlier) in footprints[..idx].iter().enumerate() {
                if earlier.as_ref().is_some_and(|e| e.conflicts_with(fp)) {
                    brute.push((from, idx));
                }
            }
        }

        // Program order plus what `po::derive` logs. Deriving without
        // input events is how the input chain is left out: filtering
        // `Input` edges out of a log would not do, because the chain
        // also dominates (and so elides) conflict edges.
        let derived = |with_inputs: bool| -> Vec<(usize, usize)> {
            let events: Vec<PoEvent> = (shape.iter().zip(&footprints))
                .map(|(&(tid, is_input, spawns), fp)| PoEvent {
                    tid: ThreadId(tid as u32),
                    footprint: fp.as_ref(),
                    is_input: is_input && with_inputs,
                    spawns: spawns.map(|t| ThreadId(t as u32)),
                })
                .collect();
            let (log, stats) = po::derive(&events).unwrap();
            assert_eq!(log.edges().len() as u64, stats.logged_edges());
            assert!(with_inputs || log.edge_count(EdgeKind::Input) == 0);
            let at = |node: po::PoNode| index[&(node.tid.0, node.seq)];
            (log.edges().iter().map(|e| (at(e.from), at(e.to))).chain(program_order.clone())).collect()
        };
        let join = |parts: &[&[(usize, usize)]]| closure(n, &parts.concat());

        let dag = join(&[&program_order, &spawn, &swept]);
        assert_eq!(dag, join(&[&program_order, &spawn, &brute]), "case {case}: sweep vs brute force");
        assert_eq!(closure(n, &derived(false)), dag, "case {case}: reduced log vs full sweep");
        assert_eq!(
            closure(n, &derived(true)),
            join(&[&program_order, &spawn, &swept, &input_chain]),
            "case {case}: reduced log with the input chain"
        );
    }
}
