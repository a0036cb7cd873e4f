//! Replay driven by a recorded partial order (`order.qrp`).
//!
//! A partial-order recording carries an [`quickrec_core::OrderLog`]
//! sidecar: per-thread node counts plus the explicit happens-before
//! edges (conflict, spawn, input causality) the recorder derived at
//! record time. At replay, the edges are fed straight into the parallel
//! list schedule's dependency DAG *instead of* re-deriving constraints
//! from the footprint sidecar — the recorded order is the ordering
//! authority, exactly as the total-order path treats the global chunk
//! timestamps.
//!
//! Reconstruction maps each recorded node `(tid, seq)` onto the merged
//! timeline: walking timeline events in timestamp order, a thread's
//! `n`-th event is its node `seq = n`. Program order (consecutive nodes
//! of one thread) is implicit in the log and added here; every logged
//! edge becomes a DAG edge. A corrupt-but-CRC-valid edge set is refused
//! with a structured error: an edge naming a missing node before the
//! schedule starts, a cycle when the schedule runs dry with nodes left
//! undispatched ("k of n nodes orderable").
//!
//! Any legal execution of this DAG is conflict-equivalent to the
//! recorded run (every conflicting pair is ordered by a recorded edge),
//! so every `jobs` count — a number of *simulated* workers; replay runs
//! on the caller's thread — produces fingerprints byte-identical to a
//! total-order replay of the same seeded execution, checked by the
//! partial-order equivalence battery.
//!
//! Recordings whose footprint sidecar is missing or incomplete (torn
//! and salvaged, say) fall back to serial timestamp replay: the chunk
//! log still carries its global timestamps, which remain a legal total
//! order. Missing data costs parallelism, never correctness.

use crate::exec::check_program;
use crate::outcome::ReplayOutcome;
use crate::parallel::{timeline_nodes, Dag, Runtime};
use crate::replayer::Replayer;
use qr_capo::Recording;
use qr_common::{QrError, Result, ThreadId};
use qr_isa::Program;
use quickrec_core::PoNode;
use std::collections::BTreeMap;

/// Replays `recording` under its recorded partial order scheduled onto
/// `jobs` simulated workers and verifies the outcome against the
/// recording.
///
/// # Errors
///
/// See [`replay_ordered`]; additionally [`QrError::ReplayDivergence`]
/// when the outcome does not match the recording.
pub fn replay_ordered_and_verify(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    let outcome = replay_ordered(program, recording, jobs)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` with the recorded `order.qrp` partial order as
/// the ordering authority, scheduled onto `jobs` simulated workers (the
/// nodes execute in that schedule's order on the caller's thread).
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] for `jobs == 0` or a recording
/// without an order log, [`QrError::ReplayDivergence`] when the log
/// disagrees with the timeline or the replayed execution diverges, and
/// [`QrError::Corrupt`] for an order log whose edges are cyclic or
/// dangling.
pub fn replay_ordered(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    if jobs == 0 {
        return Err(QrError::InvalidConfig("replay needs at least one job".into()));
    }
    check_program(program, recording)?;
    let Some(order) = &recording.order else {
        return Err(QrError::InvalidConfig(
            "recording has no order.qrp sidecar (recorded in total-order mode?)".into(),
        ));
    };
    let started = std::time::Instant::now();
    let nodes = match timeline_nodes(recording)? {
        Ok(nodes) => nodes,
        // Incomplete footprint coverage: the chunk timestamps are still
        // present and remain a legal total order.
        Err(_reason) => return Replayer::new(program, recording)?.run(),
    };
    // Node identity: a thread's n-th timeline event is its (tid, seq=n)
    // order-log node. Program order is implicit in the log; materialize
    // it here.
    let mut of_thread: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    for (idx, node) in nodes.iter().enumerate() {
        let events = of_thread.entry(node.event.tid()).or_default();
        preds.push(events.last().copied().into_iter().collect());
        events.push(idx);
    }
    // The log and the timeline must describe the same execution:
    // identical thread sets and per-thread event counts.
    let timeline_shape = of_thread.iter().map(|(&tid, events)| (tid, events.len()));
    if !order.threads().iter().map(|(&tid, &count)| (tid, count as usize)).eq(timeline_shape) {
        return Err(QrError::ReplayDivergence(format!(
            "order log covers {} nodes across {} threads but the timeline has {} events across {} threads",
            order.node_count(),
            order.threads().len(),
            nodes.len(),
            of_thread.len()
        )));
    }
    let corrupt = |detail: String| QrError::Corrupt { what: "order log".into(), offset: 0, detail };
    let index_of = |node: PoNode| {
        (of_thread.get(&node.tid).and_then(|events| events.get(node.seq as usize)).copied())
            .ok_or_else(|| corrupt(format!("edge endpoint {node} is not a node")))
    };
    // Every recorded happens-before edge becomes a scheduler edge.
    for edge in order.edges() {
        let (from, to) = (index_of(edge.from)?, index_of(edge.to)?);
        if from != to && !preds[to].contains(&from) {
            preds[to].push(from);
        }
    }
    for p in &mut preds {
        p.sort_unstable();
    }
    crate::obs::order_reconstructed(started);
    // Recorded edges, unlike derived ones, need not follow timestamp
    // order: the schedule refuses a cycle as it runs dry.
    Runtime::new(program, recording, Dag::new(nodes, preds), jobs)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replayer::replay;
    use crate::testutil::racy_program;
    use qr_capo::{record, RecordingConfig};
    use quickrec_core::OrderMode;

    fn partial_config(cores: usize) -> RecordingConfig {
        let mut cfg = RecordingConfig::with_cores(cores);
        cfg.order = OrderMode::PartialOrder;
        cfg
    }

    #[test]
    fn ordered_replay_matches_serial_for_every_job_count() {
        let program = racy_program();
        let recording = record(program.clone(), partial_config(2)).unwrap();
        assert!(recording.order.is_some());
        let serial = replay(&program, &recording).unwrap();
        for jobs in [1, 2, 4] {
            let outcome = replay_ordered_and_verify(&program, &recording, jobs).unwrap();
            assert_eq!(outcome.fingerprint, serial.fingerprint, "jobs={jobs}");
            assert_eq!(outcome.console, serial.console);
            assert_eq!(outcome.exit_code, serial.exit_code);
            assert_eq!(outcome.instructions, serial.instructions);
        }
    }

    #[test]
    fn total_order_recordings_are_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert!(matches!(
            replay_ordered(&program, &recording, 2),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), partial_config(2)).unwrap();
        assert!(matches!(
            replay_ordered(&program, &recording, 0),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mismatched_order_log_is_a_divergence() {
        let program = racy_program();
        let mut recording = record(program.clone(), partial_config(2)).unwrap();
        // An order log from a different execution (extra phantom thread)
        // must be refused, not silently replayed.
        let donor = record(program.clone(), partial_config(4)).unwrap();
        let mut threads = recording.order.as_ref().unwrap().threads().clone();
        let max = threads.keys().last().unwrap().0;
        threads.insert(qr_common::ThreadId(max + 7), 3);
        let forged =
            quickrec_core::OrderLog::new(threads, donor.order.as_ref().unwrap().edges().to_vec());
        recording.order = Some(forged);
        assert!(matches!(
            replay_ordered(&program, &recording, 2),
            Err(QrError::ReplayDivergence(_))
        ));
    }

    #[test]
    fn cyclic_and_dangling_order_logs_are_corrupt_not_scheduled() {
        use quickrec_core::{OrderEdge, OrderLog};
        let program = racy_program();
        let mut recording = record(program.clone(), partial_config(2)).unwrap();
        let order = recording.order.clone().unwrap();
        let forged = |extra: OrderEdge| {
            let mut edges = order.edges().to_vec();
            edges.push(extra);
            Some(OrderLog::new(order.threads().clone(), edges))
        };
        let first = order.edges()[0];
        // Reversing a recorded edge closes a two-node cycle. The count
        // is the nodes a topological order reaches — any order reaches
        // the same set, so it does not depend on the worker count.
        recording.order = forged(OrderEdge { from: first.to, to: first.from, ..first });
        for jobs in [1, 2, 4] {
            match replay_ordered(&program, &recording, jobs) {
                Err(QrError::Corrupt { what, detail, .. }) => {
                    assert_eq!(what, "order log");
                    assert_eq!(detail, "happens-before edges form a cycle (2 of 233 nodes orderable)");
                }
                other => panic!("jobs={jobs}: {other:?}"),
            }
        }
        let beyond = PoNode { seq: order.threads()[&first.from.tid], ..first.from };
        recording.order = forged(OrderEdge { from: beyond, ..first });
        match replay_ordered(&program, &recording, 2) {
            Err(QrError::Corrupt { detail, .. }) => assert!(detail.contains("is not a node"), "{detail}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_footprints_fall_back_to_serial_timestamp_replay() {
        let program = racy_program();
        let mut recording = record(program.clone(), partial_config(2)).unwrap();
        let fingerprint = replay(&program, &recording).unwrap().fingerprint;
        recording.footprints = None;
        let outcome = replay_ordered(&program, &recording, 4).unwrap();
        assert_eq!(outcome.fingerprint, fingerprint);
        outcome.verify_against(&recording).unwrap();
    }
}
