//! Replay metrics (`qr-obs` hooks): runs and timeline events by mode
//! (serial or the parallel list schedule), seeks and checkpoint
//! restores, order-log reconstruction, and store-buffer activity.
//! Observational only — replay outcomes and fingerprints never read
//! these back (see the determinism rule in `qr-obs`).

use std::sync::{Arc, OnceLock};

use qr_obs::{Counter, Histogram};

fn mode_counter(
    cell: &'static OnceLock<[Arc<Counter>; 2]>,
    name: &'static str,
    help: &'static str,
    mode: &'static str,
) -> &'static Arc<Counter> {
    let pair = cell.get_or_init(|| {
        ["serial", "parallel"]
            .map(|m| qr_obs::global().counter(name, help, &[("mode", m)]))
    });
    &pair[usize::from(mode == "parallel")]
}

/// Accounts the start of one replay run.
pub(crate) fn run_started(mode: &'static str) {
    static HANDLES: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    if qr_obs::enabled() {
        mode_counter(&HANDLES, "qr_replay_runs_total", "Replay runs, by scheduler mode", mode)
            .inc();
    }
}

/// Accounts the timeline events a finished run executed.
pub(crate) fn nodes_executed(mode: &'static str, n: u64) {
    static HANDLES: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    if qr_obs::enabled() {
        mode_counter(
            &HANDLES,
            "qr_replay_nodes_total",
            "Timeline events executed, by scheduler mode",
            mode,
        )
        .add(n);
    }
}

/// Accounts one corrupt (or mismatched) persisted checkpoint index that
/// was silently degraded to from-scratch replay. The degradation is
/// invisible in results — this counter is the only way to see it.
pub(crate) fn index_corrupt() {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    if qr_obs::enabled() {
        HANDLE
            .get_or_init(|| {
                qr_obs::global().counter(
                    "qr_replay_index_corrupt_total",
                    "Persisted checkpoint indexes rejected and degraded to from-scratch replay",
                    &[],
                )
            })
            .inc();
    }
}

/// Accounts one seek, labeled by whether a persisted checkpoint cut the
/// re-execution distance or the replay started from scratch.
pub(crate) fn seek(used_index: bool) {
    static HANDLES: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    if qr_obs::enabled() {
        let pair = HANDLES.get_or_init(|| {
            ["scratch", "index"].map(|source| {
                qr_obs::global().counter(
                    "qr_replay_seeks_total",
                    "Time-travel seeks, by whether a checkpoint index was used",
                    &[("source", source)],
                )
            })
        });
        pair[usize::from(used_index)].inc();
    }
}

/// Observes how many checkpoint records one restored seek applied: the
/// chosen record plus the chain back to its keyframe. A seek that was
/// slow without re-executing much sat deep in a chain.
pub(crate) fn seek_restore_records(records: usize) {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    if qr_obs::enabled() {
        HANDLE
            .get_or_init(|| {
                qr_obs::global().histogram(
                    "qr_replay_seek_restore_records",
                    "Checkpoint records applied per restored seek (keyframe through chosen record)",
                    &[],
                    &[1, 2, 3, 4, 5, 6, 7, 8],
                )
            })
            .observe(records as u64);
    }
}

/// Observes one order-log DAG reconstruction (microsecond resolution,
/// like the other latency histograms).
pub(crate) fn order_reconstructed(started: std::time::Instant) {
    static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
    if qr_obs::enabled() {
        HANDLE
            .get_or_init(|| {
                qr_obs::global().histogram(
                    "qr_replay_order_reconstruct_seconds",
                    "Microseconds spent rebuilding the replay DAG from a recorded order log",
                    &[],
                    qr_obs::LATENCY_US,
                )
            })
            .observe_since(started);
    }
}

/// Accounts one TSO store-buffer boundary drain.
pub(crate) fn store_buffer_drain() {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    if qr_obs::enabled() {
        HANDLE
            .get_or_init(|| {
                qr_obs::global().counter(
                    "qr_replay_store_buffer_drains_total",
                    "Chunk-boundary store-buffer drains during replay",
                    &[],
                )
            })
            .inc();
    }
}
