//! `qr-obs` instrumentation for the daemon: request latency, queue
//! depth, busy rejections, connection/accept accounting, drain time.
//!
//! Every hook is gated on [`qr_obs::enabled`] and touches only
//! process-local atomics — nothing here feeds back into job execution,
//! responses, or the store, so recordings and `repro` output are
//! byte-identical with metrics on or off.

use crate::proto::Request;
use qr_obs::{Counter, Gauge, Histogram, LATENCY_US};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One series per [`Request`] variant, indexed by wire tag and labelled
/// from the protocol's own declaration.
fn request_counters() -> &'static [Arc<Counter>; Request::KINDS.len()] {
    static CELL: OnceLock<[Arc<Counter>; Request::KINDS.len()]> = OnceLock::new();
    CELL.get_or_init(|| {
        Request::KINDS.map(|kind| {
            qr_obs::global().counter(
                "qr_server_requests_total",
                "Wire requests handled, by request kind.",
                &[("kind", kind)],
            )
        })
    })
}

fn latency_histograms() -> &'static [Arc<Histogram>; Request::KINDS.len()] {
    static CELL: OnceLock<[Arc<Histogram>; Request::KINDS.len()]> = OnceLock::new();
    CELL.get_or_init(|| {
        Request::KINDS.map(|kind| {
            qr_obs::global().histogram(
                "qr_server_request_latency_us",
                "Wire request handling latency in microseconds, by request kind.",
                &[("kind", kind)],
                LATENCY_US,
            )
        })
    })
}

fn depth_gauge() -> &'static Arc<Gauge> {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().gauge(
            "qr_server_queue_depth",
            "Jobs currently waiting in the worker-pool queue.",
            &[],
        )
    })
}

fn busy_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_busy_rejections_total",
            "Submissions rejected because the worker queue was full.",
            &[],
        )
    })
}

fn connection_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_connections_total",
            "Connections accepted over the server's lifetime.",
            &[],
        )
    })
}

fn open_connections_gauge() -> &'static Arc<Gauge> {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().gauge(
            "qr_server_open_connections",
            "Connections currently owned by the event loop.",
            &[],
        )
    })
}

fn event_wakeup_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_event_loop_wakeups_total",
            "Event-loop poll returns (readiness or timeout).",
            &[],
        )
    })
}

fn event_events_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_event_loop_events_total",
            "Connection readiness events handled by the event loop.",
            &[],
        )
    })
}

fn accept_error_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_accept_errors_total",
            "Accept errors (logged, backed off, and retried).",
            &[],
        )
    })
}

fn panic_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().counter(
            "qr_server_worker_panics_total",
            "Worker-pool tasks that panicked (contained; the worker survived).",
            &[],
        )
    })
}

fn drain_histogram() -> &'static Arc<Histogram> {
    static CELL: OnceLock<Arc<Histogram>> = OnceLock::new();
    CELL.get_or_init(|| {
        qr_obs::global().histogram(
            "qr_server_drain_latency_us",
            "Shutdown drain time (connections + queued jobs) in microseconds.",
            &[],
            LATENCY_US,
        )
    })
}

/// `Some(now)` only when metrics are enabled, so disabled hot paths
/// never read the clock.
pub(crate) fn clock() -> Option<Instant> {
    qr_obs::enabled().then(Instant::now)
}

/// Records one handled request — count + latency — under the kind
/// with wire tag `tag` (taken before the handler consumes the request).
pub(crate) fn request_handled(tag: u8, start: Option<Instant>) {
    if let Some(start) = start {
        request_counters()[usize::from(tag)].inc();
        latency_histograms()[usize::from(tag)].observe_since(start);
    }
}

/// Tracks the worker-pool queue depth after a push or pop.
pub(crate) fn queue_depth(depth: usize) {
    if qr_obs::enabled() {
        depth_gauge().set(depth as i64);
    }
}

/// Counts one backpressure rejection.
pub(crate) fn busy_rejection() {
    if qr_obs::enabled() {
        busy_counter().inc();
    }
}

/// Counts one accepted connection.
pub(crate) fn connection_opened() {
    if qr_obs::enabled() {
        connection_counter().inc();
    }
}

/// Moves the open-connections gauge by `delta` (+1 on accept, -1 on
/// close — a delta, not a set, so several in-process servers sharing
/// the global registry stay additive).
pub(crate) fn connection_delta(delta: i64) {
    if qr_obs::enabled() {
        open_connections_gauge().add(delta);
    }
}

/// Counts one event-loop poll return.
pub(crate) fn event_wakeup() {
    if qr_obs::enabled() {
        event_wakeup_counter().inc();
    }
}

/// Counts `n` connection readiness events handled in one poll return.
pub(crate) fn event_events(n: usize) {
    if qr_obs::enabled() && n > 0 {
        event_events_counter().add(n as u64);
    }
}

/// Counts one accept error.
pub(crate) fn accept_error() {
    if qr_obs::enabled() {
        accept_error_counter().inc();
    }
}

/// Counts one contained worker panic.
pub(crate) fn task_panicked() {
    if qr_obs::enabled() {
        panic_counter().inc();
    }
}

/// Records how long shutdown took, from `start` (when the event loop
/// began draining) until connections and jobs have both drained.
pub(crate) fn drain_finished(start: Option<Instant>) {
    if let Some(start) = start.filter(|_| qr_obs::enabled()) {
        drain_histogram().observe_since(start);
    }
}

fn query_counters() -> &'static [Arc<Counter>; 2] {
    static CELL: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    CELL.get_or_init(|| {
        ["executed", "cached"].map(|outcome| {
            qr_obs::global().counter(
                "qr_server_queries_total",
                "Time-travel queries answered, by outcome (executed vs idempotence-cache hit).",
                &[("outcome", outcome)],
            )
        })
    })
}

/// Counts one answered time-travel query; `cached` marks an
/// idempotence-cache hit that skipped re-execution.
pub(crate) fn query_answered(cached: bool) {
    if qr_obs::enabled() {
        query_counters()[usize::from(cached)].inc();
    }
}
