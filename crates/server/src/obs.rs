//! The daemon's metric families, over registries it owns.
//!
//! The event loop holds the one [`Registry`] that METRICS renders and
//! counts its own work into it: requests, connections, accept errors,
//! busy refusals, queries. A pool job fills a registry of its own from
//! the values its library calls returned — a recording's stats and
//! chunk log, a store manifest, a replay outcome, a query engine's seek
//! stats — and its wall-clock timings, and posts it with its
//! `Completed`/`Failed` transition or QUERY answer; the loop folds it
//! in ([`Registry::merge`]). The gauges are read when METRICS renders.
//! Nothing here is read by job execution, responses or the store.

use crate::proto::Request;
use qr_capo::{Recording, RecordingParts};
use qr_obs::{Counter, Registry, LATENCY_US};
use qr_replay::{ReplayOutcome, SeekStats};
use qr_store::Manifest;
use quickrec_core::{EdgeKind, Encoding, TerminationReason};
use std::time::Instant;

// ---- counted on the loop ---------------------------------------------

/// Counts one handled request and its latency from `start`, under the
/// kind with wire tag `tag` (taken before the handler consumed it).
pub(crate) fn request_handled(reg: &mut Registry, tag: u8, start: Instant) {
    let kind = [("kind", Request::KINDS[usize::from(tag)])];
    reg.counter("qr_server_requests_total", "Wire requests handled, by request kind.", &kind).inc();
    reg.histogram(
        "qr_server_request_latency_us",
        "Wire request handling latency in microseconds, by request kind.",
        &kind,
        LATENCY_US,
    )
    .observe_since(start);
}

/// Backpressure refusals; STATS reports the same counter as
/// `rejected busy`.
pub(crate) fn busy_rejections(reg: &mut Registry) -> &mut Counter {
    reg.counter(
        "qr_server_busy_rejections_total",
        "Submissions rejected because the worker queue was full.",
        &[],
    )
}

/// Connections accepted; STATS reports the same counter.
pub(crate) fn connections(reg: &mut Registry) -> &mut Counter {
    reg.counter("qr_server_connections_total", "Connections accepted over the server's lifetime.", &[])
}

/// Counts one event-loop poll return and the `ready` connection
/// readiness events it handled.
pub(crate) fn event_wakeup(reg: &mut Registry, ready: usize) {
    reg.counter(
        "qr_server_event_loop_wakeups_total",
        "Event-loop poll returns (readiness or timeout).",
        &[],
    )
    .inc();
    if ready > 0 {
        reg.counter(
            "qr_server_event_loop_events_total",
            "Connection readiness events handled by the event loop.",
            &[],
        )
        .add(ready as u64);
    }
}

/// Counts one accept error.
pub(crate) fn accept_error(reg: &mut Registry) {
    reg.counter("qr_server_accept_errors_total", "Accept errors (logged, backed off, and retried).", &[])
        .inc();
}

/// Counts one answered time-travel query; `cached` marks an
/// idempotence-cache hit that skipped re-execution.
pub(crate) fn query_answered(reg: &mut Registry, cached: bool) {
    let outcome = if cached { "cached" } else { "executed" };
    reg.counter(
        "qr_server_queries_total",
        "Time-travel queries answered, by outcome (executed vs idempotence-cache hit).",
        &[("outcome", outcome)],
    )
    .inc();
}

/// Sets the gauges to their values now and renders the exposition.
pub(crate) fn render(reg: &mut Registry, queued: usize, open_connections: usize) -> String {
    reg.gauge("qr_server_queue_depth", "Jobs currently waiting in the worker-pool queue.", &[])
        .set(queued as i64);
    reg.gauge("qr_server_open_connections", "Connections currently owned by the event loop.", &[])
        .set(open_connections as i64);
    reg.render()
}

// ---- counted by a job, from what its calls returned ------------------

/// Counts a pool task that panicked (contained; its worker survived).
pub(crate) fn worker_panic(reg: &mut Registry) {
    reg.counter(
        "qr_server_worker_panics_total",
        "Worker-pool tasks that panicked (contained; the worker survived).",
        &[],
    )
    .inc();
}

/// Counts a fresh recording: its chunks by termination reason and by
/// size, its chunk log serialized as `parts` under `encoding`, and a
/// partial-order recording's happens-before edges.
pub(crate) fn recorded(reg: &mut Registry, recording: &Recording, parts: &RecordingParts, encoding: Encoding) {
    let by_reason = &recording.recorder_stats.chunks_by_reason;
    for reason in TerminationReason::ALL {
        reg.counter(
            "qr_recorder_chunks_total",
            "Chunks emitted, by termination reason",
            &[("reason", reason.label())],
        )
        .add(by_reason[reason.code() as usize]);
    }
    let sizes = reg.histogram(
        "qr_recorder_chunk_size_insns",
        "Chunk sizes in user instructions",
        &[],
        &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144],
    );
    for packet in recording.chunks.packets() {
        sizes.observe(packet.icount);
    }
    reg.counter(
        "qr_recorder_log_bytes_total",
        "Serialized chunk-log bytes, by encoding",
        &[("encoding", encoding.name())],
    )
    .add(parts.chunks.len() as u64);
    if let Some(order) = &recording.order {
        let logged = EdgeKind::ALL.map(|kind| (kind.label(), order.edge_count(kind)));
        for (kind, edges) in [("program", order.program_edge_count())].into_iter().chain(logged) {
            reg.counter(
                "qr_core_po_edges_total",
                "Partial-order happens-before edges derived, by kind",
                &[("kind", kind)],
            )
            .add(edges);
        }
    }
}

/// Counts one store put, begun at `start`, from the entry's manifest.
pub(crate) fn stored(reg: &mut Registry, manifest: &Manifest, start: Instant) {
    reg.histogram(
        "qr_store_encode_latency_us",
        "Store put (compress and commit every file of an entry) latency",
        &[],
        LATENCY_US,
    )
    .observe_since(start);
    let help = "Bytes through the block codec (compression ratio = compressed / raw)";
    for (direction, bytes) in
        [("raw", manifest.uncompressed_bytes()), ("compressed", manifest.compressed_bytes())]
    {
        reg.counter("qr_store_bytes_total", help, &[("direction", direction)]).add(bytes);
    }
}

/// Counts one store fetch (decompressing every file of an entry),
/// begun at `start`.
pub(crate) fn fetched(reg: &mut Registry, start: Instant) {
    reg.histogram(
        "qr_store_decode_latency_us",
        "Store fetch (decompress every file of an entry) latency",
        &[],
        LATENCY_US,
    )
    .observe_since(start);
}

/// Counts one replay run and the timeline events it executed; `mode`
/// is `serial` or `ordered` (under a recorded partial order).
pub(crate) fn replayed(reg: &mut Registry, mode: &str, outcome: &ReplayOutcome) {
    let mode = [("mode", mode)];
    reg.counter("qr_replay_runs_total", "Replay runs, by scheduler mode", &mode).inc();
    reg.counter("qr_replay_nodes_total", "Timeline events executed, by scheduler mode", &mode)
        .add((outcome.chunks_replayed + outcome.inputs_injected) as u64);
}

/// Counts a query engine's seeks, and its persisted index when
/// attaching it was refused (`attached` false) or one of its chains
/// was: either degrades to from-scratch replay, invisibly in results.
pub(crate) fn sought(reg: &mut Registry, attached: bool, seeks: &SeekStats) {
    let help = "Time-travel seeks, by whether a checkpoint index was used";
    reg.counter("qr_replay_seeks_total", help, &[("source", "scratch")]).add(seeks.from_scratch);
    reg.counter("qr_replay_seeks_total", help, &[("source", "index")]).add(seeks.from_index());
    let depth = reg.histogram(
        "qr_replay_seek_restore_records",
        "Checkpoint records applied per restored seek (keyframe through chosen record)",
        &[],
        &[1, 2, 3, 4, 5, 6, 7, 8],
    );
    for (records, &seeks) in (1..).zip(&seeks.restored) {
        depth.observe_n(records, seeks);
    }
    let refused = u64::from(!attached) + seeks.refused;
    if refused > 0 {
        reg.counter(
            "qr_replay_index_corrupt_total",
            "Persisted checkpoint indexes rejected and degraded to from-scratch replay",
            &[],
        )
        .add(refused);
    }
}
