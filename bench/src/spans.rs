//! Harness-owned tracing: one span around every call into a layer's
//! public function, and the self-time table computed from them.
//!
//! Spans are recorded from outside the program, in a private
//! [`qr_obs::trace::Journal`] (never the process-wide one the crates
//! under test write to). A span's parent is whatever span encloses it
//! on the same thread — the sweep or session root — and spans of one
//! sweep or session share its id. Events stay in memory until the run
//! ends.

use qr_obs::trace::{EventKind, Journal, Span, TraceEvent};
use std::collections::BTreeMap;

/// Root span of one pipeline/archive/time-travel sweep.
pub const ROOT_SWEEP: &str = "bench.sweep";
/// Root span of one daemon session.
pub const ROOT_SESSION: &str = "bench.session";

/// The benchmark's span recorder. Disabled, every call costs one
/// relaxed atomic load.
pub struct Tracer {
    journal: Journal,
}

impl Tracer {
    /// A tracer that records only once [`Tracer::set_enabled`] says so.
    pub fn new() -> Tracer {
        Tracer {
            journal: Journal::new(),
        }
    }

    /// Turns recording on or off; only toggled between root spans, so
    /// begin/end events always pair up.
    pub fn set_enabled(&self, enabled: bool) {
        self.journal.set_enabled(enabled);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, id: u64) -> Span<'_> {
        self.journal.span(name, id)
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.journal.span(name, id);
        f()
    }

    /// Takes every event recorded so far.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.journal.drain()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Durations of the individual spans, microseconds, in end order.
    pub durations_us: Vec<f64>,
    /// Sum of the durations.
    pub total_us: f64,
    /// Sum of each span's duration minus the part of it covered by
    /// its child spans.
    pub self_us: f64,
}

impl SpanStat {
    /// Number of spans.
    pub fn count(&self) -> usize {
        self.durations_us.len()
    }

    /// Mean duration in milliseconds (0 when the span never ran).
    pub fn mean_ms(&self) -> f64 {
        crate::stats::mean(&self.durations_us) / 1e3
    }
}

/// Self-time table: span name → aggregate.
pub type SpanTable = BTreeMap<String, SpanStat>;

struct Open {
    name: String,
    start: u64,
    /// Time covered by direct children. Spans nest per thread, so the
    /// children of one parent never overlap each other, and a
    /// grandchild is already inside its own parent's interval: each
    /// covered microsecond is subtracted from exactly one ancestor.
    covered: u64,
}

/// Folds begin/end events into the self-time table. Nesting is per
/// thread; an end without a begin (or the reverse, at the edges of a
/// recording window) is ignored.
pub fn self_times(events: &[TraceEvent]) -> SpanTable {
    let mut table = SpanTable::new();
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.thread).or_default();
        match ev.kind {
            EventKind::Begin => stack.push(Open {
                name: ev.name.clone(),
                start: ev.micros,
                covered: 0,
            }),
            EventKind::End => {
                let Some(pos) = stack.iter().rposition(|o| o.name == ev.name) else {
                    continue;
                };
                stack.truncate(pos + 1);
                let open = stack.pop().expect("rposition found it");
                let end = ev.micros.max(open.start);
                let duration = end - open.start;
                let stat = table.entry(open.name).or_default();
                stat.durations_us.push(duration as f64);
                stat.total_us += duration as f64;
                stat.self_us += duration.saturating_sub(open.covered) as f64;
                if let Some(parent) = stack.last_mut() {
                    parent.covered += duration;
                }
            }
            EventKind::Instant => {}
        }
    }
    table
}

/// Span of one host-speed calibration slice: harness time that is not
/// part of the workload, so it is left out of every share.
pub const CALIBRATE: &str = "bench.calibrate";

/// `(total, own)` microseconds of the root spans, with calibration
/// slices taken out of both.
fn root_time(table: &SpanTable, roots: &[&str]) -> (f64, f64) {
    let (total, own) = roots
        .iter()
        .filter_map(|r| table.get(*r))
        .fold((0.0, 0.0), |(t, s), stat| {
            (t + stat.total_us, s + stat.self_us)
        });
    (
        total - table.get(CALIBRATE).map_or(0.0, |c| c.total_us),
        own,
    )
}

/// Share (0..=100) of the root spans' time that their child spans
/// cover: the sanity gate that the spans account for the wall time.
pub fn coverage_pct(table: &SpanTable, roots: &[&str]) -> f64 {
    let (total, own) = root_time(table, roots);
    if total <= 0.0 {
        0.0
    } else {
        100.0 * (total - own) / total
    }
}

/// Share (0..=100) of the root spans' time that is self time of spans
/// whose name starts with one of `prefixes`.
pub fn share_pct(table: &SpanTable, roots: &[&str], prefixes: &[&str]) -> f64 {
    let (total, _) = root_time(table, roots);
    if total <= 0.0 {
        return 0.0;
    }
    let part: f64 = table
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(_, s)| s.self_us)
        .sum();
    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
    100.0 * part / total + 0.0
}

/// Simulator-facing calls: everything that steps guest instructions.
const SIM: [&str; 10] = [
    "capo.record",
    "os.run_native",
    "replay.serial",
    "replay.ordered",
    "replay.parallel",
    "replay.index_build",
    "replay.seek",
    "replay.scratch_seek",
    "replay.query",
    "replay.state_fingerprint",
];
/// Calls that only move, check, encode or store bytes.
const CODEC_STORE: [&str; 9] = [
    "capo.to_parts",
    "capo.from_parts",
    "capo.check_consistency",
    "capo.attach_checkpoints",
    "store.",
    "replay.index_to_bytes",
    "replay.index_from_bytes",
    "replay.engine_new",
    "replay.attach_index",
];

/// Sets every per-layer metric that is read off the span table: where
/// the roots' time went by kind of call, how much of it the spans
/// cover, and the mean (or percentile) duration of each layer call. A
/// call the workload never made reads 0.
pub fn layer_metrics(table: &SpanTable, roots: &[&str], run: &mut crate::report::Run) {
    run.set("obs.span_coverage_pct", coverage_pct(table, roots));
    run.set("trace.sim_share_pct", share_pct(table, roots, &SIM));
    run.set(
        "trace.codec_store_share_pct",
        share_pct(table, roots, &CODEC_STORE),
    );
    run.set(
        "trace.server_share_pct",
        share_pct(table, roots, &["server."]),
    );
    run.set("trace.harness_share_pct", share_pct(table, roots, roots));
    let mean_ms = |span: &str| table.get(span).map_or(0.0, SpanStat::mean_ms);
    for (metric, span) in [
        ("capo.record_ms", "capo.record"),
        ("capo.to_parts_ms", "capo.to_parts"),
        ("capo.from_parts_ms", "capo.from_parts"),
        ("store.open_ms", "store.open"),
        ("store.put_ms", "store.put_parts"),
        ("store.fetch_ms", "store.fetch_parts"),
        ("store.verify_ms", "store.verify"),
        ("replay.index_build_ms", "replay.index_build"),
        ("replay.index_load_ms", "replay.index_from_bytes"),
        ("replay.query_ms.range", "replay.query.range"),
        ("replay.query_ms.window", "replay.query.window"),
        ("replay.query_ms.reverse_step", "replay.query.reverse_step"),
        ("server.wait_ms", "server.wait"),
        ("server.fetch_ms", "server.fetch"),
        ("server.query_ms", "server.query"),
        ("server.replay_job_ms", "server.replay_job"),
    ] {
        run.set(metric, mean_ms(span));
    }
    run.set("server.submit_rtt_us", mean_ms("server.submit") * 1e3);
    run.set(
        "replay.scratch_seek_us",
        mean_ms("replay.scratch_seek") * 1e3,
    );
    let seeks = table
        .get("replay.seek")
        .map_or(&[][..], |s| s.durations_us.as_slice());
    run.set("replay.seek_us_p50", crate::stats::median(seeks));
    run.set(
        "replay.seek_us_p95",
        crate::stats::supported_percentile(seeks, 95.0),
    );
}

/// The sanity gate on a full traced run: the spans must account for at
/// least 95 % of the time inside the sweep or session roots, or the
/// attribution is not worth reading.
pub fn coverage_gate(ctx: &mut crate::Ctx<'_>) {
    let coverage = ctx.run.get("obs.span_coverage_pct").unwrap_or(0.0);
    let enough = ctx.cfg.quick || coverage >= 95.0;
    ctx.run.check(enough, || {
        format!("spans cover only {coverage:.1} % of the traced time")
    });
}

/// Renders the table as aligned text, widest self time first.
pub fn render(table: &SpanTable) -> String {
    let mut rows: Vec<(&String, &SpanStat)> = table.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10}\n",
        "span", "count", "total ms", "self ms", "mean ms"
    );
    for (name, s) in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>10.4}\n",
            name,
            s.count(),
            s.total_us / 1e3,
            s.self_us / 1e3,
            s.mean_ms()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_obs::trace;

    fn ev(seq: u64, kind: EventKind, name: &str, thread: u64, micros: u64) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            name: name.into(),
            thread,
            session: 1,
            micros,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        use EventKind::{Begin, End};
        // root 0..100; a 10..40 holding a1 10..40 (fully overlapping
        // its parent); b 50..70. Root self = 100 - 30 - 20 = 50: the
        // grandchild must not be subtracted from the root again.
        let events = vec![
            ev(0, Begin, "root", 0, 0),
            ev(1, Begin, "a", 0, 10),
            ev(2, Begin, "a1", 0, 10),
            ev(3, End, "a1", 0, 40),
            ev(4, End, "a", 0, 40),
            ev(5, Begin, "b", 0, 50),
            ev(6, End, "b", 0, 70),
            ev(7, End, "root", 0, 100),
        ];
        let t = self_times(&events);
        assert_eq!(t["root"].self_us, 50.0);
        assert_eq!(t["root"].total_us, 100.0);
        assert_eq!(t["a"].self_us, 0.0);
        assert_eq!(t["a1"].self_us, 30.0);
        assert_eq!(t["b"].self_us, 20.0);
        assert_eq!(coverage_pct(&t, &["root"]), 50.0);
        assert_eq!(share_pct(&t, &["root"], &["a"]), 30.0);
        let total_self: f64 = t.values().map(|s| s.self_us).sum();
        assert_eq!(total_self, 100.0, "self times partition the root");
    }

    #[test]
    fn threads_nest_independently_and_strays_are_ignored() {
        use EventKind::{Begin, End};
        let events = vec![
            ev(0, End, "stray", 0, 1),
            ev(1, Begin, "root", 0, 0),
            ev(2, Begin, "root", 1, 5),
            ev(3, Begin, "x", 1, 6),
            ev(4, End, "root", 0, 10),
            ev(5, End, "x", 1, 9),
            ev(6, End, "root", 1, 15),
            ev(7, Begin, "unclosed", 0, 20),
        ];
        let t = self_times(&events);
        assert_eq!(t["root"].count(), 2);
        assert_eq!(t["root"].total_us, 20.0);
        assert_eq!(t["root"].self_us, 17.0);
        assert_eq!(t["x"].total_us, 3.0);
        assert!(!t.contains_key("stray") && !t.contains_key("unclosed"));
    }

    #[test]
    fn tracer_records_only_when_enabled_and_round_trips() {
        let tracer = Tracer::new();
        tracer.call("off", 1, || ());
        assert!(tracer.drain().is_empty());
        tracer.set_enabled(true);
        let v = tracer.call("outer", 7, || tracer.call("inner", 7, || 42));
        assert_eq!(v, 42);
        let events = tracer.drain();
        assert_eq!(events.len(), 4);
        let t = self_times(&events);
        assert_eq!(t["outer"].count(), 1);
        assert_eq!(t["inner"].count(), 1);
        let bytes = trace::to_bytes(&events);
        assert_eq!(trace::from_bytes(&bytes).unwrap(), events);
    }
}
