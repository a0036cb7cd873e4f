//! The benchmark's contract: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json`
//! at the repository root is [`benchmark_json`] printed (`qr-e2e
//! --spec`), so the file and the binary cannot name different metrics.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u32 = 12;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
    /// Computed from simulated state only: repeats exactly for one
    /// seed, and must not move under a change meant to alter speed.
    pub exact: bool,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "pipeline_compute",
        why: "fft/lu/ocean/volrend, Delta, total order: record, store, fetch, serial replay. Simulator-bound, tiny logs: cpu/mem/os/core changes show here; codec, store and server changes must not.",
    },
    WorkloadSpec {
        name: "pipeline_sharing",
        why: "cholesky/radiosity/radix/raytrace, Raw, partial order, ordered replay: short chunks, snoop-heavy coherence, 10-30x larger logs, po derivation. The pipeline_compute code used the other way.",
    },
    WorkloadSpec {
        name: "archive_churn",
        why: "No simulation: 22 recordings x 3 encodings put, fetched, compared, verified, then re-fetched twice. The only workload where encodings, CRC/framing and store LZ/blocks/commit do most of the work.",
    },
    WorkloadSpec {
        name: "daemon_sessions",
        why: "In-process quickrecd, 2 closed-loop clients running whole sessions (submit, wait, fetch, query, replay) over all 24 session shapes. Only here do proto, event loop, pool, registry and polling dominate.",
    },
    WorkloadSpec {
        name: "time_travel",
        why: "Checkpoint-index build and serialise (write) beside reload, 300 seeded seeks and a query mix per recording (read): index changes trade index bytes and build speed against seek speed.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one of them (the
/// README's table says what the "op" is on each workload); none is
/// ever 0. A bound covers every workload, so it is set by the noisiest:
/// on the shared host the benchmark was written on, host-normalised
/// rates still spread by up to a tenth between runs while the machine
/// is disturbed (a fifth to a third without normalisation), and a bound
/// tighter than that would reject unchanged code.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("ops_per_s", "1/s", Higher, 0.25, false),
    e2e("write_ops_per_s", "1/s", Higher, 0.25, false),
    e2e("read_ops_per_s", "1/s", Higher, 0.25, false),
    e2e("latency_p50_ms", "ms", Lower, 0.25, false),
    e2e("stored_bytes_per_kinstr", "B/kinstr", Lower, 0.01, true),
    e2e("modelled_overhead_pct", "%", Lower, 0.01, true),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
];

/// Per-layer metrics, prefixed by the crate they measure. A workload
/// that never enters a layer reports 0 for that layer's call timings.
pub const PER_LAYER: [MetricSpec; 81] = [
    // isa + workloads
    layer("workloads.build_ms", "ms", Lower),
    // cpu
    layer("cpu.native_minstr_s", "Minstr/s", Higher),
    layer("cpu.step_ns", "ns", Lower),
    exact("cpu.sim_ipc", "instr/cycle", Higher),
    // mem
    layer("mem.private_access_ns", "ns", Lower),
    layer("mem.shared_access_ns", "ns", Lower),
    exact("mem.l1_hit_share", "%", Higher),
    exact("mem.bus_txns_per_kinstr", "1/kinstr", Lower),
    // os
    layer("os.native_vs_step_pct", "%", Lower),
    // core
    layer("core.record_tax_pct", "%", Lower),
    layer("core.signature_insert_ns", "ns", Lower),
    exact("core.chunks_per_kinstr", "1/kinstr", Lower),
    exact("core.mean_chunk_instrs", "instr", Higher),
    layer("core.encode_mb_s.raw", "MB/s", Higher),
    layer("core.encode_mb_s.packed", "MB/s", Higher),
    layer("core.encode_mb_s.delta", "MB/s", Higher),
    layer("core.decode_mb_s.raw", "MB/s", Higher),
    layer("core.decode_mb_s.packed", "MB/s", Higher),
    layer("core.decode_mb_s.delta", "MB/s", Higher),
    layer("core.po_derive_ms", "ms", Lower),
    exact("core.order_bytes_per_kinstr", "B/kinstr", Lower),
    // capo
    layer("capo.record_ms", "ms", Lower),
    layer("capo.to_parts_ms", "ms", Lower),
    layer("capo.from_parts_ms", "ms", Lower),
    exact("capo.input_log_bytes_per_kinstr", "B/kinstr", Lower),
    // common
    layer("common.crc32_mb_s", "MB/s", Higher),
    layer("common.frame_write_mb_s", "MB/s", Higher),
    layer("common.frame_scan_mb_s", "MB/s", Higher),
    layer("common.varint_mops", "Mops/s", Higher),
    // store
    layer("store.lz_compress_mb_s", "MB/s", Higher),
    layer("store.lz_decompress_mb_s", "MB/s", Higher),
    layer("store.open_ms", "ms", Lower),
    layer("store.put_ms", "ms", Lower),
    layer("store.fetch_ms", "ms", Lower),
    layer("store.verify_ms", "ms", Lower),
    exact("store.ratio", "x", Higher),
    // replay
    layer("replay.serial_minstr_s", "Minstr/s", Higher),
    layer("replay.ordered_j1_minstr_s", "Minstr/s", Higher),
    layer("replay.parallel_j2_minstr_s", "Minstr/s", Higher),
    layer("replay.parallel_dag_build_ms", "ms", Lower),
    exact("replay.parallel_dag_edges", "count", Lower),
    layer("replay.races_minstr_s", "Minstr/s", Higher),
    layer("replay.index_build_ms", "ms", Lower),
    layer("replay.index_load_ms", "ms", Lower),
    layer("replay.seek_us_p50", "us", Lower),
    layer("replay.seek_us_p95", "us", Lower),
    layer("replay.scratch_seek_us", "us", Lower),
    exact("replay.seek_reexec_events", "count", Lower),
    layer("replay.query_ms.range", "ms", Lower),
    layer("replay.query_ms.window", "ms", Lower),
    layer("replay.query_ms.reverse_step", "ms", Lower),
    // server
    layer("server.connect_us", "us", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.submit_rtt_us", "us", Lower),
    layer("server.wait_ms", "ms", Lower),
    layer("server.fetch_ms", "ms", Lower),
    exact("server.fetch_bytes", "B", Lower),
    layer("server.query_ms", "ms", Lower),
    layer("server.replay_job_ms", "ms", Lower),
    layer("server.local_equiv_ms", "ms", Lower),
    layer("server.session_overhead_ms", "ms", Lower),
    layer("server.session_p95_ms", "ms", Lower),
    layer("server.batch_sessions_per_s", "1/s", Higher),
    layer("server.busy_share", "%", Lower),
    layer("server.proto_encode_mb_s", "MB/s", Higher),
    layer("server.proto_decode_mb_s", "MB/s", Higher),
    // obs: what the harness's own tracing costs and covers
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.span_coverage_pct", "%", Higher),
    // where the traced wall time went, by kind of call
    layer("trace.sim_share_pct", "%", Lower),
    layer("trace.codec_store_share_pct", "%", Lower),
    layer("trace.server_share_pct", "%", Lower),
    layer("trace.harness_share_pct", "%", Lower),
    // the traced run's own view of the two halves of a sweep
    layer("trace.write_half_ms", "ms", Lower),
    layer("trace.read_half_ms", "ms", Lower),
    // conversion factors from ops to the workload's natural units
    exact("work.ops_per_sweep", "count", Higher),
    exact("work.minstr_per_sweep", "Minstr", Higher),
    exact("work.stored_mb_per_sweep", "MB", Lower),
    exact("work.raw_mb_per_sweep", "MB", Lower),
    exact("work.index_mb_per_sweep", "MB", Lower),
    layer("work.sweeps", "count", Higher),
    layer("work.tail_percentile", "%", Higher),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `s` as a JSON string literal.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            m.better.word(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            m.better.word()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s gets the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench/run.sh --spec > BENCHMARK.json`"
        );
    }
}
