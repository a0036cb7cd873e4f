//! `--quick` runs: one sweep at `Scale::Test` per workload, traced and
//! untraced. They must finish in seconds and still make every
//! correctness check the full run makes.

use qr_e2e::{spec, Config};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn quick(tag: &str, workload: &str, trace: bool) -> (qr_e2e::report::Run, Duration) {
    // One directory per caller: tests run in parallel.
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{tag}-{workload}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&out);
    let cfg = Config {
        workload: workload.into(),
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        out: out.clone(),
    };
    let started = Instant::now();
    let run = qr_e2e::run(&cfg).expect("the workload runs");
    let took = started.elapsed();
    if trace {
        let stem = format!("{workload}-seed7");
        let journal =
            std::fs::read(out.join(format!("{stem}.spans.qrt"))).expect("span journal written");
        let events = qr_obs::trace::from_bytes(&journal).expect("span journal parses");
        assert!(!events.is_empty());
        assert!(out.join(format!("{stem}.selftime.txt")).exists());
    }
    assert!(
        !out.join(format!("tmp-{}", std::process::id())).exists(),
        "scratch is removed when the run ends"
    );
    let _ = std::fs::remove_dir_all(&out);
    (run, took)
}

fn check(workload: &str) {
    for trace in [false, true] {
        let (run, took) = quick("quick", workload, trace);
        assert!(run.correct(), "{workload} trace={trace}:\n{}", run.table());
        assert!(
            run.attempted >= 20,
            "{workload}: only {} checks made",
            run.attempted
        );
        assert!(
            took < Duration::from_secs(10),
            "{workload} trace={trace} took {took:?}"
        );
        let reported = if trace {
            &spec::PER_LAYER[..]
        } else {
            &spec::END_TO_END[..]
        };
        let json = run.json();
        for m in reported {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{workload}: {} missing",
                m.name
            );
        }
        if !trace {
            for m in &spec::END_TO_END {
                let v = run.get(m.name).unwrap_or(0.0);
                assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
            }
        } else {
            let coverage = run.get("obs.span_coverage_pct").unwrap_or(0.0);
            assert!(
                coverage >= 90.0,
                "{workload}: spans cover only {coverage:.1}% of the traced time"
            );
        }
    }
}

#[test]
fn pipeline_compute_quick() {
    check("pipeline_compute");
}

#[test]
fn pipeline_sharing_quick() {
    check("pipeline_sharing");
}

#[test]
fn archive_churn_quick() {
    check("archive_churn");
}

#[test]
fn daemon_sessions_quick() {
    check("daemon_sessions");
}

#[test]
fn time_travel_quick() {
    check("time_travel");
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = Config {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        quick: true,
        out: "unused".into(),
    };
    assert!(qr_e2e::run(&cfg).is_err());
}

/// The separation the workloads were designed for, visible even at
/// `--quick` size: simulator-facing calls carry the pipelines and none
/// of the archive; server calls carry the daemon sessions.
#[test]
fn traced_shares_separate_the_workloads() {
    let share = |workload: &str, metric: &str| {
        quick("shares", workload, true)
            .0
            .get(metric)
            .unwrap_or(-1.0)
    };
    assert!(share("pipeline_compute", "trace.sim_share_pct") > 80.0);
    assert_eq!(share("archive_churn", "trace.sim_share_pct"), 0.0);
    assert!(share("archive_churn", "trace.codec_store_share_pct") > 70.0);
    assert!(share("daemon_sessions", "trace.server_share_pct") > 80.0);
}
