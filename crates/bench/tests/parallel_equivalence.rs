//! The determinism contract of the parallel experiment executor: for any
//! experiment selection, parallel execution renders the exact bytes the
//! serial fallback renders.

use qr_bench::experiments::{render_experiments, ALL_IDS, EXPLICIT_ONLY_IDS};
use qr_bench::runner::ExecMode;

/// Renders the given experiments, asserting success.
fn render(ids: &[&str], mode: ExecMode) -> String {
    let (out, failure) = render_experiments(ids, mode);
    if let Some((exp, e)) = failure {
        panic!("experiment {exp} failed under {mode:?}: {e}");
    }
    out
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // Three full experiment tables (the CBUF and scheduling-quantum
    // ablations and the time-travel index gate): cheap enough for a
    // debug-mode test, and their job lists exercise multi-workload
    // fan-out, the shared build cache, multi-row jobs, and rendering
    // with and without a computed footer.
    let ids = ["a2", "a6", "e14"];
    let serial = render(&ids, ExecMode::Serial);
    for workers in [2, 4, 16] {
        let parallel = render(&ids, ExecMode::Parallel { workers });
        assert_eq!(serial, parallel, "{workers}-worker output diverged from serial");
    }
}

#[test]
fn explicit_only_ids_stay_out_of_repro_all() {
    for id in EXPLICIT_ONLY_IDS {
        assert!(!ALL_IDS.contains(&id), "`{id}` is both explicit-only and in `repro all`");
    }
}

#[test]
fn fault_injection_report_is_mode_invariant() {
    // R1's random streams are keyed per job (workload, encoding,
    // mutator), never shared, so the fuzz campaign must render the same
    // bytes however the scheduler interleaves its 60 jobs.
    qr_bench::fault::set_fuzz_cases(30);
    let ids = ["r1"];
    let serial = render(&ids, ExecMode::Serial);
    for workers in [2, 8] {
        let parallel = render(&ids, ExecMode::Parallel { workers });
        assert_eq!(serial, parallel, "{workers}-worker R1 output diverged from serial");
    }
    assert!(serial.contains("mean salvaged-timeline fraction"), "{serial}");
}

#[test]
fn rendered_report_has_the_expected_shape() {
    let out = render(&["a6"], ExecMode::Parallel { workers: 4 });
    assert!(out.starts_with("\n=== A6: "), "heading present: {out:?}");
    assert!(out.contains("quantum"), "table header present");
    // One line per quantum setting.
    assert_eq!(out.matches("PASS").count(), 4);
}
