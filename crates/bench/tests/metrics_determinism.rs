//! `qr-obs` is observational only: the experiment harness must render
//! byte-identical reports whether or not its caller traces the run in a
//! journal it owns (the libraries keep no metrics of their own to turn
//! on). A report that shifts when observability is on would poison
//! every cross-run comparison in the paper tables.

use qr_bench::experiments::render_experiments;
use qr_bench::runner::ExecMode;

/// Renders the given experiments serially, asserting success.
fn render(ids: &[&str]) -> String {
    let (out, failure) = render_experiments(ids, ExecMode::Serial);
    if let Some((exp, e)) = failure {
        panic!("experiment {exp} failed: {e}");
    }
    out
}

#[test]
fn harness_output_is_byte_identical_with_observability_on_and_off() {
    // One table that records nothing (the platform-parameters table) and
    // one that drives real recordings through the instrumented recorder
    // and chunk-log paths — cheap enough for a debug-mode test.
    let ids = ["t1", "a2"];
    let journal = qr_obs::Journal::new();

    journal.set_enabled(true);
    let observed = {
        let _span = journal.span("render", 0);
        render(&ids)
    };
    journal.set_enabled(false);
    assert_eq!(journal.drain().len(), 2, "the observed render was traced");
    let blind = render(&ids);

    assert_eq!(
        observed, blind,
        "experiment report changed with metrics and tracing enabled"
    );
}
