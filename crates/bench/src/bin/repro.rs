//! `repro` — regenerates every table and figure of the QuickRec
//! evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! the paper-vs-measured record).
//!
//! ```text
//! cargo run --release -p qr-bench --bin repro -- all
//! cargo run --release -p qr-bench --bin repro -- e5
//! cargo run --release -p qr-bench --bin repro -- e9b e14 e15
//! cargo run --release -p qr-bench --bin repro -- all --serial
//! cargo run --release -p qr-bench --bin repro -- all --jobs 4
//! cargo run --release -p qr-bench --bin repro -- r1 --fuzz-iters 200
//! ```
//!
//! Experiments decompose into independent (workload, configuration)
//! jobs that run on a scoped thread pool (see `qr_bench::runner`); the
//! simulator is deterministic and results are rendered in submission
//! order, so the output is byte-identical whichever mode runs it.
//! `--serial` runs the jobs on this thread; `--jobs N` sets the worker
//! count (default: the host's available cores).
//!
//! `repro` owns no clock: every number it prints is seed-deterministic.
//! Host speed is measured by `bench/` alone (see `BENCHMARK.json`).

use qr_bench::experiments::{render_experiments, ALL_IDS, EXPLICIT_ONLY_IDS};
use qr_bench::runner::ExecMode;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = ExecMode::parallel_default();
    let mut selected: Vec<&'static str> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--serial" => mode = ExecMode::Serial,
            "--jobs" => {
                let workers = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    });
                mode = ExecMode::Parallel { workers };
            }
            "--fuzz-iters" => {
                let total = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--fuzz-iters needs a positive integer");
                        std::process::exit(2);
                    });
                qr_bench::fault::set_fuzz_cases(total);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`; flags: --serial, --jobs N, --fuzz-iters N");
                std::process::exit(2);
            }
            "all" => selected.extend(ALL_IDS),
            other => match ALL_IDS.iter().chain(&EXPLICIT_ONLY_IDS).find(|&&id| id == other) {
                Some(&id) => selected.push(id),
                None => {
                    eprintln!(
                        "unknown experiment `{other}`; known: {ALL_IDS:?}, \
                         explicit only: {EXPLICIT_ONLY_IDS:?}, or `all`"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    if selected.is_empty() {
        selected.extend(ALL_IDS);
    }

    let (output, failure) = render_experiments(&selected, mode);
    print!("{output}");
    if let Some((exp, e)) = failure {
        std::io::stdout().flush().ok();
        eprintln!("experiment {exp} failed: {e}");
        std::process::exit(1);
    }
}
