//! `qr-e2e` command line. `bench/run.sh` builds and runs it.
//!
//! ```text
//! qr-e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]
//! qr-e2e --list          # workload names, one a line
//! qr-e2e --spec          # the text of BENCHMARK.json
//! ```
//!
//! Prints the metric table, then — as the last line of standard output —
//! the result object. Exits 0 only when every operation was correct.

use qr_e2e::{report, spec, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: qr-e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]\n       qr-e2e --list | --spec";

enum Command {
    Run(Config),
    List,
    Spec,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        quick: false,
        out: PathBuf::from("bench/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--list" => return Ok(Command::List),
            "--spec" => return Ok(Command::Spec),
            "--workload" => cfg.workload = value(&mut i, "--workload")?,
            "--seed" => {
                cfg.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cfg.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            // `--trace` alone means a traced run; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cfg.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cfg.trace = true;
                    i += 1;
                }
                _ => cfg.trace = true,
            },
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = PathBuf::from(value(&mut i, "--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if spec::workload(&cfg.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of: {}", names.join(", ")));
    }
    Ok(Command::Run(cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(Command::List) => {
            for w in &spec::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Command::Spec) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(cfg)) => cfg,
        Err(e) => {
            eprintln!("qr-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match qr_e2e::run(&cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("qr-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report::append_record(&cfg, &run) {
        eprintln!(
            "qr-e2e: writing {}: {e}",
            cfg.out.join("results.jsonl").display()
        );
        return ExitCode::from(2);
    }
    print!("{}", run.table());
    println!("{}", run.json());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
