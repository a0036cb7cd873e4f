#![warn(missing_docs)]

//! Experiment support library for the QuickRec-RS reproduction.
//!
//! The `repro` binary regenerates every table and figure of the
//! evaluation (see DESIGN.md's experiment index); this library holds the
//! shared measurement helpers and a small fixed-width table formatter so
//! the experiments print uniform, diff-able output.

pub mod experiments;
pub mod fault;
pub mod runner;

use qr_capo::{record, Recording, RecordingConfig, RecordingMode};
use qr_common::Result;
use qr_cpu::{CpuConfig, Machine};
use qr_os::{run_native, OsConfig, RunOutcome};
use qr_workloads::{Scale, WorkloadSpec};
use runner::BuildCache;

/// The simulated core clock, used to convert cycles to wall time when an
/// experiment reports rates (the QuickIA FPGA cores ran at 60 MHz).
pub const CORE_HZ: f64 = 60_000_000.0;

/// Runs a workload natively (no recording), sourcing the program from
/// a shared [`BuildCache`] so concurrent experiment jobs build each
/// (workload, threads, scale) key once.
///
/// # Errors
///
/// Propagates build and execution errors.
pub fn run_native_workload_with(
    cache: &BuildCache,
    spec: &WorkloadSpec,
    threads: usize,
    scale: Scale,
) -> Result<RunOutcome> {
    let program = cache.program(spec, threads, scale)?;
    let mut machine =
        Machine::new(program, CpuConfig { num_cores: threads, ..CpuConfig::default() })?;
    run_native(&mut machine, OsConfig::default())
}

/// Records a workload with the given configuration, sourcing the
/// program from a shared [`BuildCache`].
///
/// # Errors
///
/// Propagates build and recording errors; also checks the workload's
/// self-validation checksum.
pub fn record_workload_with(
    cache: &BuildCache,
    spec: &WorkloadSpec,
    threads: usize,
    scale: Scale,
    cfg: RecordingConfig,
) -> Result<Recording> {
    let recording = record(cache.program(spec, threads, scale)?, cfg)?;
    let expected = (spec.expected)(threads, scale);
    if recording.exit_code != expected {
        return Err(qr_common::QrError::Execution {
            detail: format!(
                "{}: recorded checksum {:#x} != expected {:#x}",
                spec.name, recording.exit_code, expected
            ),
        });
    }
    Ok(recording)
}

/// Convenience: a full-stack recording config for `threads` cores.
pub fn full_cfg(threads: usize) -> RecordingConfig {
    RecordingConfig::with_cores(threads)
}

/// Convenience: a hardware-only recording config for `threads` cores.
pub fn hw_cfg(threads: usize) -> RecordingConfig {
    RecordingConfig { mode: RecordingMode::HardwareOnly, ..RecordingConfig::with_cores(threads) }
}

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch — a bug in the experiment code.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "table row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns (first column
    /// left-aligned, the rest right-aligned).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                }
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(numer: u64, denom: u64) -> String {
    if denom == 0 {
        "-".to_string()
    } else {
        format!("{:.2}%", 100.0 * numer as f64 / denom as f64)
    }
}

/// Relative overhead of `measured` cycles versus `baseline` cycles.
pub fn overhead_pct(measured: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        0.0
    } else {
        100.0 * (measured as f64 / baseline as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "123456"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer-name"));
        // Right-aligned numeric column ends at the same offset.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn percentage_helpers() {
        assert_eq!(pct(1, 4), "25.00%");
        assert_eq!(pct(1, 0), "-");
        assert!((overhead_pct(113, 100) - 13.0).abs() < 1e-9);
        assert_eq!(overhead_pct(5, 0), 0.0);
    }
}
