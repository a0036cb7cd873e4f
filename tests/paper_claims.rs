//! The abstract's claims as assertions on the pinned `repro` tables.
//!
//! `tests/golden/repro/` pins every table byte for byte, and a change
//! that moves a table on purpose regenerates the pin. These checks hold
//! the regenerated tables to the paper instead: hardware recording is
//! free (E5 hw-only), the software stack costs "nearly 13 %" (E5 mean),
//! and the memory log of regular kernels is "insignificant" (E1). The
//! bands are stated in EXPERIMENTS.md under E1 and E5; they were chosen
//! once, and a table that leaves one is a finding, not a reason to
//! widen it.

const E1: &str = include_str!("golden/repro/e1.txt");
const E5: &str = include_str!("golden/repro/e5.txt");

/// E5's full-stack mean must lie in 12.0–14.0 %: the paper's "nearly
/// 13 %" ± 1 pp.
const E5_MEAN_BAND: (f64, f64) = (12.0, 14.0);

/// E1's regular kernels must log 1–5 B/kilo-instruction, the paper's
/// range for them.
const E1_REGULAR_BAND: (f64, f64) = (1.0, 5.0);
const E1_REGULAR: [&str; 5] = ["fft", "lu", "ocean", "barnes", "water"];

/// The whitespace-split rows of a pinned table: the lines after its
/// dashed rule, up to its `mean` line.
fn rows(table: &str) -> Vec<Vec<&str>> {
    table
        .lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .take_while(|line| !line.starts_with("mean"))
        .map(|line| line.split_whitespace().collect())
        .collect()
}

/// The number after `prefix` on the table's line that starts with it,
/// without a trailing `%`.
fn figure(table: &str, prefix: &str) -> f64 {
    let line = table.lines().find_map(|line| line.strip_prefix(prefix)).unwrap_or_else(|| panic!("no `{prefix}` line"));
    let number = line.split_whitespace().next().expect("a figure").trim_end_matches('%');
    number.parse().unwrap_or_else(|e| panic!("`{prefix}{number}`: {e}"))
}

fn percent(cell: &str) -> f64 {
    cell.trim_end_matches('%').parse().unwrap_or_else(|e| panic!("`{cell}`: {e}"))
}

#[test]
fn e5_hardware_only_recording_costs_nothing_on_every_workload() {
    let rows = rows(E5);
    assert_eq!(rows.len(), 11, "one row per suite workload: {rows:?}");
    for row in rows {
        assert_eq!(row[2], "0.00%", "{}: hardware-only overhead", row[0]);
    }
}

#[test]
fn e5_full_stack_mean_is_nearly_13_percent() {
    let mean = figure(E5, "mean full-stack overhead: ");
    let (low, high) = E5_MEAN_BAND;
    assert!((low..=high).contains(&mean), "E5 mean {mean} % outside {low}–{high} %");
    // The printed mean is the mean of the rows above it.
    let rows = rows(E5);
    let row_mean = rows.iter().map(|row| percent(row[3])).sum::<f64>() / rows.len() as f64;
    assert!((row_mean - mean).abs() <= 0.05, "rows average {row_mean:.3} %, the table prints {mean} %");
}

#[test]
fn e1_regular_kernels_log_one_to_five_bytes_per_kilo_instruction() {
    let rows = rows(E1);
    let (low, high) = E1_REGULAR_BAND;
    for workload in E1_REGULAR {
        let row = rows.iter().find(|row| row[0] == workload).unwrap_or_else(|| panic!("no E1 row for {workload}"));
        let rate: f64 = row[3].parse().expect("B/kilo-instr");
        assert!((low..=high).contains(&rate), "{workload}: {rate} B/kilo-instr outside {low}–{high}");
    }
}
