//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median with its quartiles
//! and the highest percentile the sample count supports: a percentile
//! is only quoted when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a "p99" over forty samples is never printed.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest candidate percentile with at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when not even p75 qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= MIN_BEYOND)
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // Computed in integers (p has at most one decimal) so that 200
    // samples give exactly 10 beyond p95, not 9.999….
    let per_mille = (p * 10.0).round() as usize;
    n * (1000 - per_mille.min(1000)) / 1000
}

/// Percentile `p` (0..=100) of an ascending slice, linearly
/// interpolated between the two nearest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Arithmetic mean (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The value at percentile `p` when the sample count supports it,
/// otherwise at the highest supported candidate below it (the median
/// when none is).
pub fn supported_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let supported = TAILS
        .into_iter()
        .find(|t| *t <= p && samples_beyond(sorted.len(), *t) >= MIN_BEYOND)
        .unwrap_or(50.0);
    percentile(&sorted, supported)
}

/// What is reported for one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p25: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            p75: percentile(&sorted, 75.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }

    /// `p50 [p25..p75] pNN=v n=N` with `unit` appended to the median.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.3}"),
            None => String::new(),
        };
        format!(
            "{:.3} {unit} [{:.3}..{:.3}]{tail} n={}",
            self.p50, self.p25, self.p75, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 62.5), 3.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn unsupported_percentile_falls_back() {
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail.map(|t| t.0), Some(75.0));
        // p95 of 50 samples has 2 beyond it: fall back to p75.
        assert_eq!(supported_percentile(&samples, 95.0), s.p75);
        let few: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(supported_percentile(&few, 95.0), 2.0);
    }
}
