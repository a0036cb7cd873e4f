//! Happens-before primitives shared by every consumer of the recorded
//! order: the per-line conflict sweep and the dense vector clock.
//!
//! Two timeline nodes must stay ordered at replay only if their
//! cache-line footprints conflict (some shared line written by at least
//! one of them). [`ConflictSweep`] finds those pairs in one pass over
//! the timeline in recorded order; [`crate::po::derive`] keeps the
//! cross-thread ones and reduces them with [`VectorClock`]s into the
//! `order.qrp` edge set, the parallel replayer's dependency DAG takes
//! every pair as it comes, and the replay-time race detector runs its
//! word-granular analysis on the same clock type.

use crate::footprint::ChunkFootprint;
use std::collections::HashMap;

/// A vector clock over dense thread indices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorClock {
    ticks: Vec<u32>,
}

impl VectorClock {
    /// The zero clock over `n` threads.
    pub fn new(n: usize) -> VectorClock {
        VectorClock { ticks: vec![0; n] }
    }

    /// Thread `t`'s component (0 for a thread the clock does not cover).
    pub fn get(&self, t: usize) -> u32 {
        self.ticks.get(t).copied().unwrap_or(0)
    }

    /// Sets thread `t`'s component.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the clock.
    pub fn set(&mut self, t: usize, value: u32) {
        self.ticks[t] = value;
    }

    /// Advances thread `t`'s component by one.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the clock.
    pub fn tick(&mut self, t: usize) {
        self.ticks[t] += 1;
    }

    /// Component-wise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, &b) in self.ticks.iter_mut().zip(&other.ticks) {
            *a = (*a).max(b);
        }
    }

    /// Whether the epoch `(t, c)` happened before this clock.
    pub fn covers(&self, t: usize, c: u32) -> bool {
        c <= self.get(t)
    }
}

/// The conflict sweep: per-line last-writer / readers-since bookkeeping
/// over timeline nodes visited in recorded order, at cache-line
/// granularity — the granularity the recording hardware detects
/// conflicts at.
#[derive(Debug, Default)]
pub struct ConflictSweep {
    last_writer: HashMap<u32, usize>,
    readers_since: HashMap<u32, Vec<usize>>,
}

impl ConflictSweep {
    /// An empty sweep.
    pub fn new() -> ConflictSweep {
        ConflictSweep::default()
    }

    /// Visits node `idx` (indices must ascend across calls) and calls
    /// `pred` with every earlier node it conflicts with: the last writer
    /// of each line it touches (RAW, WAW) and every reader of each line
    /// it writes since that writer (WAR). A predecessor may be reported
    /// more than once; farther conflicts are implied transitively
    /// through the reported ones.
    pub fn visit(&mut self, idx: usize, footprint: &ChunkFootprint, mut pred: impl FnMut(usize)) {
        // For RAW purposes a node observes every line it touches.
        for line in footprint.reads.iter().chain(&footprint.writes) {
            if let Some(&w) = self.last_writer.get(&line.0) {
                if w != idx {
                    pred(w);
                }
            }
            self.readers_since.entry(line.0).or_default().push(idx);
        }
        for line in &footprint.writes {
            let since = self.readers_since.entry(line.0).or_default();
            since.iter().filter(|&&r| r != idx).for_each(|&r| pred(r));
            // The writer stays registered as a reader of the new value,
            // for the next writer's WAR edge.
            since.clear();
            since.push(idx);
            self.last_writer.insert(line.0, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::{Cycle, LineAddr};

    #[test]
    fn vector_clock_joins_and_covers() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        a.set(2, 5);
        let mut b = VectorClock::new(3);
        b.set(1, 4);
        b.join(&a);
        assert_eq!((b.get(0), b.get(1), b.get(2)), (1, 4, 5));
        assert!(b.covers(2, 5) && !b.covers(2, 6));
        assert_eq!(b.get(9), 0, "uncovered threads read as zero");
        assert!(b.covers(9, 0) && !b.covers(9, 1));
    }

    #[test]
    fn sweep_reports_raw_waw_and_war_predecessors() {
        let fp = |reads: &[u32], writes: &[u32]| {
            ChunkFootprint::new(
                Cycle(0),
                reads.iter().map(|&l| LineAddr(l)).collect(),
                writes.iter().map(|&l| LineAddr(l)).collect(),
            )
        };
        let mut sweep = ConflictSweep::new();
        let preds = |sweep: &mut ConflictSweep, idx, fp: &ChunkFootprint| {
            let mut out = Vec::new();
            sweep.visit(idx, fp, |p| out.push(p));
            out.sort_unstable();
            out.dedup();
            out
        };
        assert_eq!(preds(&mut sweep, 0, &fp(&[], &[1])), []);
        assert_eq!(preds(&mut sweep, 1, &fp(&[1], &[])), [0], "RAW");
        assert_eq!(preds(&mut sweep, 2, &fp(&[1], &[2])), [0], "RAW");
        assert_eq!(preds(&mut sweep, 3, &fp(&[], &[1])), [0, 1, 2], "WAW + WAR");
        assert_eq!(preds(&mut sweep, 4, &fp(&[2], &[1])), [2, 3], "RAW on 2, WAW on 1");
        assert_eq!(preds(&mut sweep, 5, &fp(&[7], &[7])), [], "never its own predecessor");
    }
}
