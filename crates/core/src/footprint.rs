//! Per-chunk read/write footprints — the conflict evidence behind
//! parallel replay.
//!
//! A [`crate::chunk::ChunkPacket`] says *when* a chunk committed but not
//! *what* it touched; the signatures that detected its conflicts are
//! Bloom filters and cannot be inverted. To replay chunks concurrently
//! the replayer needs the exact cache-line read and write sets of every
//! chunk, so the recorder also logs a [`ChunkFootprint`] per chunk (and
//! per injected input event), keyed by the same global timestamp that
//! orders the chunk log. Two timeline nodes must then be ordered at
//! replay only if they are from the same thread or their footprints
//! actually conflict (write/write or read/write on a shared line) — the
//! conflict-equivalence relaxation of the recorded total order.
//!
//! Footprints are record-time evidence, not part of the recording: the
//! recorder keeps them in memory ([`FootprintLog`]) for the consumers that
//! work on a fresh recording — partial-order derivation ([`crate::po`])
//! and the modelled parallel-replay schedule — and nothing persists them.
//! A recording loaded from disk or a store carries none, and parallel
//! replay then runs the serial path. Missing footprints never affect
//! correctness, only the modelled replay-time parallelism.

use qr_common::{Cycle, LineAddr};
use std::collections::BTreeMap;

/// The read/write cache-line sets of one chunk (or one input event's
/// kernel-side memory activity), keyed by its global timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkFootprint {
    /// Global timestamp of the chunk packet / input event this footprint
    /// belongs to (unique across a recording).
    pub ts: Cycle,
    /// Lines read, sorted and deduplicated.
    pub reads: Vec<LineAddr>,
    /// Lines written, sorted and deduplicated.
    pub writes: Vec<LineAddr>,
}

impl ChunkFootprint {
    /// Builds a footprint, sorting and deduplicating the line sets.
    pub fn new(ts: Cycle, mut reads: Vec<LineAddr>, mut writes: Vec<LineAddr>) -> ChunkFootprint {
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        ChunkFootprint { ts, reads, writes }
    }

    /// Whether executing `self` and `other` concurrently could produce a
    /// different memory image than the recorded order: some shared line
    /// is written by at least one of them.
    pub fn conflicts_with(&self, other: &ChunkFootprint) -> bool {
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&self.reads, &other.writes)
    }
}

/// Whether two sorted, deduplicated line slices share an element.
fn sorted_intersects(a: &[LineAddr], b: &[LineAddr]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The in-memory footprint log of a fresh recording: one
/// [`ChunkFootprint`] per chunk packet and per input event, indexed by
/// global timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FootprintLog {
    entries: BTreeMap<u64, ChunkFootprint>,
}

impl FootprintLog {
    /// An empty log.
    pub fn new() -> FootprintLog {
        FootprintLog::default()
    }

    /// Number of footprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no footprints.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a footprint. Timestamps are unique across a recording, so
    /// a colliding insert unions the line sets (defensive, not expected).
    pub fn push(&mut self, fp: ChunkFootprint) {
        match self.entries.entry(fp.ts.0) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(fp);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let merged = o.get_mut();
                let mut reads = std::mem::take(&mut merged.reads);
                let mut writes = std::mem::take(&mut merged.writes);
                reads.extend(fp.reads);
                writes.extend(fp.writes);
                *merged = ChunkFootprint::new(fp.ts, reads, writes);
            }
        }
    }

    /// The footprint stamped `ts`, if recorded.
    pub fn get(&self, ts: Cycle) -> Option<&ChunkFootprint> {
        self.entries.get(&ts.0)
    }

    /// All footprints in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &ChunkFootprint> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(ts: u64, reads: &[u32], writes: &[u32]) -> ChunkFootprint {
        ChunkFootprint::new(
            Cycle(ts),
            reads.iter().map(|&l| LineAddr(l)).collect(),
            writes.iter().map(|&l| LineAddr(l)).collect(),
        )
    }

    #[test]
    fn constructor_sorts_and_dedups() {
        let f = fp(1, &[5, 1, 5, 3], &[2, 2]);
        assert_eq!(f.reads, vec![LineAddr(1), LineAddr(3), LineAddr(5)]);
        assert_eq!(f.writes, vec![LineAddr(2)]);
    }

    #[test]
    fn conflict_requires_a_write_on_a_shared_line() {
        let a = fp(1, &[1, 2], &[3]);
        let b = fp(2, &[2], &[4]);
        assert!(!a.conflicts_with(&b), "read/read sharing is not a conflict");
        let c = fp(3, &[3], &[]);
        assert!(a.conflicts_with(&c), "war/raw on line 3");
        assert!(c.conflicts_with(&a), "symmetric");
        let d = fp(4, &[], &[3]);
        assert!(a.conflicts_with(&d), "waw on line 3");
    }

    #[test]
    fn colliding_timestamps_union() {
        let mut log = FootprintLog::new();
        log.push(fp(5, &[1], &[2]));
        log.push(fp(5, &[3], &[2, 4]));
        let merged = log.get(Cycle(5)).unwrap();
        assert_eq!(merged.reads, vec![LineAddr(1), LineAddr(3)]);
        assert_eq!(merged.writes, vec![LineAddr(2), LineAddr(4)]);
    }
}
