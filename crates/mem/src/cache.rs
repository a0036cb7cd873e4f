//! Per-core L1 cache model (MESI metadata + LRU replacement).
//!
//! The cache tracks *coherence metadata only*; data values live in the
//! flat [`crate::memory::PagedMemory`]. This is sufficient because the
//! simulator makes stores globally visible at drain time, so the flat
//! memory is always architecturally current, while the cache decides
//! which accesses miss, which bus transactions occur, and which lines get
//! evicted — the inputs the recording hardware observes.

use crate::bus::BusKind;
use qr_common::LineAddr;

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// Modified: this cache owns the only, dirty copy.
    Modified,
    /// Exclusive: only copy, clean.
    Exclusive,
    /// Shared: possibly other copies, clean.
    Shared,
}

/// Result of looking up a local access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Hit with sufficient permission; no bus transaction needed.
    Hit,
    /// Hit in Shared but the access is a write: needs [`BusKind::BusUpgr`].
    NeedsUpgrade,
    /// Miss: needs [`BusKind::BusRd`] (read) or [`BusKind::BusRdX`]
    /// (write).
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    state: MesiState,
    /// Higher = more recently used.
    lru: u64,
}

/// What happened to an evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The line that was displaced.
    pub line: LineAddr,
    /// Whether it was dirty (Modified) and generated a writeback.
    pub dirty: bool,
}

/// A set-associative cache holding MESI metadata.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    num_sets: u32,
    ways: u32,
    use_counter: u64,
}

impl Cache {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or either value is zero;
    /// cache geometry is fixed at machine construction and validated by
    /// [`crate::config::MemConfig::validate`].
    pub fn new(num_sets: u32, ways: u32) -> Cache {
        assert!(num_sets.is_power_of_two() && num_sets > 0, "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        Cache {
            sets: (0..num_sets).map(|_| Vec::with_capacity(ways as usize)).collect(),
            num_sets,
            ways,
            use_counter: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 & (self.num_sets - 1)) as usize
    }

    /// Current MESI state of a line, if present.
    pub fn state(&self, line: LineAddr) -> Option<MesiState> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|w| w.line == line).map(|w| w.state)
    }

    /// Classifies a local access without changing any state.
    pub fn lookup(&self, line: LineAddr, is_write: bool) -> LookupResult {
        match self.state(line) {
            None => LookupResult::Miss,
            Some(MesiState::Shared) if is_write => LookupResult::NeedsUpgrade,
            Some(_) => LookupResult::Hit,
        }
    }

    /// Records a hit: refreshes LRU and, for writes, promotes
    /// Exclusive→Modified (the silent upgrade MESI allows).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is absent or the promotion is
    /// illegal — callers must have classified the access with
    /// [`Cache::lookup`] first.
    pub fn touch(&mut self, line: LineAddr, is_write: bool) {
        self.use_counter += 1;
        let counter = self.use_counter;
        let idx = self.set_index(line);
        let way = self.sets[idx]
            .iter_mut()
            .find(|w| w.line == line)
            .expect("touch() on a line that is not cached");
        way.lru = counter;
        if is_write {
            debug_assert_ne!(
                way.state,
                MesiState::Shared,
                "write hit on Shared must go through an upgrade"
            );
            way.state = MesiState::Modified;
        }
    }

    /// Installs a line after a miss was serviced, returning the eviction
    /// it caused, if any.
    ///
    /// `state` is the state granted by the bus ([`MesiState::Shared`] or
    /// [`MesiState::Exclusive`] for reads, [`MesiState::Modified`] for
    /// read-for-ownership).
    pub fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<Eviction> {
        self.use_counter += 1;
        let counter = self.use_counter;
        let ways = self.ways as usize;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        debug_assert!(set.iter().all(|w| w.line != line), "fill() of an already-present line");
        let evicted = if set.len() >= ways {
            let victim_pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("nonempty set");
            let victim = set.swap_remove(victim_pos);
            Some(Eviction { line: victim.line, dirty: victim.state == MesiState::Modified })
        } else {
            None
        };
        set.push(Way { line, state, lru: counter });
        evicted
    }

    /// Upgrades a Shared line to Modified (after a [`BusKind::BusUpgr`]).
    pub fn upgrade(&mut self, line: LineAddr) {
        let idx = self.set_index(line);
        if let Some(way) = self.sets[idx].iter_mut().find(|w| w.line == line) {
            way.state = MesiState::Modified;
        }
    }

    /// Applies a remote bus transaction to this cache (the snoop side).
    ///
    /// Returns `true` if this cache had a dirty copy and must supply the
    /// data (an intervention, charged extra latency by the system).
    pub fn snoop(&mut self, line: LineAddr, kind: BusKind) -> bool {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let Some(pos) = set.iter().position(|w| w.line == line) else {
            return false;
        };
        let was_dirty = set[pos].state == MesiState::Modified;
        match kind {
            BusKind::BusRd => {
                // Remote read: downgrade to Shared.
                set[pos].state = MesiState::Shared;
            }
            BusKind::BusRdX | BusKind::BusUpgr => {
                // Remote write intent: invalidate.
                set.swap_remove(pos);
            }
            BusKind::Writeback => {}
        }
        was_dirty && kind != BusKind::Writeback
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Drops every line (used on context-switch flush experiments).
    pub fn flush_all(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for way in set.drain(..) {
                out.push(Eviction { line: way.line, dirty: way.state == MesiState::Modified });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u32) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.lookup(line(1), false), LookupResult::Miss);
        assert_eq!(c.fill(line(1), MesiState::Exclusive), None);
        assert_eq!(c.lookup(line(1), false), LookupResult::Hit);
        assert_eq!(c.state(line(1)), Some(MesiState::Exclusive));
    }

    #[test]
    fn write_hit_on_exclusive_promotes_silently() {
        let mut c = Cache::new(4, 2);
        c.fill(line(1), MesiState::Exclusive);
        assert_eq!(c.lookup(line(1), true), LookupResult::Hit);
        c.touch(line(1), true);
        assert_eq!(c.state(line(1)), Some(MesiState::Modified));
    }

    #[test]
    fn write_hit_on_shared_needs_upgrade() {
        let mut c = Cache::new(4, 2);
        c.fill(line(1), MesiState::Shared);
        assert_eq!(c.lookup(line(1), true), LookupResult::NeedsUpgrade);
        c.upgrade(line(1));
        assert_eq!(c.state(line(1)), Some(MesiState::Modified));
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut c = Cache::new(1, 2);
        c.fill(line(1), MesiState::Exclusive);
        c.fill(line(2), MesiState::Exclusive);
        c.touch(line(1), false); // 1 becomes most recent
        let ev = c.fill(line(3), MesiState::Exclusive).unwrap();
        assert_eq!(ev.line, line(2));
        assert!(!ev.dirty);
        assert_eq!(c.state(line(1)), Some(MesiState::Exclusive));
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut c = Cache::new(1, 1);
        c.fill(line(1), MesiState::Modified);
        let ev = c.fill(line(2), MesiState::Exclusive).unwrap();
        assert_eq!(ev, Eviction { line: line(1), dirty: true });
    }

    #[test]
    fn snoop_read_downgrades_and_reports_intervention() {
        let mut c = Cache::new(4, 2);
        c.fill(line(5), MesiState::Modified);
        assert!(c.snoop(line(5), BusKind::BusRd), "dirty copy supplies data");
        assert_eq!(c.state(line(5)), Some(MesiState::Shared));
        assert!(!c.snoop(line(5), BusKind::BusRd), "clean copy does not intervene");
    }

    #[test]
    fn snoop_write_invalidates() {
        let mut c = Cache::new(4, 2);
        c.fill(line(5), MesiState::Shared);
        assert!(!c.snoop(line(5), BusKind::BusRdX));
        assert_eq!(c.state(line(5)), None);
    }

    #[test]
    fn snoop_on_absent_line_is_noop() {
        let mut c = Cache::new(4, 2);
        assert!(!c.snoop(line(9), BusKind::BusRdX));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = Cache::new(2, 1);
        // Lines 0 and 1 go to different sets, so no eviction.
        assert!(c.fill(line(0), MesiState::Exclusive).is_none());
        assert!(c.fill(line(1), MesiState::Exclusive).is_none());
        assert_eq!(c.resident_lines(), 2);
        // Line 2 collides with line 0 (same parity).
        let ev = c.fill(line(2), MesiState::Exclusive).unwrap();
        assert_eq!(ev.line, line(0));
    }

    #[test]
    fn flush_all_reports_dirty_lines() {
        let mut c = Cache::new(2, 2);
        c.fill(line(0), MesiState::Modified);
        c.fill(line(1), MesiState::Shared);
        let evs = c.flush_all();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs.iter().filter(|e| e.dirty).count(), 1);
        assert_eq!(c.resident_lines(), 0);
    }
}
