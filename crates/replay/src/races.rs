//! Dynamic data-race detection on top of deterministic replay.
//!
//! The paper motivates record/replay with debugging concurrency bugs;
//! this module closes the loop: once an execution is recorded, replaying
//! it with [`RaceDetector`] attached finds the *actual* data races that
//! occurred — deterministically, every run.
//!
//! The detector is a FastTrack-style vector-clock analysis at word
//! granularity over the replayed event stream:
//!
//! - **Happens-before edges** come from atomic read-modify-writes
//!   (acquire + release on the word's sync clock — locks built on
//!   `cas`/`xchg`/`fetch_add` synchronize through this), from kernel
//!   operations (`spawn` publishes the parent's clock to the child,
//!   `exit`→`join` and `futex_wake`→`futex_wait` transfer clocks), and
//!   from signal delivery.
//! - **Plain accesses** are checked against the per-word shadow state:
//!   an unordered write-write or read-write pair on overlapping words is
//!   reported as a race.
//!
//! Atomic accesses also participate in conflict checks (an atomic that
//! is unordered with a plain access to the same word is a race, as in
//! C11). Store visibility timing does not matter to the analysis: the
//! happens-before relation is computed from synchronization operations
//! only, so checking writes at their replay-visibility point is
//! equivalent to checking them at issue.

use qr_common::{ThreadId, VirtAddr};
use quickrec_core::hb::VectorClock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Which kind of access participated in a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store (at its visibility point).
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// One detected race (deduplicated per word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Word-aligned address the conflicting accesses overlapped on.
    pub addr: VirtAddr,
    /// The earlier access (thread, kind).
    pub first: (ThreadId, AccessKind),
    /// The later, unordered access (thread, kind).
    pub second: (ThreadId, AccessKind),
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on {}: {} by {} unordered with {} by {}",
            self.addr, self.first.1, self.first.0, self.second.1, self.second.0
        )
    }
}

/// The detector's report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Detected races, one per racy word, in detection order.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Whether the execution was race-free.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// Number of racy words.
    pub fn len(&self) -> usize {
        self.races.len()
    }
}

#[derive(Debug, Clone, Default)]
struct Shadow {
    /// Last write epoch (thread, clock) and kind.
    last_write: Option<(ThreadId, u32, AccessKind)>,
    /// Last read clock per thread.
    reads: BTreeMap<ThreadId, (u32, AccessKind)>,
}

/// FastTrack-style vector-clock race detector.
#[derive(Debug)]
pub struct RaceDetector {
    clocks: Vec<VectorClock>,
    /// Release clocks of sync objects, keyed by word address.
    sync: HashMap<u32, VectorClock>,
    /// Exit clocks, joined by `join`.
    exits: Vec<Option<VectorClock>>,
    /// Signal-delivery clocks per target thread.
    signal_sync: Vec<VectorClock>,
    shadow: HashMap<u32, Shadow>,
    /// Racy words already reported (dedup).
    reported: HashMap<u32, ()>,
    races: Vec<Race>,
    num_threads: usize,
}

impl RaceDetector {
    /// Creates a detector for `num_threads` threads.
    pub fn new(num_threads: usize) -> RaceDetector {
        RaceDetector {
            // Each thread's own component starts at 1 so that a thread's
            // very first access has a nonzero epoch (epoch 0 would be
            // vacuously covered by every clock).
            clocks: (0..num_threads)
                .map(|i| {
                    let mut vc = VectorClock::new(num_threads);
                    vc.tick(i);
                    vc
                })
                .collect(),
            sync: HashMap::new(),
            exits: vec![None; num_threads],
            signal_sync: (0..num_threads).map(|_| VectorClock::new(num_threads)).collect(),
            shadow: HashMap::new(),
            reported: HashMap::new(),
            races: Vec::new(),
            num_threads,
        }
    }

    fn words(addr: VirtAddr, width: u8) -> impl Iterator<Item = u32> {
        let first = addr.0 & !3;
        let last = (addr.0 + width.max(1) as u32 - 1) & !3;
        (first..=last).step_by(4)
    }

    fn report(&mut self, word: u32, first: (ThreadId, AccessKind), second: (ThreadId, AccessKind)) {
        if self.reported.insert(word, ()).is_none() {
            self.races.push(Race { addr: VirtAddr(word), first, second });
        }
    }

    /// Processes a read by `t` (plain or the read half of an atomic).
    pub fn on_read(&mut self, t: ThreadId, addr: VirtAddr, width: u8, atomic: bool) {
        if atomic {
            // Acquire before the access so lock handoffs order the data.
            self.acquire(t, addr);
        }
        let kind = if atomic { AccessKind::Atomic } else { AccessKind::Read };
        for word in Self::words(addr, width) {
            let clock = &self.clocks[t.index()];
            let mut conflict = None;
            let shadow = self.shadow.entry(word).or_default();
            if let Some((wt, wc, wk)) = shadow.last_write {
                if wt != t && !clock.covers(wt.index(), wc) && !(atomic && wk == AccessKind::Atomic) {
                    conflict = Some(((wt, wk), (t, kind)));
                }
            }
            shadow.reads.insert(t, (self.clocks[t.index()].get(t.index()), kind));
            if let Some((first, second)) = conflict {
                self.report(word, first, second);
            }
        }
        self.clocks[t.index()].tick(t.index());
    }

    /// Processes a write by `t` (plain drain or the write half of an
    /// atomic).
    pub fn on_write(&mut self, t: ThreadId, addr: VirtAddr, width: u8, atomic: bool) {
        let kind = if atomic { AccessKind::Atomic } else { AccessKind::Write };
        for word in Self::words(addr, width) {
            let clock = self.clocks[t.index()].clone();
            let epoch = clock.get(t.index());
            let shadow = self.shadow.entry(word).or_default();
            let mut conflicts = Vec::new();
            if let Some((wt, wc, wk)) = shadow.last_write {
                if wt != t && !clock.covers(wt.index(), wc) && !(atomic && wk == AccessKind::Atomic) {
                    conflicts.push(((wt, wk), (t, kind)));
                }
            }
            for (&rt, &(rc, rk)) in &shadow.reads {
                if rt != t && !clock.covers(rt.index(), rc) && !(atomic && rk == AccessKind::Atomic) {
                    conflicts.push(((rt, rk), (t, kind)));
                }
            }
            shadow.last_write = Some((t, epoch, kind));
            shadow.reads.clear();
            for (first, second) in conflicts {
                self.report(word, first, second);
            }
        }
        if atomic {
            // Release after the access: publish everything up to and
            // including this write.
            self.clocks[t.index()].tick(t.index());
            self.release(t, addr);
        } else {
            self.clocks[t.index()].tick(t.index());
        }
    }

    fn acquire(&mut self, t: ThreadId, addr: VirtAddr) {
        if let Some(clock) = self.sync.get(&(addr.0 & !3)) {
            let clock = clock.clone();
            self.clocks[t.index()].join(&clock);
        }
    }

    fn release(&mut self, t: ThreadId, addr: VirtAddr) {
        let entry = self
            .sync
            .entry(addr.0 & !3)
            .or_insert_with(|| VectorClock::new(self.num_threads));
        entry.join(&self.clocks[t.index()]);
    }

    /// Spawn edge: the child starts with everything the parent did.
    pub fn on_spawn(&mut self, parent: ThreadId, child: ThreadId) {
        let parent_clock = self.clocks[parent.index()].clone();
        self.clocks[child.index()].join(&parent_clock);
        self.clocks[parent.index()].tick(parent.index());
    }

    /// Exit edge: capture the thread's final clock for joiners.
    pub fn on_exit(&mut self, t: ThreadId) {
        self.exits[t.index()] = Some(self.clocks[t.index()].clone());
    }

    /// Join edge: the joiner observes everything the target did.
    pub fn on_join(&mut self, joiner: ThreadId, target: ThreadId) {
        if let Some(exit) = self.exits.get(target.index()).and_then(Clone::clone) {
            self.clocks[joiner.index()].join(&exit);
        }
    }

    /// Futex-wake edge: release the waker's clock to the futex word.
    pub fn on_futex_wake(&mut self, waker: ThreadId, addr: VirtAddr) {
        self.release(waker, addr);
        self.clocks[waker.index()].tick(waker.index());
    }

    /// Futex-wait-return edge: acquire from the futex word.
    pub fn on_futex_wait(&mut self, waiter: ThreadId, addr: VirtAddr) {
        self.acquire(waiter, addr);
    }

    /// Kill edge: publish the sender's clock toward the target's signal
    /// channel.
    pub fn on_kill(&mut self, sender: ThreadId, target: ThreadId) {
        let clock = self.clocks[sender.index()].clone();
        self.signal_sync[target.index()].join(&clock);
        self.clocks[sender.index()].tick(sender.index());
    }

    /// Signal-delivery edge: the handler observes the sender.
    pub fn on_signal_delivery(&mut self, target: ThreadId) {
        let clock = self.signal_sync[target.index()].clone();
        self.clocks[target.index()].join(&clock);
    }

    /// Kernel write into user memory (read-syscall payloads): a plain
    /// write by the calling thread.
    pub fn on_kernel_write(&mut self, t: ThreadId, addr: VirtAddr, len: usize) {
        let mut remaining = len;
        let mut at = addr;
        while remaining > 0 {
            let chunk = remaining.min(255);
            self.on_write(t, at, chunk as u8, false);
            at = at.wrapping_add(chunk as u32);
            remaining -= chunk;
        }
    }

    /// Kernel read of user memory (write-syscall payloads): a plain read
    /// by the calling thread.
    pub fn on_kernel_read(&mut self, t: ThreadId, addr: VirtAddr, len: usize) {
        let mut remaining = len;
        let mut at = addr;
        while remaining > 0 {
            let chunk = remaining.min(255);
            self.on_read(t, at, chunk as u8, false);
            at = at.wrapping_add(chunk as u32);
            remaining -= chunk;
        }
    }

    /// Finishes the analysis.
    pub fn into_report(self) -> RaceReport {
        RaceReport { races: self.races }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const A: VirtAddr = VirtAddr(0x1000);
    const LOCK: VirtAddr = VirtAddr(0x2000);

    #[test]
    fn unordered_write_write_is_a_race() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, A, 4, false);
        d.on_write(T1, A, 4, false);
        let report = d.into_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report.races()[0].addr, A);
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let mut d = RaceDetector::new(2);
        d.on_read(T0, A, 4, false);
        d.on_write(T1, A, 4, false);
        assert_eq!(d.into_report().len(), 1);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut d = RaceDetector::new(2);
        d.on_read(T0, A, 4, false);
        d.on_read(T1, A, 4, false);
        assert!(d.into_report().is_empty());
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut d = RaceDetector::new(2);
        // T0: acquire(lock); write A; release(lock)
        d.on_read(T0, LOCK, 4, true); // cas read half
        d.on_write(T0, LOCK, 4, true); // cas write half (release)
        d.on_write(T0, A, 4, false);
        d.on_read(T0, LOCK, 4, true);
        d.on_write(T0, LOCK, 4, true); // unlock xchg
        // T1: acquire(lock); write A
        d.on_read(T1, LOCK, 4, true);
        d.on_write(T1, LOCK, 4, true);
        d.on_write(T1, A, 4, false);
        assert!(d.into_report().is_empty(), "mutex must order the data");
    }

    #[test]
    fn release_must_precede_acquire_to_order() {
        let mut d = RaceDetector::new(2);
        // T1 acquires the lock BEFORE T0 ever released anything useful.
        d.on_read(T1, LOCK, 4, true);
        d.on_write(T1, LOCK, 4, true);
        d.on_write(T1, A, 4, false);
        // T0 writes A with no synchronization at all.
        d.on_write(T0, A, 4, false);
        assert_eq!(d.into_report().len(), 1);
    }

    #[test]
    fn spawn_and_join_edges_order_accesses() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, A, 4, false); // parent writes before spawn
        d.on_spawn(T0, T1);
        d.on_read(T1, A, 4, false); // child reads: ordered
        d.on_write(T1, A, 4, false);
        d.on_exit(T1);
        d.on_join(T0, T1);
        d.on_read(T0, A, 4, false); // parent reads after join: ordered
        assert!(d.into_report().is_empty());
    }

    #[test]
    fn futex_wake_wait_edge_orders() {
        let mut d = RaceDetector::new(2);
        let futex = VirtAddr(0x3000);
        d.on_write(T0, A, 4, false);
        d.on_futex_wake(T0, futex);
        d.on_futex_wait(T1, futex);
        d.on_read(T1, A, 4, false);
        assert!(d.into_report().is_empty());
    }

    #[test]
    fn partial_word_overlap_is_detected() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, VirtAddr(0x1000), 1, false); // byte 0x1000
        d.on_write(T1, VirtAddr(0x1002), 1, false); // byte 0x1002: same word
        assert_eq!(d.into_report().len(), 1, "word-granular conflict");
    }

    #[test]
    fn distinct_words_do_not_conflict() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, VirtAddr(0x1000), 4, false);
        d.on_write(T1, VirtAddr(0x1004), 4, false);
        assert!(d.into_report().is_empty());
    }

    #[test]
    fn races_are_deduplicated_per_word() {
        let mut d = RaceDetector::new(2);
        for _ in 0..5 {
            d.on_write(T0, A, 4, false);
            d.on_write(T1, A, 4, false);
        }
        assert_eq!(d.into_report().len(), 1);
    }

    #[test]
    fn atomic_vs_plain_unordered_is_a_race() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, A, 4, false);
        d.on_read(T1, A, 4, true); // atomic RMW on the same word, unordered
        d.on_write(T1, A, 4, true);
        assert_eq!(d.into_report().len(), 1);
    }

    #[test]
    fn signal_edges_order_handler_accesses() {
        let mut d = RaceDetector::new(2);
        d.on_write(T0, A, 4, false);
        d.on_kill(T0, T1);
        d.on_signal_delivery(T1);
        d.on_read(T1, A, 4, false);
        assert!(d.into_report().is_empty());
    }
}
