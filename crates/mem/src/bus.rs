//! The snoopy bus: transaction kinds and the global timestamp.
//!
//! QuickRec orders recorded chunks with a timestamp taken from a global
//! time base that all cores observe consistently. In the simulator that
//! time base is [`GlobalClock`]: a strictly monotonic counter advanced by
//! every bus transaction and by every chunk termination, so the resulting
//! chunk order is a total order consistent with cross-core dependencies.

use qr_common::Cycle;

/// Kind of a snoopy-bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// Read miss: requester wants the line Shared.
    BusRd,
    /// Write miss: requester wants the line Modified (read-for-ownership).
    BusRdX,
    /// Upgrade: requester holds the line Shared and wants Modified.
    BusUpgr,
    /// Writeback of a dirty line being evicted.
    Writeback,
}

impl BusKind {
    /// Whether remote copies must be invalidated.
    pub fn invalidates(self) -> bool {
        matches!(self, BusKind::BusRdX | BusKind::BusUpgr)
    }

    /// Whether this transaction reads data (checks remote write sets).
    pub fn is_read(self) -> bool {
        matches!(self, BusKind::BusRd)
    }

    /// Whether this transaction writes data (checks remote read *and*
    /// write sets).
    pub fn is_write(self) -> bool {
        matches!(self, BusKind::BusRdX | BusKind::BusUpgr)
    }
}

/// Strictly monotonic global time base.
///
/// Every call to [`GlobalClock::tick`] returns a fresh, strictly greater
/// value, so two events stamped by the clock are always totally ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalClock {
    now: u64,
}

impl GlobalClock {
    /// Creates a clock at time zero.
    pub fn new() -> GlobalClock {
        GlobalClock::default()
    }

    /// Advances the clock and returns the new, unique timestamp.
    pub fn tick(&mut self) -> Cycle {
        self.now += 1;
        Cycle(self.now)
    }

    /// Advances the clock by `n` without producing a timestamp (models
    /// bus occupancy).
    pub fn advance(&mut self, n: u64) {
        self.now += n;
    }

    /// Current time (the timestamp of the most recent event).
    pub fn now(&self) -> Cycle {
        Cycle(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let mut c = GlobalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        c.advance(10);
        let d = c.tick();
        assert!(d > b + 9);
    }

    #[test]
    fn kind_classification() {
        assert!(BusKind::BusRdX.invalidates());
        assert!(BusKind::BusUpgr.invalidates());
        assert!(!BusKind::BusRd.invalidates());
        assert!(!BusKind::Writeback.invalidates());
        assert!(BusKind::BusRd.is_read());
        assert!(!BusKind::BusRd.is_write());
        assert!(BusKind::BusRdX.is_write());
        assert!(BusKind::BusUpgr.is_write());
        assert!(!BusKind::Writeback.is_read());
        assert!(!BusKind::Writeback.is_write());
    }

    #[test]
    fn now_reflects_last_tick() {
        let mut c = GlobalClock::new();
        assert_eq!(c.now(), Cycle(0));
        let t = c.tick();
        assert_eq!(c.now(), t);
    }
}
