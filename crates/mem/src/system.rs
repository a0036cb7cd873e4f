//! The composed memory system cores issue accesses to.
//!
//! [`MemorySystem`] glues together the flat memory, per-core L1 caches,
//! per-core TSO store buffers and the snoopy bus, and emits the
//! [`MemEvent`] stream the recording hardware consumes.
//!
//! # Visibility model
//!
//! A store becomes globally visible when it drains from its store buffer
//! into the cache; at that moment it is written through to the flat
//! memory and the required coherence transaction (if any) appears on the
//! bus. Loads read the flat memory unless a pending local store forwards.
//! Because the simulator interleaves cores at instruction granularity,
//! the flat memory is always architecturally current.
//!
//! # Kernel accesses
//!
//! The kernel (Capo3 analog) copies data in and out of user memory during
//! syscalls. Those copies are coherent — they invalidate or downgrade
//! remote cached copies and therefore *snoop remote recorder signatures*
//! — but they do not allocate into the local L1 and do not grow the local
//! core's chunk signatures, matching QuickRec's user-space-only recording.
//!
//! # Functional path
//!
//! Replay needs the data, not the timing. [`MemorySystem::make_functional`]
//! drops the L1s: accesses then read and write the flat memory through
//! the same store buffers, with no lookup, fill, eviction, snoop, bus
//! transaction or clock tick, and every access costs an L1 hit. The
//! `LocalRead`/`LocalWrite` events are unchanged. Because caches only
//! ever decide timing, a functional system computes the same memory
//! image, forwards and pending-store counts as a modelled one.

use crate::bus::{BusKind, GlobalClock};
use crate::cache::{Cache, LookupResult, MesiState};
use crate::config::MemConfig;
use crate::events::MemEvent;
use crate::memory::PagedMemory;
use crate::stats::MemStats;
use crate::store_buffer::{ForwardResult, PendingStore, StoreBuffer};
use qr_common::{CoreId, Cycle, LineAddr, QrError, Result, VirtAddr};

/// Owned outcome of one memory operation, as returned by the
/// convenience wrappers ([`MemorySystem::read`] and friends) that
/// boundary drains, kernel copies and tests call. The per-instruction
/// path never builds one: it calls the `*_into` methods, which append
/// events to a buffer the caller reuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Loaded or pre-modification value (0 for pure stores/fences).
    pub value: u32,
    /// Extra cycles beyond the base instruction cost.
    pub cycles: u64,
    /// Events for the recording hardware, in occurrence order.
    pub events: Vec<MemEvent>,
}

impl Access {
    /// Runs a sink-based operation against a fresh buffer.
    fn collect(op: impl FnOnce(&mut Vec<MemEvent>) -> Result<(u32, u64)>) -> Result<Access> {
        let mut events = Vec::new();
        let (value, cycles) = op(&mut events)?;
        Ok(Access { value, cycles, events })
    }
}

/// The full memory hierarchy for one machine.
///
/// Cloning snapshots the complete architectural and micro-architectural
/// state (memory contents, cache metadata, store buffers, clock) — the
/// basis of replay checkpointing.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    mem: PagedMemory,
    /// One L1 per core; none on the functional path.
    caches: Vec<Cache>,
    buffers: Vec<StoreBuffer>,
    clock: GlobalClock,
    stats: MemStats,
}

impl MemorySystem {
    /// Creates a memory system for `num_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] if the configuration is invalid
    /// or `num_cores` is zero.
    pub fn new(cfg: MemConfig, num_cores: usize) -> Result<MemorySystem> {
        cfg.validate()?;
        if num_cores == 0 {
            return Err(QrError::InvalidConfig("num_cores must be nonzero".into()));
        }
        Ok(MemorySystem {
            caches: (0..num_cores).map(|_| Cache::new(cfg.l1_sets, cfg.l1_ways)).collect(),
            buffers: (0..num_cores).map(|_| StoreBuffer::new(cfg.store_buffer_entries)).collect(),
            mem: PagedMemory::new(),
            clock: GlobalClock::new(),
            stats: MemStats::new(num_cores),
            cfg,
        })
    }

    /// Number of cores this system serves.
    pub fn num_cores(&self) -> usize {
        self.buffers.len()
    }

    /// Switches to the functional path (module docs) by dropping the
    /// L1s. There is no way back; call it before execution starts.
    pub fn make_functional(&mut self) {
        self.caches = Vec::new();
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Direct access to the flat memory (loader, fingerprinting).
    pub fn memory(&self) -> &PagedMemory {
        &self.mem
    }

    /// Mutable direct access to the flat memory (loader only; bypasses
    /// coherence, so use before execution starts or from DMA-like agents).
    pub fn memory_mut(&mut self) -> &mut PagedMemory {
        &mut self.mem
    }

    /// Current global time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Draws a fresh, strictly increasing global timestamp (chunk
    /// termination stamps come from here so they interleave correctly
    /// with bus transactions).
    pub fn tick_clock(&mut self) -> Cycle {
        self.clock.tick()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Pending stores in a core's buffer (the RSW value).
    pub fn pending_stores(&self, core: CoreId) -> usize {
        self.buffers[core.index()].len()
    }

    fn check_alignment(addr: VirtAddr, width: u32, what: &str) -> Result<()> {
        if !addr.0.is_multiple_of(width) {
            return Err(QrError::MemoryFault {
                addr: addr.0,
                detail: format!("misaligned {width}-byte {what}"),
            });
        }
        Ok(())
    }

    /// Performs a load, appending its events to `events`. Returns the
    /// loaded value and the extra cycles.
    ///
    /// Every `*_into` method appends to `events` without clearing it
    /// and, on `Err`, may already have appended the events of work done
    /// before the fault; callers that report a fault discard them.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped accesses.
    pub fn read_into(
        &mut self,
        core: CoreId,
        addr: VirtAddr,
        width: u32,
        events: &mut Vec<MemEvent>,
    ) -> Result<(u32, u64)> {
        Self::check_alignment(addr, width, "load")?;
        let local_read =
            MemEvent::LocalRead { core, line: addr.line(), addr, width: width as u8, atomic: false };
        let mut cycles = 0;
        self.stats.cores[core.index()].loads += 1;
        match self.buffers[core.index()].forward(addr, width) {
            ForwardResult::Forward(value) => {
                self.stats.cores[core.index()].load_forwards += 1;
                events.push(local_read);
                return Ok((value, self.cfg.hit_cycles));
            }
            ForwardResult::PartialOverlap => {
                self.stats.cores[core.index()].forced_drains += 1;
                cycles += self.drain_all_into(core, events)?;
            }
            ForwardResult::NoMatch => {}
        }
        cycles += self.cached_access(core, addr.line(), false, events);
        let value = self.mem.read_uint(addr, width)?;
        events.push(local_read);
        Ok((value, cycles))
    }

    /// Issues a store into the core's store buffer, appending to
    /// `events` the drain a full buffer forces. The store becomes
    /// visible when it drains. Returns the extra cycles.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped targets (checked at issue so the
    /// fault is attributed to the storing instruction).
    pub fn write_into(
        &mut self,
        core: CoreId,
        addr: VirtAddr,
        width: u32,
        value: u32,
        events: &mut Vec<MemEvent>,
    ) -> Result<u64> {
        Self::check_alignment(addr, width, "store")?;
        if !self.mem.is_mapped(addr, width) {
            return Err(QrError::MemoryFault {
                addr: addr.0,
                detail: format!("store of {width} bytes touches unmapped memory"),
            });
        }
        let mut cycles = 0;
        if self.buffers[core.index()].is_full() {
            cycles = self.drain_one_into(core, events)?;
        }
        self.buffers[core.index()].push(PendingStore { addr, width, value });
        self.stats.cores[core.index()].stores += 1;
        Ok(cycles)
    }

    /// Drains the oldest pending store, if any (called once per
    /// `drain_interval` retired instructions to model drain bandwidth,
    /// and when the buffer fills). Returns the extra cycles.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (cannot happen for stores validated at
    /// issue unless mappings change).
    pub fn drain_one_into(&mut self, core: CoreId, events: &mut Vec<MemEvent>) -> Result<u64> {
        match self.buffers[core.index()].pop_oldest() {
            Some(store) => self.commit_store(core, store, events),
            None => Ok(0),
        }
    }

    /// Drains the core's entire store buffer (fences, atomics, syscalls,
    /// chunk boundaries in `DrainAtChunk` mode). Returns the extra
    /// cycles.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    fn drain_all_into(&mut self, core: CoreId, events: &mut Vec<MemEvent>) -> Result<u64> {
        let mut cycles = 0;
        while let Some(store) = self.buffers[core.index()].pop_oldest() {
            cycles += self.commit_store(core, store, events)?;
        }
        Ok(cycles)
    }

    fn commit_store(
        &mut self,
        core: CoreId,
        store: PendingStore,
        events: &mut Vec<MemEvent>,
    ) -> Result<u64> {
        self.stats.cores[core.index()].drains += 1;
        let cycles = self.cached_access(core, store.addr.line(), true, events);
        self.mem.write_uint(store.addr, store.width, store.value)?;
        events.push(MemEvent::LocalWrite {
            core,
            line: store.addr.line(),
            addr: store.addr,
            width: store.width as u8,
            atomic: false,
        });
        Ok(cycles)
    }

    /// Executes an atomic read-modify-write with full-barrier semantics:
    /// drains the store buffer, takes ownership of the line, applies `f`
    /// to the old value and writes the result. Returns the old value and
    /// the extra cycles.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped targets.
    pub fn atomic_rmw_into(
        &mut self,
        core: CoreId,
        addr: VirtAddr,
        f: impl FnOnce(u32) -> u32,
        events: &mut Vec<MemEvent>,
    ) -> Result<(u32, u64)> {
        Self::check_alignment(addr, 4, "atomic")?;
        let mut cycles = self.drain_all_into(core, events)?;
        self.stats.cores[core.index()].forced_drains += 1;
        self.stats.cores[core.index()].atomics += 1;
        cycles += self.cached_access(core, addr.line(), true, events);
        let old = self.mem.read_uint(addr, 4)?;
        let new = f(old);
        self.mem.write_uint(addr, 4, new)?;
        cycles += 2; // bus-lock overhead beyond the miss path
        events.push(MemEvent::LocalRead { core, line: addr.line(), addr, width: 4, atomic: true });
        events.push(MemEvent::LocalWrite { core, line: addr.line(), addr, width: 4, atomic: true });
        Ok((old, cycles))
    }

    /// Full fence: drains the store buffer. Returns the extra cycles.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn fence_into(&mut self, core: CoreId, events: &mut Vec<MemEvent>) -> Result<u64> {
        self.stats.cores[core.index()].forced_drains += 1;
        self.drain_all_into(core, events)
    }

    /// [`MemorySystem::read_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped accesses.
    pub fn read(&mut self, core: CoreId, addr: VirtAddr, width: u32) -> Result<Access> {
        Access::collect(|events| self.read_into(core, addr, width, events))
    }

    /// [`MemorySystem::write_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped targets.
    pub fn write(&mut self, core: CoreId, addr: VirtAddr, width: u32, value: u32) -> Result<Access> {
        Access::collect(|events| Ok((0, self.write_into(core, addr, width, value, events)?)))
    }

    /// [`MemorySystem::drain_one_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn drain_one(&mut self, core: CoreId) -> Result<Access> {
        Access::collect(|events| Ok((0, self.drain_one_into(core, events)?)))
    }

    /// [`MemorySystem::drain_all_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn drain_all(&mut self, core: CoreId) -> Result<Access> {
        Access::collect(|events| Ok((0, self.drain_all_into(core, events)?)))
    }

    /// [`MemorySystem::atomic_rmw_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Faults on misaligned or unmapped targets.
    pub fn atomic_rmw(
        &mut self,
        core: CoreId,
        addr: VirtAddr,
        f: impl FnOnce(u32) -> u32,
    ) -> Result<Access> {
        Access::collect(|events| self.atomic_rmw_into(core, addr, f, events))
    }

    /// [`MemorySystem::fence_into`] with the events returned by value.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn fence(&mut self, core: CoreId) -> Result<Access> {
        Access::collect(|events| Ok((0, self.fence_into(core, events)?)))
    }

    /// The local cache side of an access: classifies hit/upgrade/miss,
    /// performs the bus transaction and snoops, updates stats and timing.
    /// Returns the extra cycles: a hit's on the functional path.
    fn cached_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        is_write: bool,
        events: &mut Vec<MemEvent>,
    ) -> u64 {
        if self.caches.is_empty() {
            return self.cfg.hit_cycles;
        }
        match self.caches[core.index()].lookup(line, is_write) {
            LookupResult::Hit => {
                self.caches[core.index()].touch(line, is_write);
                self.cfg.hit_cycles
            }
            LookupResult::NeedsUpgrade => {
                self.stats.cores[core.index()].upgrades += 1;
                let cycles = self.bus_transaction(core, line, BusKind::BusUpgr, events);
                self.caches[core.index()].upgrade(line);
                self.caches[core.index()].touch(line, is_write);
                cycles
            }
            LookupResult::Miss => {
                if is_write {
                    self.stats.cores[core.index()].store_misses += 1;
                } else {
                    self.stats.cores[core.index()].load_misses += 1;
                }
                let kind = if is_write { BusKind::BusRdX } else { BusKind::BusRd };
                let others_share = self.line_cached_elsewhere(core, line);
                let mut cycles = self.bus_transaction(core, line, kind, events);
                cycles += self.cfg.miss_penalty;
                let state = match (is_write, others_share) {
                    (true, _) => MesiState::Modified,
                    (false, true) => MesiState::Shared,
                    (false, false) => MesiState::Exclusive,
                };
                if let Some(ev) = self.caches[core.index()].fill(line, state) {
                    self.stats.cores[core.index()].evictions += 1;
                    events.push(MemEvent::Eviction { core, line: ev.line, dirty: ev.dirty });
                    if ev.dirty {
                        self.stats.cores[core.index()].writebacks += 1;
                        cycles += self.bus_transaction(core, ev.line, BusKind::Writeback, events);
                    }
                }
                cycles
            }
        }
    }

    fn line_cached_elsewhere(&self, core: CoreId, line: LineAddr) -> bool {
        self.caches
            .iter()
            .enumerate()
            .any(|(i, c)| i != core.index() && c.state(line).is_some())
    }

    /// Puts a transaction on the bus: advances global time, snoops every
    /// other cache, records stats. Returns the intervention latency. The
    /// functional path has no bus: nothing happens.
    fn bus_transaction(
        &mut self,
        from: CoreId,
        line: LineAddr,
        kind: BusKind,
        events: &mut Vec<MemEvent>,
    ) -> u64 {
        if self.caches.is_empty() {
            return 0;
        }
        self.clock.tick();
        self.stats.bus_txns[MemStats::bus_slot(kind)] += 1;
        let mut cycles = 0;
        if kind != BusKind::Writeback {
            for i in 0..self.caches.len() {
                if i == from.index() {
                    continue;
                }
                if self.caches[i].snoop(line, kind) {
                    self.stats.cores[i].interventions += 1;
                    cycles += self.cfg.intervention_penalty;
                }
            }
        }
        events.push(MemEvent::BusTxn { from, line, kind });
        cycles
    }

    // ----- kernel (Capo3) access paths ---------------------------------

    /// Coherent kernel read of guest memory (copy_from_user analog).
    /// Snoops remote caches line by line without allocating locally.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped.
    pub fn kernel_read_bytes(&mut self, core: CoreId, addr: VirtAddr, len: u32) -> Result<(Vec<u8>, Access)> {
        // The kernel runs below the store buffer: drain first so the
        // calling thread's own pending stores are visible to it.
        let mut access = self.drain_all(core)?;
        for line in lines_touched(addr, len) {
            access.cycles += self.bus_transaction(core, line, BusKind::BusRd, &mut access.events);
        }
        let mut buf = vec![0u8; len as usize];
        self.mem.read_bytes(addr, &mut buf)?;
        Ok((buf, access))
    }

    /// Coherent kernel write into guest memory (copy_to_user analog).
    /// Invalidates every cached copy — including the local core's — so
    /// user code everywhere observes the new data.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped.
    pub fn kernel_write_bytes(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) -> Result<Access> {
        let mut access = self.drain_all(core)?;
        for line in lines_touched(addr, data.len() as u32) {
            // Invalidate the writer's own cached copy as well: kernel
            // writes are uncached in this model.
            if let Some(cache) = self.caches.get_mut(core.index()) {
                cache.snoop(line, BusKind::BusRdX);
            }
            access.cycles += self.bus_transaction(core, line, BusKind::BusRdX, &mut access.events);
        }
        self.mem.write_bytes(addr, data)?;
        Ok(access)
    }

    /// Maps a region of guest memory (kernel mmap/sbrk path).
    ///
    /// # Errors
    ///
    /// Propagates [`PagedMemory::map_region`] errors.
    pub fn map_region(&mut self, base: VirtAddr, len: u32) -> Result<()> {
        self.mem.map_region(base, len)
    }

    // ----- checkpoint state serialization ------------------------------

    /// Serializes the state a checkpoint record holds: guest memory as
    /// an overlay on `base` (the runs of words in which it differs,
    /// [`PagedMemory`]'s checkpoint encoding), then the store buffers.
    /// Cache metadata, the clock and the counters are not saved: they
    /// only ever decide timing, and replay runs functional. The bytes are
    /// a deterministic function of the two states, and restoring them
    /// with [`MemorySystem::restore_state`] into a system of the same
    /// configuration whose memory holds `base` reproduces every load,
    /// forward, drain and pending-store count bit-for-bit.
    pub fn save_state(&self, base: &PagedMemory, out: &mut Vec<u8>) {
        self.mem.encode_overlay(base, out);
        for buffer in &self.buffers {
            buffer.save_state(out);
        }
    }

    /// Applies only the leading memory overlay of bytes produced by
    /// [`MemorySystem::save_state`], leaving the reader at the state
    /// that follows it — how a chain of delta checkpoints is walked
    /// without decoding the store buffers of every link.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] like [`MemorySystem::restore_state`].
    pub fn apply_memory_overlay(&mut self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        self.mem.apply_overlay(r)
    }

    /// Overwrites this system's memory and store buffers from bytes
    /// produced by [`MemorySystem::save_state`]; the memory must hold the
    /// base the bytes were saved against. Caches, clock and counters keep
    /// whatever they held. The buffer capacity and core count are taken
    /// from `self`, not the bytes — the caller must have built the system
    /// with the same configuration the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated or implausible bytes;
    /// `self` may be partially overwritten on error and must be discarded.
    pub fn restore_state(&mut self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        self.mem.apply_overlay(r)?;
        for buffer in &mut self.buffers {
            *buffer = StoreBuffer::load_state(r, self.cfg.store_buffer_entries)?;
        }
        Ok(())
    }
}

/// Iterates the cache lines covered by `[addr, addr + len)`.
fn lines_touched(addr: VirtAddr, len: u32) -> impl Iterator<Item = LineAddr> {
    let first = addr.line().0;
    let last = if len == 0 { first } else { addr.wrapping_add(len - 1).line().0 };
    (first..=last).map(LineAddr)
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    fn sys(cores: usize) -> MemorySystem {
        let mut s = MemorySystem::new(MemConfig::default(), cores).unwrap();
        s.map_region(VirtAddr(0x1000), 0x10000).unwrap();
        s
    }

    fn has_bus(access: &Access, kind: BusKind) -> bool {
        access.events.iter().any(|e| matches!(e, MemEvent::BusTxn { kind: k, .. } if *k == kind))
    }

    #[test]
    fn store_is_invisible_until_drained() {
        let mut s = sys(2);
        s.write(C0, VirtAddr(0x1000), 4, 42).unwrap();
        // Core 1 still sees the old value: the store is buffered.
        assert_eq!(s.read(C1, VirtAddr(0x1000), 4).unwrap().value, 0);
        // Core 0 forwards from its own buffer.
        let a = s.read(C0, VirtAddr(0x1000), 4).unwrap();
        assert_eq!(a.value, 42);
        // After draining, everyone sees it.
        s.drain_all(C0).unwrap();
        assert_eq!(s.read(C1, VirtAddr(0x1000), 4).unwrap().value, 42);
    }

    #[test]
    fn drain_emits_bus_rdx_and_local_write() {
        let mut s = sys(2);
        s.write(C0, VirtAddr(0x1000), 4, 1).unwrap();
        let a = s.drain_all(C0).unwrap();
        assert!(has_bus(&a, BusKind::BusRdX));
        assert!(a
            .events
            .iter()
            .any(|e| matches!(e, MemEvent::LocalWrite { core, .. } if *core == C0)));
    }

    #[test]
    fn read_read_sharing_then_upgrade() {
        let mut s = sys(2);
        // Both cores read the same line -> Shared everywhere.
        s.read(C0, VirtAddr(0x1000), 4).unwrap();
        s.read(C1, VirtAddr(0x1000), 4).unwrap();
        // Now core 0 writes: drain must produce an upgrade, not a miss.
        s.write(C0, VirtAddr(0x1000), 4, 5).unwrap();
        let a = s.drain_all(C0).unwrap();
        assert!(has_bus(&a, BusKind::BusUpgr), "events: {:?}", a.events);
        assert_eq!(s.stats().cores[0].upgrades, 1);
        // Core 1's copy was invalidated: its next read misses again.
        let before = s.stats().cores[1].load_misses;
        s.read(C1, VirtAddr(0x1000), 4).unwrap();
        assert_eq!(s.stats().cores[1].load_misses, before + 1);
    }

    #[test]
    fn exclusive_then_silent_write_hit() {
        let mut s = sys(2);
        s.read(C0, VirtAddr(0x1000), 4).unwrap(); // E (no other sharer)
        s.write(C0, VirtAddr(0x1000), 4, 9).unwrap();
        let a = s.drain_all(C0).unwrap();
        // E->M is silent: no bus transaction beyond the original miss.
        assert!(!has_bus(&a, BusKind::BusRdX));
        assert!(!has_bus(&a, BusKind::BusUpgr));
    }

    #[test]
    fn atomic_rmw_returns_old_value_and_is_fully_ordered() {
        let mut s = sys(2);
        s.write(C0, VirtAddr(0x1000), 4, 10).unwrap();
        // Atomic on the same core: pending store must drain first.
        let a = s.atomic_rmw(C0, VirtAddr(0x1000), |v| v + 5).unwrap();
        assert_eq!(a.value, 10);
        assert_eq!(s.read(C1, VirtAddr(0x1000), 4).unwrap().value, 15);
        assert_eq!(s.pending_stores(C0), 0);
        // Atomic emits both halves for the recorder.
        assert!(a.events.iter().any(|e| matches!(e, MemEvent::LocalRead { .. })));
        assert!(a.events.iter().any(|e| matches!(e, MemEvent::LocalWrite { .. })));
    }

    #[test]
    fn store_buffer_overflow_forces_drain() {
        let mut s = sys(1);
        let cap = s.config().store_buffer_entries;
        for i in 0..cap as u32 + 1 {
            s.write(C0, VirtAddr(0x1000 + i * 4), 4, i).unwrap();
        }
        assert_eq!(s.pending_stores(C0), cap);
        assert_eq!(s.stats().cores[0].drains, 1);
    }

    #[test]
    fn partial_overlap_load_drains_buffer() {
        let mut s = sys(1);
        s.write(C0, VirtAddr(0x1000), 1, 0xaa).unwrap();
        let a = s.read(C0, VirtAddr(0x1000), 4).unwrap();
        // The byte store drained, so the word load sees it in memory.
        assert_eq!(a.value, 0xaa);
        assert_eq!(s.pending_stores(C0), 0);
    }

    #[test]
    fn misaligned_accesses_fault() {
        let mut s = sys(1);
        assert!(s.read(C0, VirtAddr(0x1001), 4).is_err());
        assert!(s.write(C0, VirtAddr(0x1002), 4, 0).is_err());
        assert!(s.atomic_rmw(C0, VirtAddr(0x1002), |v| v).is_err());
        assert!(s.read(C0, VirtAddr(0x1001), 2).is_err());
        assert!(s.read(C0, VirtAddr(0x1001), 1).is_ok(), "bytes are always aligned");
    }

    #[test]
    fn unmapped_store_faults_at_issue() {
        let mut s = sys(1);
        assert!(s.write(C0, VirtAddr(0x9000_0000), 4, 1).is_err());
        assert_eq!(s.pending_stores(C0), 0, "nothing buffered");
    }

    #[test]
    fn eviction_of_dirty_line_writes_back() {
        let cfg = MemConfig { l1_sets: 1, l1_ways: 1, ..MemConfig::default() };
        let mut s = MemorySystem::new(cfg, 1).unwrap();
        s.map_region(VirtAddr(0x1000), 0x10000).unwrap();
        s.write(C0, VirtAddr(0x1000), 4, 1).unwrap();
        s.drain_all(C0).unwrap(); // line 0x40 dirty in the 1-entry cache
        let a = s.read(C0, VirtAddr(0x1040), 4).unwrap(); // displaces it
        assert!(has_bus(&a, BusKind::Writeback), "events: {:?}", a.events);
        assert!(a
            .events
            .iter()
            .any(|e| matches!(e, MemEvent::Eviction { dirty: true, .. })));
        assert_eq!(s.stats().cores[0].writebacks, 1);
    }

    #[test]
    fn remote_dirty_read_costs_intervention() {
        let mut s = sys(2);
        s.write(C0, VirtAddr(0x1000), 4, 7).unwrap();
        s.drain_all(C0).unwrap(); // C0 holds the line Modified
        let a = s.read(C1, VirtAddr(0x1000), 4).unwrap();
        assert_eq!(a.value, 7);
        assert!(a.cycles >= s.config().miss_penalty + s.config().intervention_penalty);
        assert_eq!(s.stats().cores[0].interventions, 1);
    }

    #[test]
    fn kernel_write_invalidates_all_copies_and_snoops() {
        let mut s = sys(2);
        s.read(C0, VirtAddr(0x1000), 4).unwrap();
        s.read(C1, VirtAddr(0x1000), 4).unwrap();
        let a = s.kernel_write_bytes(C0, VirtAddr(0x1000), &[1, 2, 3, 4, 5]).unwrap();
        assert!(has_bus(&a, BusKind::BusRdX));
        // Both caches lost the line: both next reads miss.
        let (m0, m1) = (s.stats().cores[0].load_misses, s.stats().cores[1].load_misses);
        s.read(C0, VirtAddr(0x1000), 4).unwrap();
        s.read(C1, VirtAddr(0x1000), 4).unwrap();
        assert_eq!(s.stats().cores[0].load_misses, m0 + 1);
        assert_eq!(s.stats().cores[1].load_misses, m1 + 1);
        // Data landed.
        assert_eq!(s.memory().read_uint(VirtAddr(0x1000), 4).unwrap(), 0x0403_0201);
    }

    #[test]
    fn kernel_read_sees_pending_local_stores() {
        let mut s = sys(1);
        s.write(C0, VirtAddr(0x1000), 4, 0x6162_6364).unwrap();
        let (buf, _) = s.kernel_read_bytes(C0, VirtAddr(0x1000), 4).unwrap();
        assert_eq!(buf, vec![0x64, 0x63, 0x62, 0x61]);
    }

    #[test]
    fn lines_touched_spans_boundaries() {
        let lines: Vec<_> = lines_touched(VirtAddr(0x103c), 8).collect();
        assert_eq!(lines, vec![LineAddr(0x40), LineAddr(0x41)]);
        let one: Vec<_> = lines_touched(VirtAddr(0x1000), 4).collect();
        assert_eq!(one, vec![LineAddr(0x40)]);
        let zero: Vec<_> = lines_touched(VirtAddr(0x1000), 0).collect();
        assert_eq!(zero, vec![LineAddr(0x40)], "zero-length still names its line");
    }

    #[test]
    fn global_clock_orders_bus_traffic() {
        let mut s = sys(2);
        let t0 = s.now();
        s.read(C0, VirtAddr(0x1000), 4).unwrap(); // miss -> 1 bus txn
        let t1 = s.now();
        assert!(t1 > t0);
        s.read(C0, VirtAddr(0x1000), 4).unwrap(); // hit -> no bus txn
        assert_eq!(s.now(), t1);
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(MemorySystem::new(MemConfig::default(), 0).is_err());
    }

    #[test]
    fn state_snapshot_round_trips_and_resumes_identically() {
        let mut s = sys(2);
        s.write(C0, VirtAddr(0x1000), 4, 42).unwrap();
        s.read(C1, VirtAddr(0x1040), 4).unwrap();
        s.write(C1, VirtAddr(0x1080), 2, 7).unwrap();
        let base = PagedMemory::new();
        let mut snap = Vec::new();
        s.save_state(&base, &mut snap);

        let mut restored = MemorySystem::new(MemConfig::default(), 2).unwrap();
        let mut r = qr_common::cursor::ByteReader::new(&snap, "snapshot");
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.memory().read_uint(VirtAddr(0x1000), 4).unwrap(), 0, "still buffered");

        // Same pending stores; the futures load the same values.
        assert_eq!(restored.pending_stores(C0), s.pending_stores(C0));
        assert_eq!(restored.pending_stores(C1), s.pending_stores(C1));
        for m in [&mut s, &mut restored] {
            assert_eq!(m.read(C0, VirtAddr(0x1000), 4).unwrap().value, 42, "forwarded");
            m.drain_all(C0).unwrap();
            m.read(C1, VirtAddr(0x1000), 4).unwrap();
        }
        let mut snap2a = Vec::new();
        let mut snap2b = Vec::new();
        s.save_state(&base, &mut snap2a);
        restored.save_state(&base, &mut snap2b);
        assert_eq!(snap2a, snap2b, "snapshots of equal states are byte-identical");
        assert_eq!(restored.memory().read_uint(VirtAddr(0x1000), 4).unwrap(), 42, "drained");

        // The same state as a delta on the first snapshot: smaller, and
        // walking the chain memory-first lands on the same bytes.
        let mut first = MemorySystem::new(MemConfig::default(), 2).unwrap();
        first.restore_state(&mut qr_common::cursor::ByteReader::new(&snap, "snapshot")).unwrap();
        let mut delta = Vec::new();
        s.save_state(first.memory(), &mut delta);
        let mut chained = MemorySystem::new(MemConfig::default(), 2).unwrap();
        chained
            .apply_memory_overlay(&mut qr_common::cursor::ByteReader::new(&snap, "snapshot"))
            .unwrap();
        chained.restore_state(&mut qr_common::cursor::ByteReader::new(&delta, "delta")).unwrap();
        let mut snap2c = Vec::new();
        chained.save_state(&base, &mut snap2c);
        assert_eq!(snap2c, snap2a, "keyframe + delta restores the state the delta was taken of");
    }

    #[test]
    fn functional_path_keeps_the_data_and_drops_the_bus() {
        let tiny = MemConfig { l1_sets: 1, l1_ways: 1, ..MemConfig::default() };
        let mut modelled = MemorySystem::new(tiny, 2).unwrap();
        modelled.map_region(VirtAddr(0x1000), 0x10000).unwrap();
        let mut functional = modelled.clone();
        functional.make_functional();
        let run = |s: &mut MemorySystem| {
            let (mut events, mut values) = (Vec::new(), Vec::new());
            let at = |i: u32| VirtAddr(0x1000 + i * 0x40);
            for i in 0..4 {
                s.write_into(C0, at(i), 4, i + 1, &mut events).unwrap();
                values.push(s.read_into(C1, at(i), 4, &mut events).unwrap().0);
            }
            s.drain_all_into(C0, &mut events).unwrap();
            values.push(s.atomic_rmw_into(C1, at(3), |v| v + 7, &mut events).unwrap().0);
            s.drain_one_into(C1, &mut events).unwrap();
            events.extend(s.kernel_write_bytes(C1, at(0), &[9; 4]).unwrap().events);
            events.extend(s.kernel_read_bytes(C0, at(1), 4).unwrap().1.events);
            values.extend((0..5).map(|i| s.read(C1, at(i), 4).unwrap().value));
            (values, events)
        };
        let (want_values, want_events) = run(&mut modelled);
        let (values, events) = run(&mut functional);
        let evicts = |e: &MemEvent| matches!(e, MemEvent::Eviction { .. });
        assert!(want_events.iter().any(evicts), "the modelled twin evicts");
        let bus_or_evicts = |e: &MemEvent| evicts(e) || matches!(e, MemEvent::BusTxn { .. });
        assert!(!events.iter().any(bus_or_evicts), "{events:?}");
        assert_eq!(functional.now(), Cycle(0), "no bus, no clock tick");
        assert!(modelled.now() > Cycle(0));
        let local = |events: &[MemEvent]| -> Vec<MemEvent> {
            let keep = |e: &&MemEvent| {
                matches!(e, MemEvent::LocalRead { .. } | MemEvent::LocalWrite { .. })
            };
            events.iter().filter(keep).copied().collect()
        };
        assert_eq!(local(&events), local(&want_events), "the race detector's stream is unchanged");
        assert_eq!(values, want_values);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        modelled.save_state(&PagedMemory::new(), &mut a);
        functional.save_state(&PagedMemory::new(), &mut b);
        assert_eq!(a, b, "the checkpoint record holds nothing the two paths disagree on");
    }

    #[test]
    fn truncated_snapshot_is_a_structured_error() {
        let mut s = sys(1);
        s.write(C0, VirtAddr(0x1000), 4, 1).unwrap();
        let mut snap = Vec::new();
        s.save_state(&PagedMemory::new(), &mut snap);
        for cut in [0, 1, snap.len() / 2, snap.len() - 1] {
            let mut fresh = MemorySystem::new(MemConfig::default(), 1).unwrap();
            let mut r = qr_common::cursor::ByteReader::new(&snap[..cut], "snapshot");
            let outcome = fresh.restore_state(&mut r).and_then(|()| r.finish());
            assert!(outcome.is_err(), "cut at {cut} must fail");
        }
    }
}
