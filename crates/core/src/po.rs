//! Partial-order chunk ordering — vector clocks and happens-before edges.
//!
//! The MRR scheme serializes every chunk through one global bus
//! timestamp: cheap to record, but a total order is far stronger than
//! replay needs, and at high core counts (or across daemon shards,
//! where no shared clock exists) stamping every chunk is the
//! scalability ceiling the paper itself flags. Under
//! [`OrderMode::PartialOrder`] the recorder instead logs the *partial*
//! order that actually constrains replay:
//!
//! - **Program order** per thread — implicit, never logged: each
//!   thread's chunks and input events are numbered `0..n` in the order
//!   the thread produced them.
//! - **Conflict edges** (RAW/WAW/WAR) between cross-thread timeline
//!   nodes whose cache-line footprints intersect with at least one
//!   write — the cross-thread pairs of [`crate::hb::ConflictSweep`],
//!   whose every pair the parallel replayer's dependency DAG takes.
//! - **Spawn edges** from a successful `SYS_SPAWN` record to the child
//!   thread's first node.
//! - **Input edges** chaining consecutive cross-thread input events,
//!   pinning the global injection order (console bytes are assembled in
//!   input order, which no footprint captures).
//!
//! Edges already implied transitively are dropped at derive time using
//! per-node vector clocks (a candidate source is skipped when the
//! node's clock, after merging nearer predecessors, already dominates
//! it), so the logged edge set stays close to the communication that
//! actually happened instead of growing with the chunk count.
//!
//! A node is identified as `(tid, seq)` — no timestamp appears anywhere
//! in the log. Ordered replay (`qr_replay::order`) schedules the logged
//! edges directly as a dependency DAG. Any legal order of that DAG is
//! conflict-equivalent to the recorded one and produces a
//! byte-identical fingerprint, which the equivalence test battery
//! checks.
//!
//! The log serializes to the `order.qrp` sidecar as a framed container
//! of kind [`PayloadKind::OrderLog`]: record 0 commits the per-thread
//! node counts and the edge total, then one record per
//! [`EDGE_GROUP`]-edge group, each CRC-32 protected — a torn file
//! salvages to its longest clean edge prefix.

use crate::footprint::ChunkFootprint;
use crate::hb::{ConflictSweep, VectorClock};
use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::{varint, wire_enum, QrError, Result, ThreadId};
use std::collections::{BTreeMap, HashMap};

/// Edges per framed record: the salvage granularity of a torn order log.
pub const EDGE_GROUP: usize = 128;

wire_enum! {
    /// How chunk ordering is recorded.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum OrderMode as "order mode" {
        /// One global timestamp per chunk (the paper's MRR scheme). The
        /// default, and byte-identical to recordings made before partial
        /// order existed.
        #[default]
        0 "total" TotalOrder,
        /// Per-thread sequence numbers plus explicit happens-before edges
        /// in an `order.qrp` sidecar. The recording proper is unchanged —
        /// the sidecar carries the ordering information a shard without a
        /// global clock would have to live on.
        1 "partial" PartialOrder,
    }
}

impl OrderMode {
    /// The CLI / display name (`total` or `partial`).
    pub fn name(self) -> &'static str {
        self.label()
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<OrderMode> {
        match s {
            "total" => Some(OrderMode::TotalOrder),
            "partial" => Some(OrderMode::PartialOrder),
            _ => None,
        }
    }
}

/// One timeline node of a partial-order recording: the `seq`-th event
/// (chunk or input) thread `tid` produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PoNode {
    /// Owning thread.
    pub tid: ThreadId,
    /// Zero-based position in that thread's event sequence.
    pub seq: u32,
}

impl std::fmt::Display for PoNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.tid, self.seq)
    }
}

/// Why a happens-before edge was logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Footprint conflict (RAW, WAW or WAR on a shared cache line).
    Conflict,
    /// Successful `SYS_SPAWN` record → child's first node.
    Spawn,
    /// Consecutive cross-thread input events (injection order).
    Input,
}

impl EdgeKind {
    /// Every kind, in code order.
    pub const ALL: [EdgeKind; 3] = [EdgeKind::Conflict, EdgeKind::Spawn, EdgeKind::Input];

    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            EdgeKind::Conflict => 0,
            EdgeKind::Spawn => 1,
            EdgeKind::Input => 2,
        }
    }

    /// Inverse of [`EdgeKind::code`].
    pub fn from_code(code: u8) -> Option<EdgeKind> {
        match code {
            0 => Some(EdgeKind::Conflict),
            1 => Some(EdgeKind::Spawn),
            2 => Some(EdgeKind::Input),
            _ => None,
        }
    }

    /// Metric label.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Conflict => "conflict",
            EdgeKind::Spawn => "spawn",
            EdgeKind::Input => "input",
        }
    }
}

/// One logged happens-before edge: `from` must replay before `to`.
/// Always cross-thread — program order within a thread is implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderEdge {
    /// Earlier node.
    pub from: PoNode,
    /// Later node.
    pub to: PoNode,
    /// Why the edge exists.
    pub kind: EdgeKind,
}

impl OrderEdge {
    /// Canonical sort key: edges serialize grouped by destination.
    fn key(&self) -> (ThreadId, u32, ThreadId, u32) {
        (self.to.tid, self.to.seq, self.from.tid, self.from.seq)
    }
}

/// The partial-order sidecar log (`order.qrp`): per-thread node counts
/// plus the reduced cross-thread happens-before edge set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrderLog {
    /// Nodes per thread (a thread's events are numbered `0..count`).
    threads: BTreeMap<ThreadId, u32>,
    /// Edges in canonical `(to, from)` order, deduplicated.
    edges: Vec<OrderEdge>,
}

impl OrderLog {
    /// Builds a log, canonicalizing (sorting and deduplicating) the
    /// edge list.
    pub fn new(threads: BTreeMap<ThreadId, u32>, mut edges: Vec<OrderEdge>) -> OrderLog {
        edges.sort_by_key(OrderEdge::key);
        edges.dedup_by_key(|e| e.key());
        OrderLog { threads, edges }
    }

    /// Per-thread node counts.
    pub fn threads(&self) -> &BTreeMap<ThreadId, u32> {
        &self.threads
    }

    /// Total nodes across all threads.
    pub fn node_count(&self) -> u64 {
        self.threads.values().map(|&c| c as u64).sum()
    }

    /// The logged edges, in canonical order.
    pub fn edges(&self) -> &[OrderEdge] {
        &self.edges
    }

    /// Logged edges of one kind.
    pub fn edge_count(&self, kind: EdgeKind) -> u64 {
        self.edges.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Implicit program-order edges (consecutive same-thread nodes).
    pub fn program_edge_count(&self) -> u64 {
        self.threads.values().map(|&c| u64::from(c.saturating_sub(1))).sum()
    }

    /// Serialized size in bytes (the "ordering log size" metric).
    pub fn byte_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the log in the crash-consistent framed container
    /// format: record 0 commits the per-thread node counts and the edge
    /// total, then one record per [`EDGE_GROUP`]-edge group. Edge `to`
    /// coordinates are delta-coded within each record (edges are sorted
    /// by destination), restarting per record so every record decodes
    /// independently.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = frame::Writer::new(PayloadKind::OrderLog);
        let mut header = Vec::new();
        varint::write_u64(&mut header, self.threads.len() as u64);
        for (tid, count) in &self.threads {
            varint::write_u64(&mut header, tid.0 as u64);
            varint::write_u64(&mut header, *count as u64);
        }
        varint::write_u64(&mut header, self.edges.len() as u64);
        w.record(&header);
        for group in self.edges.chunks(EDGE_GROUP) {
            let mut payload = Vec::new();
            let (mut prev_tid, mut prev_seq) = (0u32, 0u32);
            for edge in group {
                payload.push(edge.kind.code());
                let dt = edge.to.tid.0 - prev_tid;
                varint::write_u64(&mut payload, dt as u64);
                let ds = if dt == 0 { edge.to.seq - prev_seq } else { edge.to.seq };
                varint::write_u64(&mut payload, ds as u64);
                varint::write_u64(&mut payload, edge.from.tid.0 as u64);
                varint::write_u64(&mut payload, edge.from.seq as u64);
                (prev_tid, prev_seq) = (edge.to.tid.0, edge.to.seq);
            }
            w.record(&payload);
        }
        w.finish()
    }

    /// Deserializes a log written by [`OrderLog::to_bytes`], strictly:
    /// any fault anywhere is an error.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] with byte-offset context on
    /// malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<OrderLog> {
        let (log, salvage) = OrderLog::salvage_from_bytes(buf);
        match salvage.corruption {
            Some(err) => Err(err),
            None => Ok(log),
        }
    }

    /// Tolerantly deserializes a framed order log, recovering the
    /// longest clean edge prefix of a torn or corrupted file. Never
    /// fails: corruption is *described* in the returned [`OrderSalvage`].
    /// A recovered prefix is always a sound (if weaker) constraint set —
    /// dropping edges can only make reconstruction refuse (divergence at
    /// replay), never silently reorder dependent events past their
    /// sources, because the header's node counts are committed before
    /// any edge.
    pub fn salvage_from_bytes(buf: &[u8]) -> (OrderLog, OrderSalvage) {
        let mut edges = Vec::new();
        let walked = frame::walk(
            buf,
            PayloadKind::OrderLog,
            "an order log",
            decode_header,
            |(threads, _), payload, base| decode_edge_record(threads, &mut edges, payload, base),
        );
        let (threads, expected_edges) = walked.header.unzip();
        let corruption = walked.corruption.or_else(|| {
            let held = edges.len() as u64;
            expected_edges.filter(|&count| count != held).map(|count| QrError::Corrupt {
                what: "order log".into(),
                offset: buf.len() as u64,
                detail: format!("header commits {count} edges but records hold {held}"),
            })
        });
        let log = OrderLog { threads: threads.unwrap_or_default(), edges };
        (log, OrderSalvage { expected_edges, bytes_dropped: walked.bytes_dropped, corruption })
    }
}

/// What [`OrderLog::salvage_from_bytes`] recovered (the log itself is
/// returned alongside).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSalvage {
    /// Edge count the header committed to, if the header survived.
    pub expected_edges: Option<u64>,
    /// Container bytes not covered by salvaged records.
    pub bytes_dropped: usize,
    /// What stopped the salvage (`None` for a fully intact log).
    pub corruption: Option<QrError>,
}

/// Decodes the header record: the per-thread node counts and the
/// committed edge count.
fn decode_header(payload: &[u8], base: usize) -> Result<(BTreeMap<ThreadId, u32>, u64)> {
    let mut r = ByteReader::at(payload, "order log", base);
    let thread_count = r.varint()?;
    // Each thread entry needs at least 2 bytes (tid + count varints).
    if thread_count > payload.len() as u64 {
        return Err(r.corrupt(format!("implausible thread count {thread_count}")));
    }
    let mut threads = BTreeMap::new();
    let mut prev_tid: Option<u64> = None;
    for _ in 0..thread_count {
        let tid = r.varint()?;
        if tid > u32::MAX as u64 || prev_tid.is_some_and(|p| p >= tid) {
            return Err(r.corrupt(format!("thread ids must strictly ascend, got {tid}")));
        }
        prev_tid = Some(tid);
        let count = r.varint()?;
        if count == 0 || count > u32::MAX as u64 {
            return Err(r.corrupt(format!("implausible node count {count} for tid{tid}")));
        }
        threads.insert(ThreadId(tid as u32), count as u32);
    }
    let edges = r.varint()?;
    if r.remaining() != 0 {
        return Err(r.corrupt(format!("{} trailing bytes in header record", r.remaining())));
    }
    Ok((threads, edges))
}

/// Decodes one edge-group record, appending to `edges` with full
/// validation (known endpoints, cross-thread, canonical order).
fn decode_edge_record(
    threads: &BTreeMap<ThreadId, u32>,
    edges: &mut Vec<OrderEdge>,
    payload: &[u8],
    base: usize,
) -> Result<()> {
    let mut r = ByteReader::at(payload, "order log record", base);
    let (mut prev_tid, mut prev_seq) = (0u32, 0u32);
    while r.remaining() != 0 {
        let code = r.u8()?;
        let kind = EdgeKind::from_code(code)
            .ok_or_else(|| r.corrupt_at(r.pos() - 1, format!("unknown edge kind {code}")))?;
        let dt = r.varint()?;
        let ds = r.varint()?;
        let from_tid = r.varint()?;
        let from_seq = r.varint()?;
        let to_tid = (prev_tid as u64)
            .checked_add(dt)
            .filter(|&t| t <= u32::MAX as u64)
            .ok_or_else(|| r.corrupt("edge destination tid overflows"))? as u32;
        let to_seq = if dt == 0 { (prev_seq as u64).checked_add(ds) } else { Some(ds) }
            .filter(|&s| s <= u32::MAX as u64)
            .ok_or_else(|| r.corrupt("edge destination seq overflows"))? as u32;
        if from_tid > u32::MAX as u64 || from_seq > u32::MAX as u64 {
            return Err(r.corrupt("edge source out of range"));
        }
        let edge = OrderEdge {
            from: PoNode { tid: ThreadId(from_tid as u32), seq: from_seq as u32 },
            to: PoNode { tid: ThreadId(to_tid), seq: to_seq },
            kind,
        };
        for node in [edge.from, edge.to] {
            match threads.get(&node.tid) {
                Some(&count) if node.seq < count => {}
                _ => return Err(r.corrupt(format!("edge endpoint {node} is not a node"))),
            }
        }
        if edge.from.tid == edge.to.tid {
            return Err(r.corrupt(format!("same-thread edge {} -> {}", edge.from, edge.to)));
        }
        if edges.last().is_some_and(|last| last.key() >= edge.key()) {
            return Err(r.corrupt(format!(
                "edge {} -> {} out of canonical order",
                edge.from, edge.to
            )));
        }
        edges.push(edge);
        (prev_tid, prev_seq) = (edge.to.tid.0, edge.to.seq);
    }
    Ok(())
}

// ----- derivation -----------------------------------------------------

/// One timeline event, in recorded global order, as the deriver sees it.
/// The caller (the capo session / `Recording::derive_order`) merges
/// chunks and input events into one timestamp-ordered slice and strips
/// the timestamps — only the order and the conflict evidence enter.
#[derive(Debug, Clone, Copy)]
pub struct PoEvent<'a> {
    /// Owning thread.
    pub tid: ThreadId,
    /// Read/write line sets (chunk footprint, or the kernel-side
    /// activity of an input event). `None` nodes never conflict.
    pub footprint: Option<&'a ChunkFootprint>,
    /// Whether this is an injected input event (chains into the global
    /// injection order).
    pub is_input: bool,
    /// Child thread created by this event (successful `SYS_SPAWN`).
    pub spawns: Option<ThreadId>,
}

/// Edge statistics of one derivation, for reports and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeriveStats {
    /// Implicit program-order edges (not logged).
    pub program_edges: u64,
    /// Conflict candidates considered before reduction.
    pub candidate_edges: u64,
    /// Logged conflict edges.
    pub conflict_edges: u64,
    /// Logged spawn edges.
    pub spawn_edges: u64,
    /// Logged input edges.
    pub input_edges: u64,
}

impl DeriveStats {
    /// Total logged (cross-thread) edges.
    pub fn logged_edges(&self) -> u64 {
        self.conflict_edges + self.spawn_edges + self.input_edges
    }
}

/// Derives the partial-order log of a recorded execution from its
/// timeline in recorded global order.
///
/// Candidate edges are the cross-thread pairs of the shared
/// [`ConflictSweep`] (the one the parallel replayer's dependency DAG is
/// built from), plus spawn and input-chain edges; candidates already
/// dominated by the destination's vector clock — after merging nearer
/// predecessors first — are dropped (transitive reduction).
///
/// # Errors
///
/// Returns [`QrError::Unsupported`] when a thread has more than
/// `u32::MAX` events (unreachable for real recordings).
pub fn derive(events: &[PoEvent]) -> Result<(OrderLog, DeriveStats)> {
    // Dense thread indexing for the vector clocks.
    let mut dense: BTreeMap<ThreadId, usize> = BTreeMap::new();
    for ev in events {
        let next = dense.len();
        dense.entry(ev.tid).or_insert(next);
    }
    let nthreads = dense.len();
    // Per-event (tid, seq) assignment.
    let mut counts: Vec<u32> = vec![0; nthreads];
    let mut seqs: Vec<u32> = Vec::with_capacity(events.len());
    for ev in events {
        let d = dense[&ev.tid];
        if counts[d] == u32::MAX {
            return Err(QrError::Unsupported(format!("{} has too many events", ev.tid)));
        }
        seqs.push(counts[d]);
        counts[d] += 1;
    }

    // Candidates: every cross-thread conflict the shared sweep reports
    // (same-thread ordering is program order and always dominated),
    // plus the structural spawn and input-chain edges.
    let mut sweep = ConflictSweep::new();
    let mut pending_spawn: HashMap<u32, usize> = HashMap::new();
    let mut last_input: Option<usize> = None;
    let mut candidates: Vec<Vec<(usize, EdgeKind)>> = Vec::with_capacity(events.len());
    let mut stats = DeriveStats::default();
    for (idx, ev) in events.iter().enumerate() {
        let mut cand: BTreeMap<usize, EdgeKind> = BTreeMap::new();
        let mut add = |src: usize, kind: EdgeKind| {
            // Spawn and input edges are structural; conflicts fill in.
            let slot = cand.entry(src).or_insert(kind);
            if kind.code() > slot.code() {
                *slot = kind;
            }
        };
        if seqs[idx] == 0 {
            if let Some(&spawner) = pending_spawn.get(&ev.tid.0) {
                add(spawner, EdgeKind::Spawn);
            }
        }
        if ev.is_input {
            if let Some(prev) = last_input {
                if events[prev].tid != ev.tid {
                    add(prev, EdgeKind::Input);
                }
            }
            last_input = Some(idx);
        }
        if let Some(fp) = ev.footprint {
            sweep.visit(idx, fp, |src| {
                if events[src].tid != ev.tid {
                    add(src, EdgeKind::Conflict);
                }
            });
        }
        if let Some(child) = ev.spawns {
            pending_spawn.insert(child.0, idx);
        }
        stats.candidate_edges += cand.len() as u64;
        candidates.push(cand.into_iter().collect());
    }

    // Vector-clock transitive reduction: walk nodes in recorded order;
    // start from the program predecessor's clock, then try candidates
    // nearest-first (descending source index) — each merge can dominate
    // earlier candidates, which are then skipped instead of logged.
    let mut clocks: Vec<VectorClock> = Vec::with_capacity(events.len());
    let mut last_of_thread: Vec<Option<usize>> = vec![None; nthreads];
    let mut edges: Vec<OrderEdge> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        let d = dense[&ev.tid];
        let mut vc = match last_of_thread[d] {
            Some(prev) => clocks[prev].clone(),
            None => VectorClock::new(nthreads),
        };
        let mut cand = std::mem::take(&mut candidates[idx]);
        cand.sort_unstable_by(|a, b| b.0.cmp(&a.0));
        for (src, kind) in cand {
            if vc.covers(dense[&events[src].tid], seqs[src] + 1) {
                continue; // already happens-before via a nearer edge
            }
            edges.push(OrderEdge {
                from: PoNode { tid: events[src].tid, seq: seqs[src] },
                to: PoNode { tid: ev.tid, seq: seqs[idx] },
                kind,
            });
            match kind {
                EdgeKind::Conflict => stats.conflict_edges += 1,
                EdgeKind::Spawn => stats.spawn_edges += 1,
                EdgeKind::Input => stats.input_edges += 1,
            }
            vc.join(&clocks[src]);
        }
        vc.set(d, seqs[idx] + 1);
        clocks.push(vc);
        last_of_thread[d] = Some(idx);
    }
    let threads: BTreeMap<ThreadId, u32> =
        dense.iter().map(|(&tid, &d)| (tid, counts[d])).collect();
    let log = OrderLog::new(threads, edges);
    stats.program_edges = log.program_edge_count();
    Ok((log, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::Cycle;

    fn node(tid: u32, seq: u32) -> PoNode {
        PoNode { tid: ThreadId(tid), seq }
    }

    fn sample() -> OrderLog {
        let threads: BTreeMap<ThreadId, u32> =
            [(ThreadId(0), 4), (ThreadId(1), 3), (ThreadId(2), 1)].into_iter().collect();
        let edges = vec![
            OrderEdge { from: node(0, 1), to: node(1, 0), kind: EdgeKind::Spawn },
            OrderEdge { from: node(1, 1), to: node(0, 2), kind: EdgeKind::Conflict },
            OrderEdge { from: node(0, 3), to: node(2, 0), kind: EdgeKind::Input },
            OrderEdge { from: node(1, 2), to: node(0, 3), kind: EdgeKind::Input },
        ];
        OrderLog::new(threads, edges)
    }

    #[test]
    fn round_trips_through_bytes() {
        let log = sample();
        let bytes = log.to_bytes();
        assert!(frame::is_framed(&bytes));
        assert_eq!(OrderLog::from_bytes(&bytes).unwrap(), log);
        assert_eq!(log.byte_size(), bytes.len());
    }

    #[test]
    fn empty_log_round_trips() {
        let log = OrderLog::default();
        assert_eq!(OrderLog::from_bytes(&log.to_bytes()).unwrap(), log);
    }

    #[test]
    fn many_edge_groups_round_trip() {
        // More edges than one group, exercising the per-record delta
        // restart.
        let threads: BTreeMap<ThreadId, u32> =
            [(ThreadId(0), 1000), (ThreadId(1), 1000)].into_iter().collect();
        let edges: Vec<OrderEdge> = (0..500)
            .map(|i| OrderEdge {
                from: node(0, i),
                to: node(1, i + 1),
                kind: EdgeKind::Conflict,
            })
            .collect();
        let log = OrderLog::new(threads, edges);
        assert_eq!(OrderLog::from_bytes(&log.to_bytes()).unwrap(), log);
    }

    #[test]
    fn torn_or_flipped_logs_are_rejected_and_salvage_an_edge_prefix() {
        // The walk itself is exercised in `qr_common::frame`; this checks
        // what the header and edge-record decoders make of it.
        let log = sample();
        let bytes = log.to_bytes();
        let (whole, report) = OrderLog::salvage_from_bytes(&bytes);
        assert_eq!(whole, log);
        assert!(report.corruption.is_none());
        assert_eq!(report.expected_edges, Some(log.edges().len() as u64));
        let damaged = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).chain(
            (0..bytes.len() * 8).map(|bit| {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                bad
            }),
        );
        for (case, bad) in damaged.enumerate() {
            let err = OrderLog::from_bytes(&bad).expect_err(&format!("case {case} must error"));
            assert!(matches!(err, QrError::Corrupt { .. }), "case {case}: {err}");
            let (torn, report) = OrderLog::salvage_from_bytes(&bad);
            assert_eq!(report.corruption, Some(err), "case {case}");
            assert!(log.edges().starts_with(torn.edges()), "case {case} salvaged a non-prefix");
            assert!(torn.threads().is_empty() || torn.threads() == log.threads(), "case {case}");
        }
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        let mut rng = qr_common::SplitMix64::new(0xbeef_0015);
        for _ in 0..4096 {
            let len = rng.below(256) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = OrderLog::from_bytes(&bytes);
            let _ = OrderLog::salvage_from_bytes(&bytes);
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(&frame::MAGIC);
                let _ = OrderLog::from_bytes(&bytes);
                let _ = OrderLog::salvage_from_bytes(&bytes);
            }
        }
    }

    #[test]
    fn foreign_container_is_rejected() {
        let mut w = frame::Writer::new(PayloadKind::InputLog);
        w.record(&[0]);
        let err = OrderLog::from_bytes(&w.finish()).unwrap_err();
        assert!(err.to_string().contains("expected an order log"), "{err}");
    }

    #[test]
    fn out_of_range_endpoint_is_rejected() {
        let mut log = sample();
        log.edges.push(OrderEdge { from: node(0, 0), to: node(1, 99), kind: EdgeKind::Conflict });
        log.edges.sort_by_key(OrderEdge::key);
        assert!(OrderLog::from_bytes(&log.to_bytes()).is_err());
    }

    #[test]
    fn same_thread_edge_is_rejected() {
        let mut log = sample();
        log.edges.push(OrderEdge { from: node(0, 0), to: node(0, 1), kind: EdgeKind::Conflict });
        log.edges.sort_by_key(OrderEdge::key);
        assert!(OrderLog::from_bytes(&log.to_bytes()).is_err());
    }

    #[test]
    fn order_mode_names_and_parse() {
        assert_eq!(OrderMode::default(), OrderMode::TotalOrder);
        for mode in [OrderMode::TotalOrder, OrderMode::PartialOrder] {
            assert_eq!(OrderMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(OrderMode::parse("bogus"), None);
    }

    // ----- derive ----------------------------------------------------

    fn fp(ts: u64, reads: &[u32], writes: &[u32]) -> ChunkFootprint {
        ChunkFootprint::new(
            Cycle(ts),
            reads.iter().map(|&l| qr_common::LineAddr(l)).collect(),
            writes.iter().map(|&l| qr_common::LineAddr(l)).collect(),
        )
    }

    #[test]
    fn derive_produces_conflict_and_spawn_edges() {
        // t0: write L1, spawn t1; t1: read L1.
        let f0 = fp(1, &[], &[1]);
        let f1 = fp(3, &[1], &[]);
        let events = [
            PoEvent { tid: ThreadId(0), footprint: Some(&f0), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(0), footprint: None, is_input: true, spawns: Some(ThreadId(1)) },
            PoEvent { tid: ThreadId(1), footprint: Some(&f1), is_input: false, spawns: None },
        ];
        let (log, stats) = derive(&events).unwrap();
        assert_eq!(log.node_count(), 3);
        // The spawn edge t0#1 -> t1#0 is logged; the RAW edge t0#0 ->
        // t1#0 is dominated by it (t0#0 happens-before t0#1 by program
        // order) and must have been reduced away.
        assert_eq!(log.edges().len(), 1);
        assert_eq!(log.edges()[0].kind, EdgeKind::Spawn);
        assert_eq!(log.edges()[0].from, node(0, 1));
        assert_eq!(log.edges()[0].to, node(1, 0));
        assert_eq!(stats.spawn_edges, 1);
        assert_eq!(stats.conflict_edges, 0);
        assert!(stats.candidate_edges >= 2);
    }

    #[test]
    fn derive_keeps_undominated_conflicts() {
        // Interleaved writers to the same line: every cross-thread
        // hand-off must survive reduction.
        let f = [fp(1, &[], &[7]), fp(2, &[], &[7]), fp(3, &[], &[7]), fp(4, &[], &[7])];
        let events = [
            PoEvent { tid: ThreadId(0), footprint: Some(&f[0]), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(1), footprint: Some(&f[1]), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(0), footprint: Some(&f[2]), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(1), footprint: Some(&f[3]), is_input: false, spawns: None },
        ];
        let (log, stats) = derive(&events).unwrap();
        assert_eq!(stats.conflict_edges, 3, "{:?}", log.edges());
        // The WAW chain t0#0 -> t1#0 -> t0#1 -> t1#1 forces the exact
        // alternation (canonical order: by destination).
        let edge = |from, to| OrderEdge { from, to, kind: EdgeKind::Conflict };
        assert_eq!(
            log.edges(),
            [edge(node(1, 0), node(0, 1)), edge(node(0, 0), node(1, 0)), edge(node(0, 1), node(1, 1))]
        );
    }

    #[test]
    fn derive_chains_cross_thread_inputs() {
        let events = [
            PoEvent { tid: ThreadId(0), footprint: None, is_input: true, spawns: Some(ThreadId(1)) },
            PoEvent { tid: ThreadId(1), footprint: None, is_input: true, spawns: None },
            PoEvent { tid: ThreadId(0), footprint: None, is_input: true, spawns: None },
        ];
        let (log, stats) = derive(&events).unwrap();
        // t0#0 -> t1#0 (spawn and input chain on the same pair: the
        // higher code, input, labels it) and t1#0 -> t0#1 (input chain).
        assert_eq!(stats.input_edges + stats.spawn_edges, log.edges().len() as u64);
        let edge = |from, to| OrderEdge { from, to, kind: EdgeKind::Input };
        assert_eq!(log.edges(), [edge(node(1, 0), node(0, 1)), edge(node(0, 0), node(1, 0))]);
    }

    #[test]
    fn derive_then_serialize_round_trips() {
        let f0 = fp(1, &[], &[1, 2]);
        let f1 = fp(2, &[2], &[3]);
        let f2 = fp(3, &[1, 3], &[]);
        let events = [
            PoEvent { tid: ThreadId(0), footprint: Some(&f0), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(1), footprint: Some(&f1), is_input: false, spawns: None },
            PoEvent { tid: ThreadId(2), footprint: Some(&f2), is_input: false, spawns: None },
        ];
        let (log, _) = derive(&events).unwrap();
        assert_eq!(OrderLog::from_bytes(&log.to_bytes()).unwrap(), log);
    }

    #[test]
    fn edge_kind_codes_round_trip() {
        for kind in EdgeKind::ALL {
            assert_eq!(EdgeKind::from_code(kind.code()), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EdgeKind::from_code(99), None);
    }
}
