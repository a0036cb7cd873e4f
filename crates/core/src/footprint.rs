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
//! The footprint log is an *optional* sidecar: recordings migrated from
//! v1 and salvaged prefixes may lack it (or hold only a prefix), in which
//! case parallel replay falls back to the serial path. Missing footprints
//! never affect correctness, only replay-time parallelism.

use qr_common::frame::{self, PayloadKind};
use qr_common::{varint, Cycle, LineAddr, QrError, Result};
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

/// The footprint sidecar log of a recording: one [`ChunkFootprint`] per
/// chunk packet and per input event, indexed by global timestamp.
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

    /// Serializes the log as a framed container (one record per
    /// footprint: varint timestamp, set sizes, then delta-coded sorted
    /// line numbers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = frame::Writer::new(PayloadKind::FootprintLog);
        let mut payload = Vec::new();
        for fp in self.entries.values() {
            payload.clear();
            varint::write_u64(&mut payload, fp.ts.0);
            varint::write_u64(&mut payload, fp.reads.len() as u64);
            varint::write_u64(&mut payload, fp.writes.len() as u64);
            write_lines(&mut payload, &fp.reads);
            write_lines(&mut payload, &fp.writes);
            w.record(&payload);
        }
        w.finish()
    }

    /// Strictly decodes a framed footprint log.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] for framing faults or malformed
    /// footprint payloads.
    pub fn from_bytes(buf: &[u8]) -> Result<FootprintLog> {
        let mut log = FootprintLog::new();
        for record in frame::read(buf, PayloadKind::FootprintLog, "footprint log")? {
            log.push(decode_entry(record)?);
        }
        Ok(log)
    }

    /// Tolerantly decodes the longest valid prefix of a (possibly torn)
    /// footprint log. The result may cover only part of the recording;
    /// parallel replay checks coverage and falls back to serial replay
    /// when footprints are missing.
    pub fn salvage_from_bytes(buf: &[u8]) -> FootprintLog {
        let mut log = FootprintLog::new();
        for record in frame::scan(buf).records {
            match decode_entry(record) {
                Ok(fp) => log.push(fp),
                Err(_) => break,
            }
        }
        log
    }
}

/// Appends a sorted, deduplicated line set as first-absolute-then-delta
/// varints.
fn write_lines(buf: &mut Vec<u8>, lines: &[LineAddr]) {
    let mut prev = 0u32;
    for (i, line) in lines.iter().enumerate() {
        if i == 0 {
            varint::write_u64(buf, u64::from(line.0));
        } else {
            varint::write_u64(buf, u64::from(line.0 - prev));
        }
        prev = line.0;
    }
}

/// Decodes one footprint record.
fn decode_entry(buf: &[u8]) -> Result<ChunkFootprint> {
    let corrupt = |detail: &str, offset: usize| QrError::Corrupt {
        what: "footprint log".to_string(),
        offset: offset as u64,
        detail: detail.to_string(),
    };
    let mut off = 0usize;
    let next = |buf: &[u8], off: &mut usize| -> Result<u64> {
        let (v, n) = varint::read_u64(&buf[*off..])?;
        *off += n;
        Ok(v)
    };
    let ts = next(buf, &mut off)?;
    let n_reads = next(buf, &mut off)?;
    let n_writes = next(buf, &mut off)?;
    let max_lines = 1u64 << 26; // the whole 32-bit space has 2^26 lines
    if n_reads > max_lines || n_writes > max_lines {
        return Err(corrupt("absurd footprint set size", off));
    }
    let read_lines = |count: u64, off: &mut usize| -> Result<Vec<LineAddr>> {
        let mut lines = Vec::with_capacity(count as usize);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let raw = next(buf, off)?;
            let value = match prev {
                None => raw,
                // Strictly ascending: a zero delta means a duplicate.
                Some(_) if raw == 0 => {
                    return Err(corrupt("non-ascending footprint line", *off));
                }
                Some(p) => u64::from(p) + raw,
            };
            if value > u64::from(u32::MAX >> qr_common::ids::CACHE_LINE_SHIFT) {
                return Err(corrupt("footprint line out of range", *off));
            }
            prev = Some(value as u32);
            lines.push(LineAddr(value as u32));
        }
        Ok(lines)
    };
    let reads = read_lines(n_reads, &mut off)?;
    let writes = read_lines(n_writes, &mut off)?;
    if off != buf.len() {
        return Err(corrupt("trailing bytes in footprint record", off));
    }
    Ok(ChunkFootprint { ts: Cycle(ts), reads, writes })
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

    fn sample_log() -> FootprintLog {
        let mut log = FootprintLog::new();
        log.push(fp(10, &[1, 2, 3], &[3]));
        log.push(fp(25, &[], &[0x100, 0x101]));
        log.push(fp(26, &[7], &[]));
        log.push(fp(1000, &[0x03ff_ffff], &[0, 0x03ff_ffff]));
        log
    }

    #[test]
    fn round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes();
        assert_eq!(FootprintLog::from_bytes(&bytes).unwrap(), log);
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

    #[test]
    fn truncation_salvages_an_entry_prefix() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let cut = bytes.len() - 3;
        assert!(FootprintLog::from_bytes(&bytes[..cut]).is_err());
        let salvaged = FootprintLog::salvage_from_bytes(&bytes[..cut]);
        assert_eq!(salvaged.len(), log.len() - 1);
        assert_eq!(salvaged.get(Cycle(26)), log.get(Cycle(26)));
        assert_eq!(salvaged.get(Cycle(1000)), None);
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = sample_log().to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                let _ = FootprintLog::from_bytes(&bad);
                let _ = FootprintLog::salvage_from_bytes(&bad);
            }
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut w = frame::Writer::new(PayloadKind::ChunkLog);
        w.record(b"\x01\x00\x00");
        assert!(FootprintLog::from_bytes(&w.finish()).is_err());
    }
}
