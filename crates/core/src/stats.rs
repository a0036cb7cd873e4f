//! Recorder statistics.

use crate::chunk::{ChunkPacket, TerminationReason};

/// Per-core recorder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreRecorderStats {
    /// Chunks emitted from this core.
    pub chunks: u64,
    /// User instructions covered by those chunks.
    pub instructions: u64,
    /// Stall cycles caused by CBUF backpressure.
    pub cbuf_stall_cycles: u64,
}

/// Machine-wide recorder counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Per-core counters.
    pub cores: Vec<CoreRecorderStats>,
    /// Chunk count per termination reason, indexed by
    /// [`TerminationReason::code`].
    pub chunks_by_reason: [u64; TerminationReason::ALL.len()],
    /// Chunks that carried a nonzero RSW.
    pub chunks_with_rsw: u64,
    /// Sum of RSW values (for the mean).
    pub rsw_sum: u64,
    /// Conflict terminations that exact tracking identified as signature
    /// false positives.
    pub false_positive_conflicts: u64,
}

impl RecorderStats {
    /// Creates zeroed counters for `num_cores` cores.
    pub fn new(num_cores: usize) -> RecorderStats {
        RecorderStats { cores: vec![CoreRecorderStats::default(); num_cores], ..Default::default() }
    }

    /// Accounts one emitted chunk.
    pub fn count_chunk(&mut self, packet: &ChunkPacket) {
        let core = &mut self.cores[packet.core.index()];
        core.chunks += 1;
        core.instructions += packet.icount;
        self.chunks_by_reason[packet.reason.code() as usize] += 1;
        if packet.rsw > 0 {
            self.chunks_with_rsw += 1;
            self.rsw_sum += packet.rsw as u64;
        }
    }

    /// Total chunks across cores.
    pub fn total_chunks(&self) -> u64 {
        self.cores.iter().map(|c| c.chunks).sum()
    }

    /// Total recorded user instructions.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Mean chunk size in instructions (0 if no chunks).
    pub fn mean_chunk_size(&self) -> f64 {
        let chunks = self.total_chunks();
        if chunks == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / chunks as f64
        }
    }

    /// Chunks terminated by cross-core conflicts (including false
    /// positives).
    pub fn conflict_chunks(&self) -> u64 {
        TerminationReason::ALL
            .iter()
            .filter(|r| r.is_conflict())
            .map(|r| self.chunks_by_reason[r.code() as usize])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::{CoreId, Cycle, ThreadId};

    fn packet(core: u8, icount: u64, rsw: u8, reason: TerminationReason) -> ChunkPacket {
        ChunkPacket {
            tid: ThreadId(0),
            core: CoreId(core),
            icount,
            timestamp: Cycle(1),
            rsw,
            reason,
        }
    }

    #[test]
    fn counting_aggregates_correctly() {
        let mut s = RecorderStats::new(2);
        s.count_chunk(&packet(0, 10, 0, TerminationReason::ConflictRaw));
        s.count_chunk(&packet(1, 30, 2, TerminationReason::Syscall));
        s.count_chunk(&packet(1, 20, 3, TerminationReason::ConflictWar));
        assert_eq!(s.total_chunks(), 3);
        assert_eq!(s.total_instructions(), 60);
        assert_eq!(s.mean_chunk_size(), 20.0);
        assert_eq!(s.conflict_chunks(), 2);
        assert_eq!(s.chunks_with_rsw, 2);
        assert_eq!(s.rsw_sum, 5);
        assert_eq!(s.cores[1].chunks, 2);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = RecorderStats::new(4);
        assert_eq!(s.total_chunks(), 0);
        assert_eq!(s.mean_chunk_size(), 0.0);
        assert_eq!(s.conflict_chunks(), 0);
    }
}
