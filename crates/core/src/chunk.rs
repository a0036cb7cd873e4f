//! Chunk packets — the unit of the memory log.

use qr_common::{CoreId, Cycle, ThreadId};
use std::fmt;

/// Why a chunk terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TerminationReason {
    /// Remote read hit the local write signature (true dependency W→R).
    ConflictRaw = 0,
    /// Remote write hit the local read signature (anti dependency R→W).
    ConflictWar = 1,
    /// Remote write hit the local write signature (output dependency W→W).
    ConflictWaw = 2,
    /// A signature exceeded its occupancy limit.
    SigSaturation = 3,
    /// The chunk instruction counter reached its maximum.
    IcOverflow = 4,
    /// The thread entered the kernel via `syscall`.
    Syscall = 5,
    /// The thread trapped (fault, nondeterministic-read logging point).
    Trap = 6,
    /// The kernel switched the thread off the core.
    ContextSwitch = 7,
    /// Recording stopped (thread exit or sphere teardown).
    SphereEnd = 8,
}

impl TerminationReason {
    /// All reasons, in encoding order.
    pub const ALL: [TerminationReason; 9] = [
        TerminationReason::ConflictRaw,
        TerminationReason::ConflictWar,
        TerminationReason::ConflictWaw,
        TerminationReason::SigSaturation,
        TerminationReason::IcOverflow,
        TerminationReason::Syscall,
        TerminationReason::Trap,
        TerminationReason::ContextSwitch,
        TerminationReason::SphereEnd,
    ];

    /// Encoding byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an encoding byte.
    pub fn from_code(code: u8) -> Option<TerminationReason> {
        TerminationReason::ALL.get(code as usize).copied()
    }

    /// Whether this termination was caused by a detected (or
    /// false-positive) cross-core conflict.
    pub fn is_conflict(self) -> bool {
        matches!(
            self,
            TerminationReason::ConflictRaw
                | TerminationReason::ConflictWar
                | TerminationReason::ConflictWaw
        )
    }

    /// The boundary-drain rule: whether a chunk closed for this reason
    /// drains the core's store buffer before it is stamped. The recorder
    /// applies it when it terminates a chunk and the replayer when it
    /// re-executes one; replay is only sound while both ask here.
    #[inline]
    pub fn drains_store_buffer(self, tso_mode: qr_mem::TsoMode) -> bool {
        match self {
            // Kernel/serialization boundaries always drain.
            TerminationReason::Syscall
            | TerminationReason::Trap
            | TerminationReason::ContextSwitch
            | TerminationReason::SphereEnd => true,
            // Hardware chunk closings drain only in DrainAtChunk mode.
            TerminationReason::IcOverflow | TerminationReason::SigSaturation => {
                tso_mode == qr_mem::TsoMode::DrainAtChunk
            }
            // Conflict victims never drain (visibility-time attribution).
            TerminationReason::ConflictRaw
            | TerminationReason::ConflictWar
            | TerminationReason::ConflictWaw => false,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            TerminationReason::ConflictRaw => "raw",
            TerminationReason::ConflictWar => "war",
            TerminationReason::ConflictWaw => "waw",
            TerminationReason::SigSaturation => "sig-sat",
            TerminationReason::IcOverflow => "ic-ovf",
            TerminationReason::Syscall => "syscall",
            TerminationReason::Trap => "trap",
            TerminationReason::ContextSwitch => "ctx-sw",
            TerminationReason::SphereEnd => "end",
        }
    }
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One chunk of the memory log.
///
/// The hardware emits (core, icount, timestamp, rsw, reason); the Capo3
/// software stack tags the packet with the thread that owned the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPacket {
    /// Thread the chunk belongs to (tagged by software at drain).
    pub tid: ThreadId,
    /// Core the chunk executed on.
    pub core: CoreId,
    /// User instructions retired in the chunk.
    pub icount: u64,
    /// Global timestamp at termination; the replayer executes chunks in
    /// increasing timestamp order.
    pub timestamp: Cycle,
    /// Reordered store window: stores still pending in the store buffer
    /// at termination (always 0 in `DrainAtChunk` mode).
    pub rsw: u8,
    /// Why the chunk ended.
    pub reason: TerminationReason,
}

impl fmt::Display for ChunkPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ic={} ts={} rsw={} ({})",
            self.tid, self.core, self.icount, self.timestamp.0, self.rsw, self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_codes_round_trip() {
        for r in TerminationReason::ALL {
            assert_eq!(TerminationReason::from_code(r.code()), Some(r));
        }
        assert_eq!(TerminationReason::from_code(200), None);
    }

    #[test]
    fn boundary_drain_rule() {
        use qr_mem::TsoMode::{DrainAtChunk, Rsw};
        for r in TerminationReason::ALL {
            let (at_chunk, rsw) = (r.drains_store_buffer(DrainAtChunk), r.drains_store_buffer(Rsw));
            match r {
                TerminationReason::IcOverflow | TerminationReason::SigSaturation => {
                    assert!(at_chunk && !rsw, "{r:?} drains only under DrainAtChunk");
                }
                r if r.is_conflict() => assert!(!at_chunk && !rsw, "{r:?} never drains"),
                _ => assert!(at_chunk && rsw, "{r:?} always drains"),
            }
        }
    }

    #[test]
    fn conflict_classification() {
        assert!(TerminationReason::ConflictRaw.is_conflict());
        assert!(TerminationReason::ConflictWar.is_conflict());
        assert!(TerminationReason::ConflictWaw.is_conflict());
        assert!(!TerminationReason::Syscall.is_conflict());
        assert!(!TerminationReason::SigSaturation.is_conflict());
    }

    #[test]
    fn display_is_compact() {
        let p = ChunkPacket {
            tid: ThreadId(1),
            core: CoreId(2),
            icount: 100,
            timestamp: Cycle(7),
            rsw: 3,
            reason: TerminationReason::ConflictRaw,
        };
        let s = p.to_string();
        assert!(s.contains("tid1") && s.contains("core2") && s.contains("raw"));
    }
}
