//! The merged replay timeline of a recording.
//!
//! Chunk packets and timestamped input events are stamped by the same
//! strictly monotonic clock, so sorting them together by timestamp
//! yields the one event sequence every consumer steps through: serial,
//! checkpointed and seeked replay, the `--jobs N` dependency DAG,
//! ordered replay, time-travel descriptors and partial-order
//! derivation.

use crate::input_log::InputEvent;
use crate::recording::Recording;
use qr_common::{Cycle, QrError, Result, ThreadId};
use quickrec_core::{ChunkFootprint, ChunkPacket};

/// What one timeline entry replays.
#[derive(Debug, Clone, Copy)]
pub enum TimelineEvent<'a> {
    /// A chunk of user instructions.
    Chunk(ChunkPacket),
    /// An injected input (syscall result or signal delivery), borrowed
    /// from the recording's input log.
    Input(&'a InputEvent),
}

impl TimelineEvent<'_> {
    /// The event's global timestamp.
    pub fn ts(&self) -> Cycle {
        match self {
            TimelineEvent::Chunk(packet) => packet.timestamp,
            TimelineEvent::Input(event) => event.ts(),
        }
    }

    /// The thread the event belongs to.
    pub fn tid(&self) -> ThreadId {
        match self {
            TimelineEvent::Chunk(packet) => packet.tid,
            TimelineEvent::Input(event) => event.tid(),
        }
    }

    /// The child thread this event creates (a successful `SYS_SPAWN`
    /// record): the child's first event must replay after it.
    pub fn spawned_child(&self) -> Option<ThreadId> {
        match self {
            TimelineEvent::Input(InputEvent::Syscall { record, .. })
                if record.number == qr_isa::abi::SYS_SPAWN
                    && record.result != qr_os::kernel::EFAULT =>
            {
                Some(ThreadId(record.result))
            }
            _ => None,
        }
    }
}

/// One entry of the merged timeline: the event plus its cache-line
/// footprint, when the recording's footprint sidecar has one.
#[derive(Debug, Clone, Copy)]
pub struct TimelineEntry<'a> {
    /// What to replay at this position.
    pub event: TimelineEvent<'a>,
    /// Lines the event read and wrote (`None` without a sidecar, past
    /// the end of a torn one, and for signal deliveries, which touch
    /// registers only).
    pub footprint: Option<&'a ChunkFootprint>,
}

impl Recording {
    /// The merged, timestamp-ordered sequence of chunks and input
    /// events, each with its footprint where one was recorded.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::LogDecode`] when two events share a timestamp:
    /// the recorder's clock is strictly monotonic, so the logs are
    /// corrupt and the order ambiguous.
    pub fn timeline(&self) -> Result<Vec<TimelineEntry<'_>>> {
        let mut timeline: Vec<TimelineEntry> = (self.chunks.packets().iter())
            .map(|packet| TimelineEvent::Chunk(*packet))
            .chain(self.inputs.events().iter().map(TimelineEvent::Input))
            .map(|event| TimelineEntry { event, footprint: None })
            .collect();
        timeline.sort_by_key(|entry| entry.event.ts());
        if let Some(pair) = timeline.windows(2).find(|p| p[0].event.ts() == p[1].event.ts()) {
            return Err(QrError::LogDecode(format!(
                "duplicate timeline timestamp {}",
                pair[0].event.ts().0
            )));
        }
        // Both sequences ascend by timestamp: one merge pass attaches
        // the footprints.
        let mut footprints = self.footprints.iter().flat_map(|log| log.iter()).peekable();
        for entry in &mut timeline {
            let ts = entry.event.ts();
            while footprints.next_if(|fp| fp.ts < ts).is_some() {}
            entry.footprint = footprints.next_if(|fp| fp.ts == ts);
        }
        Ok(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::racy_program;
    use crate::{record, RecordingConfig};

    fn recorded() -> Recording {
        record(racy_program(), RecordingConfig::with_cores(2)).unwrap()
    }

    #[test]
    fn timeline_merges_both_logs_in_timestamp_order_with_footprints() {
        let mut recording = recorded();
        let timeline = recording.timeline().unwrap();
        assert_eq!(timeline.len(), recording.chunks.len() + recording.inputs.events().len());
        assert!(timeline.windows(2).all(|p| p[0].event.ts() < p[1].event.ts()));
        // Fresh recordings footprint every chunk and syscall.
        assert!(timeline.iter().all(|e| e.footprint.is_some_and(|fp| fp.ts == e.event.ts())));
        let spawns: Vec<ThreadId> = timeline.iter().filter_map(|e| e.event.spawned_child()).collect();
        assert_eq!(spawns, [ThreadId(1)]);
        // A torn sidecar attaches the footprints it still has; none, none.
        let full = recording.footprints.take().unwrap();
        assert!(recording.timeline().unwrap().iter().all(|e| e.footprint.is_none()));
        let mut prefix = quickrec_core::FootprintLog::new();
        full.iter().take(full.len() / 2).for_each(|fp| prefix.push(fp.clone()));
        recording.footprints = Some(prefix);
        let attached = recording.timeline().unwrap().iter().filter(|e| e.footprint.is_some()).count();
        assert_eq!(attached, full.len() / 2);
    }

    #[test]
    fn a_chunk_sharing_an_input_timestamp_is_a_log_decode_error() {
        let mut recording = recorded();
        let ts = recording.inputs.events()[0].ts();
        let mut packets = recording.chunks.packets().to_vec();
        packets[0].timestamp = ts;
        recording.chunks = packets.into_iter().collect();
        match recording.timeline() {
            Err(QrError::LogDecode(msg)) => assert!(msg.contains("duplicate timeline timestamp")),
            other => panic!("{other:?}"),
        }
    }
}
