//! Time-travel queries over a recording: a persisted checkpoint index,
//! O(log n) seek, and ranged / thread-slice / reverse-step queries.
//!
//! The paper's position is that replay debugging only becomes
//! interactive when you can jump *into* an execution instead of
//! replaying it front to back. This module provides that jump:
//!
//! - [`CheckpointIndex`] serializes periodic checkpoints of one replay
//!   into one framed `checkpoints.qrc` sidecar, with a binary-searchable
//!   key table (timeline position, chunk / input / instruction counters,
//!   per-thread instruction counts). A checkpoint stores what changed:
//!   guest memory as the 8-byte-word runs that differ from the freshly
//!   loaded program image (a keyframe, every [`KEYFRAME_EVERY`]th) or
//!   from the previous checkpoint (a delta), everything else in full.
//! - [`QueryEngine::seek`] restores the nearest preceding checkpoint and
//!   re-executes forward, so reaching timeline position `p` costs
//!   O(log n) lookup, at most [`KEYFRAME_EVERY`] overlays and at most
//!   one checkpoint interval of replay.
//! - [`ReplayQuery`] describes a slice of the execution (chunk range,
//!   one thread's events, an instruction window, the tail before a
//!   divergence, or `reverse_step`); [`QueryEngine::execute`] answers it
//!   with a [`QueryResult`] that is byte-identical to the same slice
//!   extracted from a from-scratch serial replay.
//!
//! A corrupt or mismatched index never fails a query: the engine
//! degrades to from-scratch replay (counting the event via `qr-obs`)
//! because the index is a cache of replay state, never a source of
//! truth.

use crate::exec::check_program;
use crate::replayer::{fresh_machine, RecordKind, Replayer};
use qr_capo::{InputEvent, Recording, TimelineEntry, TimelineEvent};
use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::wire::{self, Absent, Le, List, Wire};
use qr_common::{wire_enum, wire_struct, Cycle, QrError, Result, ThreadId};
use qr_cpu::Machine;
use qr_isa::Program;
use std::sync::Arc;

/// The `checkpoints.qrc` index layout this replayer reads and writes.
/// Version 1 stored every checkpoint as a full machine dump; it is
/// refused by version, like any other layout that is not this one.
pub const CHECKPOINT_INDEX_VERSION: u64 = 2;

/// Checkpoint `i` of an index is a keyframe when `i` is a multiple of
/// this, a delta on checkpoint `i - 1` otherwise, so a seek applies at
/// most this many records. Measured on lu/radix/fft (DESIGN.md,
/// decision 12): 8 keeps 87 % of what never writing a second keyframe
/// would save.
const KEYFRAME_EVERY: usize = 8;

/// The kind of checkpoint `i` (0-based) of an index. The writer, the
/// reader and every seek agree on it by position; the byte each record
/// opens with only has to confirm it.
fn kind_of_checkpoint(i: usize) -> RecordKind {
    if i.is_multiple_of(KEYFRAME_EVERY) {
        RecordKind::Keyframe
    } else {
        RecordKind::Delta
    }
}

wire_enum! {
    /// What kind of timeline event a descriptor describes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind as "event kind" {
        /// A chunk of user instructions executed by one thread.
        0 "chunk" Chunk,
        /// An injected syscall result.
        1 "syscall" Syscall,
        /// An injected signal delivery.
        2 "signal" Signal,
    }
}

wire_struct! {
    /// One merged-timeline event, described without replaying it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EventDescriptor {
        /// Position in the merged timeline.
        pub pos: u64,
        /// Event kind.
        pub kind: EventKind,
        /// Thread the event belongs to.
        pub tid: ThreadId as Le,
        /// Global timestamp.
        pub timestamp: Cycle,
        /// Instructions the event executes (0 for injected inputs).
        pub icount: u64,
        /// Kind-specific detail: chunk termination-reason code, syscall
        /// number, or 0 for signals.
        pub detail: u32 as Le,
    }
}

/// Describes every event of `recording`'s merged timeline without
/// replaying anything — the static skeleton time-travel queries slice.
///
/// # Errors
///
/// Propagates timeline construction errors (duplicate timestamps,
/// malformed chunk schedules).
pub fn timeline_descriptors(recording: &Recording) -> Result<Vec<EventDescriptor>> {
    Ok(describe(&recording.timeline()?))
}

fn describe(timeline: &[TimelineEntry<'_>]) -> Vec<EventDescriptor> {
    (timeline.iter().enumerate())
        .map(|(pos, entry)| {
            let (kind, icount, detail) = match entry.event {
                TimelineEvent::Chunk(p) => (EventKind::Chunk, p.icount, u32::from(p.reason.code())),
                TimelineEvent::Input(InputEvent::Syscall { record, .. }) => {
                    (EventKind::Syscall, 0, record.number)
                }
                TimelineEvent::Input(InputEvent::Signal { .. }) => (EventKind::Signal, 0, 0),
            };
            EventDescriptor {
                pos: pos as u64,
                kind,
                tid: entry.event.tid(),
                timestamp: entry.event.ts(),
                icount,
                detail,
            }
        })
        .collect()
}

wire_struct! {
    /// The seek key of one persisted checkpoint: where it sits in the
    /// timeline and how much progress the replay had made when it was
    /// taken.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CheckpointKey {
        /// Timeline events already replayed at this checkpoint.
        pub position: u64,
        /// Instructions replayed.
        pub instructions: u64,
        /// Chunks replayed.
        pub chunks_replayed: u64,
        /// Input events injected.
        pub inputs_injected: u64,
        /// Cumulative instructions retired per thread (index = tid).
        pub thread_icounts: Vec<u64> as List<250>,
    }
}

wire_struct! {
    /// A persisted, binary-searchable set of replay checkpoints — the
    /// contents of a `checkpoints.qrc` sidecar.
    ///
    /// Record 0 of the framed container is the seek index: the index
    /// version, then the fields below up to `keys`, in declaration order.
    /// Each following record is one serialized checkpoint: a kind byte,
    /// guest memory as an overlay — on the freshly loaded program image
    /// for a keyframe, on the previous checkpoint's memory for a delta —
    /// and all other replay state in full. Records stay as raw bytes
    /// until a seek actually needs them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CheckpointIndex {
        /// Fingerprint of the program the checkpoints replay.
        pub program_fingerprint: u64 as Le,
        /// Final-state fingerprint of the recording (binds the sidecar).
        pub recording_fingerprint: u64 as Le,
        /// Checkpoint interval, in timeline events.
        pub interval: u64,
        /// Total events in the recording's merged timeline.
        pub timeline_len: u64,
        /// Seek keys, strictly increasing by position.
        pub keys: Vec<CheckpointKey>,
        /// Serialized checkpoint records, parallel to `keys`: the records
        /// after the header, not part of it.
        pub snapshots: Vec<Vec<u8>> as Absent,
    }
}

impl CheckpointIndex {
    /// Replays `recording` once, checkpointing every `every_events`
    /// timeline events, and packages the checkpoints into an index.
    /// Each checkpoint is serialized as it is reached, against the
    /// initial memory image or the one retained copy of the previous
    /// checkpoint's memory; no machine is ever cloned.
    ///
    /// # Errors
    ///
    /// Propagates replay errors; a recording that cannot be replayed
    /// cleanly cannot be indexed.
    pub fn build(
        program: &Program,
        recording: &Recording,
        every_events: usize,
    ) -> Result<CheckpointIndex> {
        check_program(program, recording)?;
        let timeline: Arc<[TimelineEntry<'_>]> = recording.timeline()?.into();
        let descriptors = describe(&timeline);
        let machine = fresh_machine(program, recording)?;
        let initial = machine.mem().memory().clone();
        let mut previous = initial.clone();
        let mut keys = Vec::new();
        let mut snapshots = Vec::new();
        let mut thread_icounts = vec![0u64; machine.num_cores()];
        let mut scanned = 0usize;
        let mut replayer = Replayer::start(recording, timeline, machine)?;
        replayer.run_checkpointing(every_events, |rp| {
            // Keys are sorted by position, so one forward scan over the
            // descriptors prices out all the per-thread counters.
            for d in &descriptors[scanned..rp.position()] {
                if d.kind == EventKind::Chunk {
                    thread_icounts[d.tid.index()] += d.icount;
                }
            }
            scanned = rp.position();
            keys.push(CheckpointKey {
                position: rp.position() as u64,
                instructions: rp.instructions_so_far(),
                chunks_replayed: rp.chunks_replayed_so_far() as u64,
                inputs_injected: rp.inputs_injected_so_far() as u64,
                thread_icounts: thread_icounts.clone(),
            });
            let kind = kind_of_checkpoint(snapshots.len());
            let base = if kind == RecordKind::Keyframe { &initial } else { &previous };
            snapshots.push(rp.checkpoint_record(kind, base));
            previous.clone_from(rp.memory());
        })?;
        // A recording that does not end cleanly is not indexed.
        replayer.finish()?;
        Ok(CheckpointIndex {
            interval: every_events as u64,
            timeline_len: descriptors.len() as u64,
            program_fingerprint: recording.meta.program_fingerprint,
            recording_fingerprint: recording.fingerprint,
            keys,
            snapshots,
        })
    }

    /// Serializes the index as a framed `checkpoints.qrc` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = wire::encode(&CHECKPOINT_INDEX_VERSION);
        self.put(&mut header);
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(&header);
        for snapshot in &self.snapshots {
            w.record(snapshot);
        }
        w.finish()
    }

    /// Inverse of [`CheckpointIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Unsupported`] for an index of any other
    /// format version, older or newer (naming both versions), and
    /// [`QrError::Corrupt`] for malformed bytes — including a record
    /// whose kind byte is not the one its place calls for: an unknown
    /// byte, a first record that is not a keyframe, a chain of more than
    /// [`KEYFRAME_EVERY`] records.
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointIndex> {
        let what = "checkpoint index";
        let records = frame::read(bytes, PayloadKind::CheckpointIndex, what)?;
        let Some((header, snapshots)) = records.split_first() else {
            return Err(QrError::Corrupt {
                what: what.into(),
                offset: frame::HEADER_LEN as u64,
                detail: "missing index header record".into(),
            });
        };
        let mut r = ByteReader::at(header, what, frame::HEADER_LEN + 4);
        let version = u64::get(&mut r)?;
        if version == 0 {
            return Err(r.corrupt_at(0, "implausible index version 0"));
        }
        if version != CHECKPOINT_INDEX_VERSION {
            return Err(QrError::Unsupported(format!(
                "checkpoint index version {version} \
                 (this replayer reads only version {CHECKPOINT_INDEX_VERSION}; \
                 the index is a cache, rebuild it from the recording)"
            )));
        }
        let mut index: CheckpointIndex = wire::decode(r.clone())?;
        if index.interval == 0 {
            return Err(r.corrupt("checkpoint interval 0"));
        }
        if index.keys.len() != snapshots.len() {
            return Err(r.corrupt(format!(
                "index lists {} checkpoints but container has {}",
                index.keys.len(),
                snapshots.len()
            )));
        }
        if let Some(key) = index.keys.iter().find(|k| k.position >= index.timeline_len) {
            return Err(r.corrupt(format!(
                "checkpoint position {} beyond timeline of {}",
                key.position, index.timeline_len
            )));
        }
        if let Some(pair) = index.keys.windows(2).find(|w| w[1].position <= w[0].position) {
            return Err(r.corrupt(format!(
                "checkpoint positions not increasing ({} then {})",
                pair[0].position, pair[1].position
            )));
        }
        for (i, record) in snapshots.iter().enumerate() {
            kind_of_checkpoint(i).expect(&mut ByteReader::new(record, &format!("checkpoint record {i}")))?;
        }
        index.snapshots = snapshots.iter().map(|rec| rec.to_vec()).collect();
        Ok(index)
    }

    /// Index of the latest checkpoint at or before timeline position
    /// `target`, if any.
    fn best_for(&self, target: usize) -> Option<usize> {
        self.keys
            .partition_point(|k| k.position as usize <= target)
            .checked_sub(1)
    }
}

wire_enum! {
    /// A slice of a recorded execution to extract.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReplayQuery as "query tag" {
        /// Chunks `start..end` (chunk ordinals, end exclusive) and every
        /// timeline event between them.
        0 "range" Range {
            /// First chunk ordinal.
            start: u64,
            /// One past the last chunk ordinal.
            end: u64,
        },
        /// Every event belonging to one thread (its chunks, syscall
        /// results and signal deliveries), as the span from its first to
        /// its last.
        1 "thread" Thread {
            /// The thread.
            tid: ThreadId as Le,
        },
        /// The events covering replayed-instruction counts `start..end`.
        2 "window" Window {
            /// First instruction of interest.
            start: u64,
            /// One past the last instruction of interest.
            end: u64,
        },
        /// The last `instructions` instructions before the replay
        /// diverges (or before the end, for a clean recording).
        3 "before-divergence" BeforeDivergence {
            /// Tail length, in instructions.
            instructions: u64,
        },
        /// The machine state `events` timeline events before the end —
        /// stepping backwards by re-executing forward from a checkpoint.
        4 "reverse-step" ReverseStep {
            /// How many events to step back from the end.
            events: u64,
        },
    }
}

impl std::fmt::Display for ReplayQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplayQuery::Range { start, end } => write!(f, "chunks {start}..{end}"),
            ReplayQuery::Thread { tid } => write!(f, "all events of {tid}"),
            ReplayQuery::Window { start, end } => write!(f, "instructions {start}..{end}"),
            ReplayQuery::BeforeDivergence { instructions } => {
                write!(f, "last {instructions} instructions before divergence")
            }
            ReplayQuery::ReverseStep { events } => write!(f, "reverse-step {events} events"),
        }
    }
}

wire_struct! {
    /// What executing a query would cost — the dry-run answer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QueryPlan {
        /// The query this plan answers.
        pub query: ReplayQuery,
        /// First timeline position of the result span.
        pub start: u64,
        /// One past the last timeline position of the result span.
        pub end: u64,
        /// Position of the checkpoint a seek would restore, if any.
        pub checkpoint: Option<u64>,
        /// Timeline events that must be re-executed to answer the query.
        pub events_to_execute: u64,
        /// Total events in the recording's timeline.
        pub timeline_len: u64,
    }
}

impl QueryPlan {
    /// Renders the plan as the text `--dry-run` prints.
    pub fn render(&self) -> String {
        let from = match self.checkpoint {
            Some(pos) => format!("checkpoint at event {pos}"),
            None => "the start (no usable checkpoint)".into(),
        };
        format!(
            "plan: {}\n  span: events [{}, {}) of {}\n  resume from: {}\n  events to re-execute: {}\n",
            self.query, self.start, self.end, self.timeline_len, from, self.events_to_execute
        )
    }

    /// Serializes the plan for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Inverse of [`QueryPlan::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<QueryPlan> {
        wire::decode(ByteReader::new(buf, "query plan"))
    }
}

wire_struct! {
    /// The answer to a [`ReplayQuery`]: the events of the span, the
    /// console output and instruction count produced inside it, and the
    /// architectural fingerprint at its end. Byte-identical whether it was
    /// computed from a checkpoint seek or a from-scratch replay.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QueryResult {
        /// The query this result answers.
        pub query: ReplayQuery,
        /// First timeline position of the span.
        pub start: u64,
        /// One past the last timeline position of the span.
        pub end: u64,
        /// Descriptors of the events inside the span.
        pub events: Vec<EventDescriptor> as List<{ 1 << 30 }>,
        /// Console bytes produced inside the span.
        pub console: Vec<u8>,
        /// Instructions re-executed inside the span.
        pub instructions: u64,
        /// Partial architectural fingerprint at the end of the span.
        pub fingerprint: u64 as Le,
        /// The divergence that ended the replay, for
        /// [`ReplayQuery::BeforeDivergence`] on a tampered recording.
        pub diverged: Option<String>,
    }
}

impl QueryResult {
    /// Serializes the result for the wire. The bytes are a
    /// deterministic function of the result, so equivalence tests can
    /// compare results bytewise.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Inverse of [`QueryResult::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<QueryResult> {
        wire::decode(ByteReader::new(buf, "query result"))
    }
}

/// A query engine over one (program, recording) pair, optionally
/// accelerated by a [`CheckpointIndex`].
#[derive(Debug)]
pub struct QueryEngine<'a> {
    recording: &'a Recording,
    /// The merged timeline, shared with every replayer a seek returns.
    timeline: Arc<[TimelineEntry<'a>]>,
    /// The machine every replay of this recording starts from; seeks
    /// clone it instead of loading the program again.
    fresh: Machine,
    descriptors: Vec<EventDescriptor>,
    /// `cum_instructions[i]` = instructions replayed by the first `i`
    /// timeline events (length `timeline_len + 1`).
    cum_instructions: Vec<u64>,
    /// Timeline position of each chunk, by chunk ordinal.
    chunk_positions: Vec<usize>,
    index: Option<CheckpointIndex>,
}

impl<'a> QueryEngine<'a> {
    /// Builds an engine with no index (every seek replays from scratch).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if `program` does not match
    /// the recording, plus timeline construction errors.
    pub fn new(program: &'a Program, recording: &'a Recording) -> Result<QueryEngine<'a>> {
        check_program(program, recording)?;
        let timeline: Arc<[TimelineEntry<'a>]> = recording.timeline()?.into();
        let descriptors = describe(&timeline);
        let mut cum_instructions = Vec::with_capacity(descriptors.len() + 1);
        cum_instructions.push(0);
        let mut chunk_positions = Vec::new();
        for (pos, d) in descriptors.iter().enumerate() {
            if d.kind == EventKind::Chunk {
                chunk_positions.push(pos);
            }
            cum_instructions.push(cum_instructions[pos] + d.icount);
        }
        Ok(QueryEngine {
            recording,
            timeline,
            fresh: fresh_machine(program, recording)?,
            descriptors,
            cum_instructions,
            chunk_positions,
            index: None,
        })
    }

    /// Attaches a validated index.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] when the index was built
    /// for a different program or recording.
    pub fn attach_index(&mut self, index: CheckpointIndex) -> Result<()> {
        if index.program_fingerprint != self.recording.meta.program_fingerprint
            || index.recording_fingerprint != self.recording.fingerprint
            || index.timeline_len != self.descriptors.len() as u64
            || index.snapshots.len() != index.keys.len()
        {
            return Err(QrError::ReplayDivergence(
                "checkpoint index does not belong to this recording".into(),
            ));
        }
        self.index = Some(index);
        Ok(())
    }

    /// Attaches a persisted `checkpoints.qrc`, tolerantly: corrupt,
    /// unsupported or mismatched bytes degrade the engine to
    /// from-scratch seeks (counted by `qr-obs`) instead of failing.
    /// Returns whether the index was attached.
    pub fn attach_index_bytes(&mut self, bytes: &[u8]) -> bool {
        match CheckpointIndex::from_bytes(bytes).and_then(|ix| self.attach_index(ix)) {
            Ok(()) => true,
            Err(_) => {
                crate::obs::index_corrupt();
                false
            }
        }
    }

    /// Whether an index is attached.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Total events in the merged timeline.
    pub fn timeline_len(&self) -> usize {
        self.descriptors.len()
    }

    /// The timeline's event descriptors.
    pub fn descriptors(&self) -> &[EventDescriptor] {
        &self.descriptors
    }

    /// Returns a replayer positioned exactly at timeline position
    /// `target`: the nearest preceding checkpoint is restored (O(log n)
    /// binary search, then its chain of at most [`KEYFRAME_EVERY`]
    /// records) and the remaining interval re-executed; without a usable
    /// checkpoint the replay runs from scratch. Either way the state at
    /// `target` is bit-for-bit the same.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for an out-of-range target,
    /// plus replay errors from the forward execution.
    pub fn seek(&self, target: usize) -> Result<Replayer<'a>> {
        if target > self.descriptors.len() {
            return Err(QrError::InvalidConfig(format!(
                "seek target {target} is beyond the timeline ({} events)",
                self.descriptors.len()
            )));
        }
        let restored = self.index.as_ref().and_then(|ix| {
            // A chain that fails to decode or apply is the same as no
            // checkpoint: fall back to from-scratch replay.
            self.restore(ix, ix.best_for(target)?).map_err(|_| crate::obs::index_corrupt()).ok()
        });
        crate::obs::seek(restored.is_some());
        let mut rp = match restored {
            Some(rp) => rp,
            None => self.replayer_at_start()?,
        };
        while rp.position() < target {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(rp)
    }

    /// A replayer at position 0. The program was matched to the
    /// recording and the timeline merged when the engine was built.
    fn replayer_at_start(&self) -> Result<Replayer<'a>> {
        Replayer::start(self.recording, self.timeline.clone(), self.fresh.clone())
    }

    /// A replayer at checkpoint `i` of `ix`: one fresh machine, the
    /// memory overlays from the chain's keyframe up to record `i`
    /// applied in order, and the remaining state of record `i` alone.
    fn restore(&self, ix: &CheckpointIndex, i: usize) -> Result<Replayer<'a>> {
        let keyframe = i - i % KEYFRAME_EVERY;
        let mut machine = self.fresh.clone();
        for j in keyframe..i {
            let mut r = ByteReader::new(&ix.snapshots[j], "checkpoint snapshot");
            kind_of_checkpoint(j).expect(&mut r)?;
            machine.apply_memory_overlay(&mut r)?;
        }
        let (timeline, kind) = (self.timeline.clone(), kind_of_checkpoint(i));
        let rp = Replayer::restore(self.recording, timeline, machine, kind, &ix.snapshots[i])?;
        if rp.position() as u64 != ix.keys[i].position {
            return Err(QrError::Corrupt {
                what: "checkpoint index".into(),
                offset: 0,
                detail: format!(
                    "checkpoint {i} restores position {}, its key says {}",
                    rp.position(),
                    ix.keys[i].position
                ),
            });
        }
        crate::obs::seek_restore_records(i - keyframe + 1);
        Ok(rp)
    }

    /// Resolves a query to its timeline span `[start, end)`.
    fn resolve_span(&self, query: ReplayQuery) -> Result<(usize, usize)> {
        let len = self.descriptors.len();
        match query {
            ReplayQuery::Range { start, end } => {
                let chunks = self.chunk_positions.len() as u64;
                if start > end {
                    return Err(QrError::InvalidConfig(format!(
                        "chunk range starts at {start} but ends at {end}"
                    )));
                }
                if end > chunks {
                    return Err(QrError::InvalidConfig(format!(
                        "chunk range end {end} is beyond the recording ({chunks} chunks)"
                    )));
                }
                let tstart = self
                    .chunk_positions
                    .get(start as usize)
                    .copied()
                    .unwrap_or(len);
                let tend = if end > start {
                    self.chunk_positions[end as usize - 1] + 1
                } else {
                    tstart
                };
                Ok((tstart, tend))
            }
            ReplayQuery::Thread { tid } => {
                let mut positions = self
                    .descriptors
                    .iter()
                    .filter(|d| d.tid == tid)
                    .map(|d| d.pos as usize);
                let first = positions.next().ok_or_else(|| {
                    QrError::InvalidConfig(format!("{tid} has no events in this recording"))
                })?;
                let last = positions.last().unwrap_or(first);
                Ok((first, last + 1))
            }
            ReplayQuery::Window { start, end } => {
                let total = *self.cum_instructions.last().unwrap_or(&0);
                if start > end {
                    return Err(QrError::InvalidConfig(format!(
                        "instruction window starts at {start} but ends at {end}"
                    )));
                }
                if end > total {
                    return Err(QrError::InvalidConfig(format!(
                        "instruction window end {end} is beyond the recording ({total} instructions)"
                    )));
                }
                let tstart = self
                    .cum_instructions
                    .partition_point(|&c| c <= start)
                    .saturating_sub(1);
                let tend = self.cum_instructions.partition_point(|&c| c < end).min(len);
                Ok((tstart, tend.max(tstart)))
            }
            ReplayQuery::BeforeDivergence { .. } => Ok((0, len)),
            ReplayQuery::ReverseStep { events } => {
                if events > len as u64 {
                    return Err(QrError::InvalidConfig(format!(
                        "cannot step back {events} events in a timeline of {len}"
                    )));
                }
                let target = len - events as usize;
                Ok((target, target))
            }
        }
    }

    /// Plans a query without executing anything — the `--dry-run` path.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for out-of-range queries.
    pub fn plan(&self, query: ReplayQuery) -> Result<QueryPlan> {
        let (start, end) = self.resolve_span(query)?;
        // A divergence scan cannot use checkpoints: the divergence point
        // is unknown until the replay reaches it.
        let checkpoint = match query {
            ReplayQuery::BeforeDivergence { .. } => None,
            _ => self
                .index
                .as_ref()
                .and_then(|ix| ix.best_for(start))
                .map(|i| self.index.as_ref().unwrap().keys[i].position),
        };
        Ok(QueryPlan {
            query,
            start: start as u64,
            end: end as u64,
            checkpoint,
            events_to_execute: end as u64 - checkpoint.unwrap_or(0),
            timeline_len: self.descriptors.len() as u64,
        })
    }

    /// Executes a query. `max_events` bounds how many timeline events
    /// the engine may re-execute; a query that would exceed it fails
    /// before any replay work happens.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for out-of-range queries,
    /// [`QrError::Unsupported`] when `max_events` is exceeded, plus
    /// replay errors from the forward execution.
    pub fn execute(&self, query: ReplayQuery, max_events: Option<u64>) -> Result<QueryResult> {
        let plan = self.plan(query)?;
        if let Some(max) = max_events {
            if plan.events_to_execute > max {
                return Err(QrError::Unsupported(format!(
                    "query would re-execute {} timeline events, exceeding max-events {max}",
                    plan.events_to_execute
                )));
            }
        }
        if let ReplayQuery::BeforeDivergence { instructions } = query {
            return self.execute_before_divergence(query, instructions);
        }
        let start = plan.start as usize;
        let end = plan.end as usize;
        let mut rp = self.seek(start)?;
        let console_before = rp.console_so_far().len();
        let instructions_before = rp.instructions_so_far();
        while rp.position() < end {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(QueryResult {
            query,
            start: plan.start,
            end: plan.end,
            events: self.descriptors[start..end].to_vec(),
            console: rp.console_so_far()[console_before..].to_vec(),
            instructions: rp.instructions_so_far() - instructions_before,
            fingerprint: rp.partial_fingerprint(),
            diverged: None,
        })
    }

    /// The "last K instructions" query: scan forward from scratch until
    /// the replay diverges (or ends), then extract the tail window
    /// before that point.
    fn execute_before_divergence(
        &self,
        query: ReplayQuery,
        instructions: u64,
    ) -> Result<QueryResult> {
        let mut scan = self.replayer_at_start()?;
        let mut diverged = None;
        let stop = loop {
            let pos = scan.position();
            match scan.step_timeline() {
                Ok(true) => {}
                Ok(false) => break pos,
                Err(e) => {
                    diverged = Some(e.to_string());
                    break pos;
                }
            }
        };
        let at_stop = self.cum_instructions[stop];
        // Earliest event boundary keeping at most `instructions`
        // instructions in the window.
        let start = self.cum_instructions[..=stop].partition_point(|&c| at_stop - c > instructions);
        // The scan executed the failing event partially, so its state is
        // not usable; reach `stop` again cleanly (the seek may use the
        // index — every checkpoint precedes the divergence).
        let mut rp = self.seek(start)?;
        let console_before = rp.console_so_far().len();
        let instructions_before = rp.instructions_so_far();
        while rp.position() < stop {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(QueryResult {
            query,
            start: start as u64,
            end: stop as u64,
            events: self.descriptors[start..stop].to_vec(),
            console: rp.console_so_far()[console_before..].to_vec(),
            instructions: rp.instructions_so_far() - instructions_before,
            fingerprint: rp.partial_fingerprint(),
            diverged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> CheckpointIndex {
        CheckpointIndex {
            interval: 8,
            timeline_len: 40,
            program_fingerprint: 0x1111_2222_3333_4444,
            recording_fingerprint: 0x5555_6666_7777_8888,
            keys: vec![
                CheckpointKey {
                    position: 8,
                    instructions: 120,
                    chunks_replayed: 6,
                    inputs_injected: 2,
                    thread_icounts: vec![80, 40],
                },
                CheckpointKey {
                    position: 16,
                    instructions: 260,
                    chunks_replayed: 13,
                    inputs_injected: 3,
                    thread_icounts: vec![150, 110],
                },
            ],
            snapshots: vec![vec![0, 2, 3], vec![1, 5, 6]],
        }
    }

    #[test]
    fn index_round_trips() {
        let ix = sample_index();
        let bytes = ix.to_bytes();
        let back = CheckpointIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, ix);
        assert_eq!(bytes, back.to_bytes(), "re-serialization is byte-identical");
    }

    #[test]
    fn other_index_versions_are_rejected_by_name() {
        // 1 is the full-dump layout this reader replaced: refused like a
        // future one, never parsed.
        for version in [1u64, 99] {
            let bytes = frame::single(PayloadKind::CheckpointIndex, &wire::encode(&version));
            let err = CheckpointIndex::from_bytes(&bytes).unwrap_err();
            match err {
                QrError::Unsupported(msg) => {
                    assert!(msg.contains(&format!("version {version} ")), "names the file's version: {msg}");
                    assert!(
                        msg.contains(&format!("version {CHECKPOINT_INDEX_VERSION};")),
                        "names the supported version: {msg}"
                    );
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
        }
    }

    /// `sample_index` with one record per kind byte given.
    fn index_of_kinds(kinds: &[u8]) -> CheckpointIndex {
        let mut ix = sample_index();
        ix.timeline_len = 8 * (kinds.len() as u64 + 1);
        ix.keys = (1..=kinds.len() as u64)
            .map(|i| CheckpointKey { position: 8 * i, ..ix.keys[0].clone() })
            .collect();
        ix.snapshots = kinds.iter().map(|&kind| vec![kind, 0xee]).collect();
        ix
    }

    #[test]
    fn record_kinds_must_match_their_place_in_the_chain() {
        let refused = |kinds: &[u8], needle: &str| {
            match CheckpointIndex::from_bytes(&index_of_kinds(kinds).to_bytes()) {
                Err(QrError::Corrupt { what, detail, .. }) => {
                    assert!(format!("{what}: {detail}").contains(needle), "{what}: {detail}")
                }
                other => panic!("{kinds:?}: expected Corrupt, got {other:?}"),
            }
        };
        let mut kinds = vec![0];
        kinds.extend([1; KEYFRAME_EVERY - 1]);
        kinds.extend([0, 1]);
        assert!(CheckpointIndex::from_bytes(&index_of_kinds(&kinds).to_bytes()).is_ok(), "full chains");
        // A delta with nothing before it, an unassigned byte, a chain one
        // record too long, and a keyframe where a delta belongs.
        refused(&[1, 0], "record 0: record kind byte 1, expected 0 (Keyframe)");
        refused(&[0, 1, 2], "record 2: record kind byte 2, expected 1 (Delta)");
        kinds[KEYFRAME_EVERY] = 1;
        refused(&kinds, &format!("record {KEYFRAME_EVERY}: record kind byte 1, expected 0 (Keyframe)"));
        refused(&[0, 0], "record 1: record kind byte 0, expected 1 (Delta)");
        // An empty record has no kind byte at all.
        let mut ix = index_of_kinds(&[0, 1]);
        ix.snapshots[1].clear();
        assert!(CheckpointIndex::from_bytes(&ix.to_bytes()).is_err());
    }

    #[test]
    fn truncated_and_mismatched_indexes_are_structured_errors() {
        let bytes = sample_index().to_bytes();
        for cut in [0, 1, frame::HEADER_LEN, bytes.len() - 1] {
            let err = CheckpointIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, QrError::Corrupt { .. }), "cut at {cut}: {err:?}");
        }
        // An index that lists more checkpoints than the container holds.
        let mut ix = sample_index();
        ix.snapshots.pop();
        let err = CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn non_increasing_checkpoint_positions_are_corrupt() {
        let mut ix = sample_index();
        ix.keys[1].position = 8;
        let err = CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
        let mut ix = sample_index();
        ix.keys[1].position = 41;
        let err = CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "beyond timeline: {err:?}");
    }

    #[test]
    fn best_for_picks_latest_preceding_checkpoint() {
        let ix = sample_index();
        assert_eq!(ix.best_for(0), None);
        assert_eq!(ix.best_for(7), None);
        assert_eq!(ix.best_for(8), Some(0));
        assert_eq!(ix.best_for(15), Some(0));
        assert_eq!(ix.best_for(16), Some(1));
        assert_eq!(ix.best_for(1000), Some(1));
    }

    #[test]
    fn query_and_plan_and_result_round_trip() {
        let queries = [
            ReplayQuery::Range { start: 3, end: 17 },
            ReplayQuery::Thread { tid: ThreadId(2) },
            ReplayQuery::Window { start: 100, end: 250 },
            ReplayQuery::BeforeDivergence { instructions: 64 },
            ReplayQuery::ReverseStep { events: 5 },
        ];
        for q in queries {
            assert_eq!(wire::decode::<ReplayQuery>(ByteReader::new(&wire::encode(&q), "q")).unwrap(), q);
        }
        let plan = QueryPlan {
            query: queries[0],
            start: 6,
            end: 40,
            checkpoint: Some(32),
            events_to_execute: 8,
            timeline_len: 96,
        };
        assert_eq!(QueryPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
        assert!(plan.render().contains("checkpoint at event 32"));
        let result = QueryResult {
            query: queries[1],
            start: 6,
            end: 8,
            events: vec![EventDescriptor {
                pos: 6,
                kind: EventKind::Syscall,
                tid: ThreadId(2),
                timestamp: Cycle(991),
                icount: 0,
                detail: 4,
            }],
            console: b"hi".to_vec(),
            instructions: 17,
            fingerprint: 0xdead_beef_cafe_f00d,
            diverged: Some("replay diverged: tid1 rsw mismatch".into()),
        };
        assert_eq!(QueryResult::from_bytes(&result.to_bytes()).unwrap(), result);
    }

    #[test]
    fn hostile_event_count_is_corrupt_not_a_forty_gigabyte_reservation() {
        // ReverseStep 1, start 0, end 0, then an event count of 2^30
        // with nothing behind it.
        let err = QueryResult::from_bytes(&[4, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 4]).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("implausible count 1073741824"), "{err}");
    }

    #[test]
    fn unknown_query_tag_is_corrupt() {
        let err = wire::decode::<ReplayQuery>(ByteReader::new(&[9], "q")).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("unknown query tag 9"), "{err}");
    }
}
