//! The structured trace-span journal.
//!
//! A journal is an append-only sequence of [`TraceEvent`]s — span
//! begin/end pairs and instant markers, each stamped with a journal
//! sequence number, a small dense thread id, an optional session id,
//! and microseconds since the journal epoch. Events serialize through
//! the `qr_common::frame` container ([`PayloadKind::TraceJournal`], one
//! record per event) so trace files are CRC-verifiable and salvageable
//! exactly like chunk and input logs: a process that dies mid-trace
//! leaves a journal whose valid prefix is still readable.
//!
//! The journal is wall-clock-derived and therefore *observational
//! only*: nothing deterministic may read it back (see the crate docs).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use qr_common::cursor::ByteReader;
use qr_common::error::{QrError, Result};
use qr_common::frame::{self, FrameFault, PayloadKind};
use qr_common::wire::{self, Wire};
use qr_common::{wire_enum, wire_struct};

wire_enum! {
    /// What a [`TraceEvent`] marks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind as "event kind" {
        /// A span opened.
        0 "begin" Begin,
        /// A span closed.
        1 "end" End,
        /// A point event with no duration.
        2 "instant" Instant,
    }
}

wire_struct! {
    /// One journal entry; its record is these fields in declaration
    /// order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceEvent {
        /// Journal-wide sequence number (allocation order, dense from 0).
        pub seq: u64,
        /// Begin, end, or instant.
        pub kind: EventKind,
        /// Dense per-journal thread id (assigned on a thread's first event).
        pub thread: u64,
        /// Session / recording id, 0 when not applicable.
        pub session: u64,
        /// Microseconds since the journal epoch.
        pub micros: u64,
        /// Span name, e.g. `record.run` or `store.put`.
        pub name: String,
    }
}

/// Serializes events into a framed [`PayloadKind::TraceJournal`]
/// container. Record 0 commits to the event count — a truncation that
/// happens to land on a record boundary is otherwise indistinguishable
/// from a shorter journal at the frame layer — then one record per
/// event.
pub fn to_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = frame::Writer::new(PayloadKind::TraceJournal);
    let mut buf = wire::encode(&(events.len() as u64));
    w.record(&buf);
    for event in events {
        buf.clear();
        event.put(&mut buf);
        w.record(&buf);
    }
    w.finish()
}

/// Decodes one record of `journal` (a slice of it, as the frame readers
/// return), with errors located at their offset in the journal.
fn decode<T: Wire>(journal: &[u8], record: &[u8]) -> Result<T> {
    let base = record.as_ptr() as usize - journal.as_ptr() as usize;
    wire::decode(ByteReader::at(record, "trace journal", base))
}

/// Strictly decodes a trace-journal container.
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for container faults and malformed
/// records, and [`QrError::LogDecode`] for a missing count record or an
/// event count that disagrees with it (a journal truncated exactly at a
/// record boundary).
pub fn from_bytes(buf: &[u8]) -> Result<Vec<TraceEvent>> {
    let records = frame::read(buf, PayloadKind::TraceJournal, "trace journal")?;
    let Some((count_record, event_records)) = records.split_first() else {
        return Err(QrError::LogDecode("trace journal: missing count record".into()));
    };
    let count: u64 = decode(buf, count_record)?;
    let events: Vec<TraceEvent> =
        event_records.iter().map(|r| decode(buf, r)).collect::<Result<_>>()?;
    if events.len() as u64 != count {
        return Err(QrError::LogDecode(format!(
            "trace journal: count record commits to {count} event(s), found {} — \
             truncated at a record boundary",
            events.len()
        )));
    }
    Ok(events)
}

/// Tolerantly decodes a (possibly torn) trace-journal container:
/// returns every event of the valid prefix plus the frame fault, if
/// any, that stopped the scan. Records that frame-verify but fail event
/// decoding end the salvage at that point (never a panic).
pub fn salvage(buf: &[u8]) -> (Vec<TraceEvent>, Option<FrameFault>) {
    let scanned = frame::scan(buf);
    if scanned.kind != Some(PayloadKind::TraceJournal) && scanned.fault.is_none() {
        // Valid container of the wrong kind: nothing salvageable as a trace.
        return (Vec::new(), None);
    }
    // Record 0 is the count commitment, not an event; a journal torn
    // before it salvages nothing.
    let events = scanned.records.iter().skip(1).map_while(|r| decode(buf, r).ok()).collect();
    (events, scanned.fault)
}

/// An in-memory trace journal.
///
/// Most code records into the process-wide [`global`] journal, which is
/// disabled (zero-cost fast path) unless `--trace-out` or a test turns
/// it on.
pub struct Journal {
    enabled: AtomicBool,
    epoch: Instant,
    seq: AtomicU64,
    next_thread: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// Creates a disabled journal; call [`Journal::set_enabled`] to
    /// start recording.
    pub fn new() -> Journal {
        Journal {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            next_thread: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Turns event recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn thread_id(&self) -> u64 {
        thread_local! {
            static ID: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
        }
        ID.with(|cell| match cell.get() {
            Some(id) => id,
            None => {
                let id = self.next_thread.fetch_add(1, Ordering::Relaxed);
                cell.set(Some(id));
                id
            }
        })
    }

    fn push(&self, kind: EventKind, name: &str, session: u64) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            kind,
            name: name.to_string(),
            thread: self.thread_id(),
            session,
            micros: self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        };
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event);
    }

    /// Records an instant event.
    pub fn instant(&self, name: &str, session: u64) {
        if self.enabled() {
            self.push(EventKind::Instant, name, session);
        }
    }

    /// Opens a span; the returned guard records the matching end event
    /// on drop. Free when the journal is disabled.
    pub fn span<'j>(&'j self, name: &'static str, session: u64) -> Span<'j> {
        if self.enabled() {
            self.push(EventKind::Begin, name, session);
            Span { journal: Some(self), name, session }
        } else {
            Span { journal: None, name, session }
        }
    }

    /// Takes every recorded event, leaving the journal empty (sequence
    /// numbers and thread ids keep advancing).
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard that closes a span (see [`Journal::span`]).
pub struct Span<'j> {
    journal: Option<&'j Journal>,
    name: &'static str,
    session: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(journal) = self.journal {
            if journal.enabled() {
                journal.push(EventKind::End, self.name, self.session);
            }
        }
    }
}

/// The process-wide journal, disabled until `--trace-out` (or a test)
/// enables it.
pub fn global() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(Journal::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::varint;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                seq: 0,
                kind: EventKind::Begin,
                name: "record.run".into(),
                thread: 0,
                session: 7,
                micros: 10,
            },
            TraceEvent {
                seq: 1,
                kind: EventKind::Instant,
                name: "chunk.flush".into(),
                thread: 1,
                session: 7,
                micros: 25,
            },
            TraceEvent {
                seq: 2,
                kind: EventKind::End,
                name: "record.run".into(),
                thread: 0,
                session: 7,
                micros: 90,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_frames() {
        let events = sample_events();
        let bytes = to_bytes(&events);
        assert_eq!(from_bytes(&bytes).unwrap(), events);
        let (salvaged, fault) = salvage(&bytes);
        assert_eq!(salvaged, events);
        assert_eq!(fault, None);
    }

    #[test]
    fn empty_journal_round_trips() {
        let bytes = to_bytes(&[]);
        assert!(from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn truncation_salvages_event_prefix() {
        let events = sample_events();
        let bytes = to_bytes(&events);
        let cut = bytes.len() - 3;
        assert!(from_bytes(&bytes[..cut]).is_err());
        let (salvaged, fault) = salvage(&bytes[..cut]);
        assert_eq!(salvaged, events[..2]);
        assert!(fault.is_some());
    }

    #[test]
    fn journal_records_spans_and_instants() {
        let journal = Journal::new();
        journal.instant("ignored.while.disabled", 0);
        assert!(journal.is_empty());
        journal.set_enabled(true);
        {
            let _span = journal.span("outer", 3);
            journal.instant("mark", 3);
        }
        let events = journal.drain();
        assert!(journal.is_empty());
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].kind, EventKind::End);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].micros <= w[1].micros));
        assert_eq!(events[0].session, 3);
        // Round-trip what the journal produced.
        assert_eq!(from_bytes(&to_bytes(&events)).unwrap(), events);
    }

    #[test]
    fn threads_get_distinct_dense_ids() {
        let journal = Journal::new();
        journal.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| journal.instant("tick", 0));
            }
        });
        let events = journal.drain();
        let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4, "each thread gets its own id");
        assert!(threads.iter().all(|&t| t < 4), "ids are dense");
    }

    #[test]
    fn wrong_kind_container_is_rejected_strictly_and_empty_on_salvage() {
        let mut w = frame::Writer::new(PayloadKind::ChunkLog);
        w.record(b"not a trace");
        let bytes = w.finish();
        assert!(from_bytes(&bytes).is_err());
        let (salvaged, fault) = salvage(&bytes);
        assert!(salvaged.is_empty());
        assert!(fault.is_none());
    }

    #[test]
    fn malformed_event_payloads_are_errors_not_panics() {
        // Frame-valid records with garbage payloads.
        for payload in [&b""[..], &b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"[..], &b"\x00\x09"[..]] {
            let mut w = frame::Writer::new(PayloadKind::TraceJournal);
            w.record(payload);
            let bytes = w.finish();
            assert!(from_bytes(&bytes).is_err(), "payload {payload:?} must fail decode");
            let (salvaged, _) = salvage(&bytes);
            assert!(salvaged.is_empty());
        }
        // An oversized name length, behind a valid count record, is a
        // located `Corrupt`: the event record's payload starts at byte 19
        // (6-byte header, a 9-byte count record, a length prefix), its
        // name length at 24, and the missing bytes at 34.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 0); // seq
        buf.push(0); // Begin
        varint::write_u64(&mut buf, 0); // thread
        varint::write_u64(&mut buf, 0); // session
        varint::write_u64(&mut buf, 0); // micros
        varint::write_u64(&mut buf, u64::MAX); // absurd name length
        let mut w = frame::Writer::new(PayloadKind::TraceJournal);
        w.record(&[1]);
        w.record(&buf);
        match from_bytes(&w.finish()) {
            Err(QrError::Corrupt { what, offset, detail }) => {
                assert_eq!((what.as_str(), offset), ("trace journal", 34), "{detail}");
                assert!(detail.starts_with("name: need"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
