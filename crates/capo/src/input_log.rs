//! The input log: every nondeterministic input of a recorded execution.
//!
//! Capo3 logs what the kernel hands the program — syscall results and
//! the data it copies into user memory — plus signal delivery points and
//! nondeterministic instruction results. Events whose *global position*
//! matters (syscalls with memory effects, signals) carry a timestamp
//! from the same clock that stamps chunks, so the replayer can merge
//! them into one timeline; per-thread-local values (`rdtsc`, `rdrand`)
//! are plain FIFO queues.

use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::{varint, Cycle, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::NondetKind;
use qr_os::SyscallRecord;
use std::collections::BTreeMap;

/// Events per framed record: the salvage granularity of a torn input log.
pub const EVENT_GROUP: usize = 64;

/// Framed-record kind byte: a group of timestamped events.
const REC_EVENTS: u8 = 0;
/// Framed-record kind byte: one thread's nondet-value section.
const REC_NONDET: u8 = 1;

/// A timestamped input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputEvent {
    /// A completed syscall (result + kernel writes to user memory).
    Syscall {
        /// Global position.
        ts: Cycle,
        /// What to inject at replay.
        record: SyscallRecord,
    },
    /// A SIGUSR delivery to `tid` (immediately after that thread's chunk
    /// with the same boundary).
    Signal {
        /// Global position.
        ts: Cycle,
        /// Target thread.
        tid: ThreadId,
    },
}

impl InputEvent {
    /// The event's global timestamp.
    pub fn ts(&self) -> Cycle {
        match self {
            InputEvent::Syscall { ts, .. } | InputEvent::Signal { ts, .. } => *ts,
        }
    }

    /// The thread the event belongs to.
    pub fn tid(&self) -> ThreadId {
        match self {
            InputEvent::Syscall { record, .. } => record.tid,
            InputEvent::Signal { tid, .. } => *tid,
        }
    }
}

/// All recorded inputs of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InputLog {
    pub(crate) events: Vec<InputEvent>,
    pub(crate) nondet: BTreeMap<ThreadId, Vec<(NondetKind, u32)>>,
}

impl InputLog {
    /// Creates an empty log.
    pub fn new() -> InputLog {
        InputLog::default()
    }

    /// Appends a timestamped event. Events must arrive in nondecreasing
    /// timestamp order (the recorder produces them that way).
    pub fn push_event(&mut self, event: InputEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.ts() <= event.ts()),
            "input events must be appended in timestamp order"
        );
        self.events.push(event);
    }

    /// Appends a nondeterministic-instruction value for `tid`.
    pub fn push_nondet(&mut self, tid: ThreadId, kind: NondetKind, value: u32) {
        self.nondet.entry(tid).or_default().push((kind, value));
    }

    /// Timestamped events in order.
    pub fn events(&self) -> &[InputEvent] {
        &self.events
    }

    /// Per-thread nondeterministic values in program order.
    pub fn nondet_for(&self, tid: ThreadId) -> &[(NondetKind, u32)] {
        self.nondet.get(&tid).map_or(&[], Vec::as_slice)
    }

    /// Total count of nondeterministic values.
    pub fn nondet_count(&self) -> usize {
        self.nondet.values().map(Vec::len).sum()
    }

    /// Serialized size in bytes (the "input log size" metric).
    pub fn byte_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the log in the crash-consistent framed container
    /// format (see [`qr_common::frame`]): record 0 commits the event and
    /// nondet-thread counts, then one record per [`EVENT_GROUP`]-event
    /// group and one record per thread's nondet section, each CRC-32
    /// protected and independently decodable.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = frame::Writer::new(PayloadKind::InputLog);
        let mut header = Vec::new();
        varint::write_u64(&mut header, self.events.len() as u64);
        varint::write_u64(&mut header, self.nondet.len() as u64);
        w.record(&header);
        for group in self.events.chunks(EVENT_GROUP) {
            let mut payload = vec![REC_EVENTS];
            for ev in group {
                Self::encode_event(ev, &mut payload);
            }
            w.record(&payload);
        }
        for (tid, values) in &self.nondet {
            let mut payload = vec![REC_NONDET];
            varint::write_u64(&mut payload, tid.0 as u64);
            varint::write_u64(&mut payload, values.len() as u64);
            for (kind, value) in values {
                payload.push(match kind {
                    NondetKind::Rdtsc => 0,
                    NondetKind::Rdrand => 1,
                });
                varint::write_u64(&mut payload, *value as u64);
            }
            w.record(&payload);
        }
        w.finish()
    }

    fn encode_event(ev: &InputEvent, out: &mut Vec<u8>) {
        match ev {
            InputEvent::Syscall { ts, record } => {
                out.push(0);
                varint::write_u64(out, ts.0);
                varint::write_u64(out, record.tid.0 as u64);
                varint::write_u64(out, record.number as u64);
                varint::write_u64(out, record.result as u64);
                varint::write_u64(out, record.writes.len() as u64);
                for (addr, data) in &record.writes {
                    varint::write_u64(out, addr.0 as u64);
                    varint::write_u64(out, data.len() as u64);
                    out.extend_from_slice(data);
                }
            }
            InputEvent::Signal { ts, tid } => {
                out.push(1);
                varint::write_u64(out, ts.0);
                varint::write_u64(out, tid.0 as u64);
            }
        }
    }

    /// Deserializes a log produced by [`InputLog::to_bytes`], strictly:
    /// [`InputLog::salvage_from_bytes`], failing on any corruption.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] with byte-offset context on
    /// malformed input — including an unframed v1 log, which only
    /// `quickrec migrate` reads.
    pub fn from_bytes(buf: &[u8]) -> Result<InputLog> {
        let (log, salvage) = InputLog::salvage_from_bytes(buf);
        salvage.corruption.map_or(Ok(log), Err)
    }

    /// Tolerantly deserializes a framed log, recovering the longest
    /// complete, checksum-valid prefix of a torn or corrupted file.
    /// Never fails: corruption is *described* in the returned
    /// [`InputSalvage`], not fatal.
    pub fn salvage_from_bytes(buf: &[u8]) -> (InputLog, InputSalvage) {
        let mut log = InputLog::new();
        let walked = frame::walk(
            buf,
            PayloadKind::InputLog,
            "an input log",
            parse_header,
            |_, payload, base| decode_record(&mut log, payload, base),
        );
        let (expected_events, expected_threads) = walked.header.unzip();
        let held = (log.events.len() as u64, log.nondet.len() as u64);
        let corruption = walked.corruption.or_else(|| {
            walked.header.filter(|&committed| committed != held).map(|(events, threads)| {
                QrError::Corrupt {
                    what: "input log".into(),
                    offset: buf.len() as u64,
                    detail: format!(
                        "header commits {events} events / {threads} nondet threads but records \
                         hold {} / {}",
                        held.0, held.1
                    ),
                }
            })
        });
        let salvage = InputSalvage {
            expected_events,
            expected_threads,
            bytes_dropped: walked.bytes_dropped,
            corruption,
        };
        (log, salvage)
    }
}

/// What [`InputLog::salvage_from_bytes`] recovered from a framed input
/// log (the log itself is returned alongside).
#[derive(Debug, Clone, PartialEq)]
pub struct InputSalvage {
    /// Event count the header committed to, if the header survived.
    pub expected_events: Option<u64>,
    /// Nondet-thread count the header committed to, if it survived.
    pub expected_threads: Option<u64>,
    /// Container bytes not covered by salvaged records.
    pub bytes_dropped: usize,
    /// What stopped the salvage (`None` for a fully intact log).
    pub corruption: Option<QrError>,
}

/// Parses the header record: committed event + nondet-thread counts.
fn parse_header(header: &[u8], base: usize) -> Result<(u64, u64)> {
    let mut r = ByteReader::at(header, "input log", base);
    let committed = (r.varint()?, r.varint()?);
    if r.remaining() != 0 {
        return Err(r.corrupt(format!("{} trailing bytes in header record", r.remaining())));
    }
    Ok(committed)
}

/// Decodes one framed record payload into `log`. `base` is the payload's
/// byte offset within the container, for error context.
fn decode_record(log: &mut InputLog, payload: &[u8], base: usize) -> Result<()> {
    let corrupt = |off: usize, detail: String| QrError::Corrupt {
        what: "input log record".into(),
        offset: (base + off) as u64,
        detail,
    };
    let Some((&kind, body)) = payload.split_first() else {
        return Err(corrupt(0, "empty record".into()));
    };
    match kind {
        REC_EVENTS => {
            let mut r = ByteReader::at(body, "input event", base + 1);
            while r.remaining() != 0 {
                log.events.push(decode_event(&mut r)?);
            }
        }
        REC_NONDET => {
            let mut r = ByteReader::at(body, "nondet section", base + 1);
            let (tid, values) = decode_nondet_section(&mut r)?;
            if r.remaining() != 0 {
                return Err(corrupt(1 + r.pos(), format!("{} trailing bytes", r.remaining())));
            }
            if log.nondet.insert(tid, values).is_some() {
                return Err(corrupt(1, format!("duplicate nondet section for {tid}")));
            }
        }
        other => return Err(corrupt(0, format!("unknown record kind {other}"))),
    }
    Ok(())
}

/// Decodes one timestamped event at the reader's position (the event
/// layout is the same in a framed record and in a v1 log).
pub(crate) fn decode_event(r: &mut ByteReader<'_>) -> Result<InputEvent> {
    let tag = r.u8().map_err(|_| r.corrupt("truncated event"))?;
    match tag {
        0 => {
            let ts = Cycle(r.varint()?);
            let tid = ThreadId(r.varint()? as u32);
            let number = r.varint()? as u32;
            let result = r.varint()? as u32;
            let num_writes = r.varint()?;
            // Each write needs at least 2 bytes (addr + len varints), so
            // an implausible count is rejected before it can size an
            // allocation.
            if num_writes > r.remaining() as u64 {
                return Err(r.corrupt(format!("implausible write count {num_writes}")));
            }
            let mut writes = Vec::with_capacity(num_writes as usize);
            for _ in 0..num_writes {
                let addr = VirtAddr(r.varint()? as u32);
                let len = r.varint()?;
                if len > r.remaining() as u64 {
                    return Err(r.corrupt("truncated write payload"));
                }
                writes.push((addr, r.bytes(len as usize)?.to_vec()));
            }
            Ok(InputEvent::Syscall { ts, record: SyscallRecord { tid, number, result, writes } })
        }
        1 => {
            let ts = Cycle(r.varint()?);
            let tid = ThreadId(r.varint()? as u32);
            Ok(InputEvent::Signal { ts, tid })
        }
        other => Err(r.corrupt_at(r.pos() - 1, format!("unknown input event tag {other}"))),
    }
}

/// Decodes one thread's nondet section (tid, count, values) at the
/// reader's position.
pub(crate) fn decode_nondet_section(
    r: &mut ByteReader<'_>,
) -> Result<(ThreadId, Vec<(NondetKind, u32)>)> {
    let tid = ThreadId(r.varint()? as u32);
    let count = r.varint()?;
    // Each value needs at least 2 bytes (kind tag + value varint).
    if count > r.remaining() as u64 {
        return Err(r.corrupt(format!("implausible nondet count {count}")));
    }
    let mut values = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let kind = match r.u8().map_err(|_| r.corrupt("truncated nondet"))? {
            0 => NondetKind::Rdtsc,
            1 => NondetKind::Rdrand,
            other => return Err(r.corrupt_at(r.pos() - 1, format!("unknown nondet tag {other}"))),
        };
        values.push((kind, r.varint()? as u32));
    }
    Ok((tid, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InputLog {
        let mut log = InputLog::new();
        log.push_event(InputEvent::Syscall {
            ts: Cycle(10),
            record: SyscallRecord {
                tid: ThreadId(0),
                number: 11,
                result: 16,
                writes: vec![(VirtAddr(0x1000), vec![1, 2, 3])],
            },
        });
        log.push_event(InputEvent::Signal { ts: Cycle(20), tid: ThreadId(1) });
        log.push_event(InputEvent::Syscall {
            ts: Cycle(30),
            record: SyscallRecord { tid: ThreadId(1), number: 8, result: 99, writes: vec![] },
        });
        log.push_nondet(ThreadId(0), NondetKind::Rdtsc, 77);
        log.push_nondet(ThreadId(0), NondetKind::Rdrand, 88);
        log.push_nondet(ThreadId(2), NondetKind::Rdrand, 5);
        log
    }

    #[test]
    fn round_trips_through_bytes() {
        let log = sample();
        let bytes = log.to_bytes();
        assert!(frame::is_framed(&bytes));
        assert_eq!(InputLog::from_bytes(&bytes).unwrap(), log);
        assert_eq!(log.byte_size(), bytes.len());
    }

    #[test]
    fn torn_or_flipped_logs_are_rejected_and_salvage_an_event_prefix() {
        // The walk itself is exercised in `qr_common::frame`; this checks
        // what the header and record decoders make of it.
        let log = sample();
        let bytes = log.to_bytes();
        let (whole, report) = InputLog::salvage_from_bytes(&bytes);
        assert_eq!(whole, log);
        assert!(report.corruption.is_none());
        assert_eq!(report.expected_events, Some(log.events().len() as u64));
        let damaged = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).chain(
            (0..bytes.len() * 8).map(|bit| {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                bad
            }),
        );
        for (case, bad) in damaged.enumerate() {
            let err = InputLog::from_bytes(&bad).expect_err(&format!("case {case} must error"));
            assert!(matches!(err, QrError::Corrupt { .. }), "case {case}: {err}");
            let (torn, report) = InputLog::salvage_from_bytes(&bad);
            assert_eq!(report.corruption, Some(err), "case {case}");
            assert!(log.events().starts_with(torn.events()), "case {case} salvaged a non-prefix");
        }
    }

    #[test]
    fn unframed_bytes_are_bad_magic_and_name_the_migrator() {
        // What a v1 log of two events would open with.
        let err = InputLog::from_bytes(&[2, 0, 10, 0, 11, 16, 0, 1, 20, 1]).unwrap_err();
        assert!(err.to_string().contains("bad-magic"), "{err}");
        assert!(err.to_string().contains("quickrec migrate"), "{err}");
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        let mut rng = qr_common::SplitMix64::new(0xfeed_0001);
        for _ in 0..4096 {
            let len = rng.below(256) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = InputLog::from_bytes(&bytes);
            let _ = InputLog::salvage_from_bytes(&bytes);
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(&frame::MAGIC);
                let _ = InputLog::from_bytes(&bytes);
                let _ = InputLog::salvage_from_bytes(&bytes);
            }
        }
    }

    #[test]
    fn implausible_counts_error_instead_of_allocating() {
        // An event claiming an absurd write count, or a section claiming
        // an absurd value count, must be rejected cheaply, not drive a
        // huge allocation.
        let mut ev = vec![0]; // syscall
        for _ in 0..4 {
            varint::write_u64(&mut ev, 1); // ts, tid, number, result
        }
        varint::write_u64(&mut ev, u64::MAX); // writes
        let err = decode_event(&mut ByteReader::new(&ev, "input event")).unwrap_err();
        assert!(err.to_string().contains("implausible write count"), "{err}");
        let mut section = Vec::new();
        varint::write_u64(&mut section, 3); // tid
        varint::write_u64(&mut section, u64::MAX); // values
        let mut r = ByteReader::new(&section, "nondet section");
        let err = decode_nondet_section(&mut r).unwrap_err();
        assert!(err.to_string().contains("implausible nondet count"), "{err}");
    }

    #[test]
    fn nondet_queues_are_per_thread_fifo() {
        let log = sample();
        assert_eq!(
            log.nondet_for(ThreadId(0)),
            &[(NondetKind::Rdtsc, 77), (NondetKind::Rdrand, 88)]
        );
        assert_eq!(log.nondet_for(ThreadId(1)), &[]);
        assert_eq!(log.nondet_count(), 3);
    }

    #[test]
    fn event_accessors() {
        let log = sample();
        assert_eq!(log.events()[0].ts(), Cycle(10));
        assert_eq!(log.events()[0].tid(), ThreadId(0));
        assert_eq!(log.events()[1].tid(), ThreadId(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_events_are_rejected_in_debug() {
        let mut log = InputLog::new();
        log.push_event(InputEvent::Signal { ts: Cycle(10), tid: ThreadId(0) });
        log.push_event(InputEvent::Signal { ts: Cycle(5), tid: ThreadId(0) });
    }

    #[test]
    fn empty_log_round_trips() {
        let log = InputLog::new();
        assert_eq!(InputLog::from_bytes(&log.to_bytes()).unwrap(), log);
    }
}
