//! The self-describing framed container format for on-disk logs.
//!
//! QuickRec's goal is *always-on* recording, and an always-on recorder's
//! logs are most valuable exactly when the recorded process crashed —
//! which is when they are torn mid-drain or corrupted. The framed
//! container makes every log file crash-consistent:
//!
//! ```text
//! container := magic(4)="QRCF"  version(1)  kind(1)  record*
//! record    := len(u32 LE)  payload(len bytes)  crc32(u32 LE, of payload)
//! ```
//!
//! Each record is independently decodable: a reader walks records from
//! the front and stops at the first one whose length runs past the
//! buffer or whose CRC-32 trailer does not match. Everything before that
//! point is a *complete, checksum-valid prefix* — the salvageable part
//! of a torn log. The `kind` byte names the payload ([`PayloadKind`]) so
//! a chunk log cannot be mistaken for an input log.
//!
//! [`read`] is the strict decoder (any fault is a
//! [`QrError::Corrupt`] with byte offset); [`scan`] is the tolerant
//! decoder used by salvage, which returns the valid prefix plus a
//! [`FrameFault`] describing what stopped it. [`walk`] is the one
//! reader of *header-committed* logs (record 0 commits what the rest of
//! the file must hold): the chunk, input and order logs are each a
//! header parser and a record decoder handed to it.

use crate::crc32;
use crate::cursor::ByteReader;
use crate::error::{QrError, Result};

/// Container magic. Nothing but a framed container is ever decoded: a
/// file without it is [`FaultKind::BadMagic`], whatever else it holds.
pub const MAGIC: [u8; 4] = *b"QRCF";

/// Current container format version.
pub const VERSION: u8 = 1;

/// Bytes before the first record: magic + version + kind.
pub const HEADER_LEN: usize = 6;

/// Per-record overhead: u32 length prefix + u32 CRC trailer.
pub const RECORD_OVERHEAD: usize = 8;

/// What a framed container carries, stored in the header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// A chunk (memory) log.
    ChunkLog,
    /// An input log.
    InputLog,
    /// Recording metadata.
    Meta,
    /// A chunk footprint log (read/write line sets per chunk).
    FootprintLog,
    /// One direction of a `quickrecd` wire-protocol connection (each
    /// message is one record).
    Wire,
    /// A block-compressed log (`qr-store`): record 0 is the block index,
    /// then one record per compressed block.
    CompressedLog,
    /// A recording-store manifest (`qr-store`).
    StoreManifest,
    /// A trace-span journal (`qr-obs`): one record per begin/end/instant
    /// event.
    TraceJournal,
    /// A recording-level format manifest (`format.qrv`): names the
    /// recording format version, container version, chunk-log encoding
    /// and the payload kinds present in the recording directory.
    FormatManifest,
    /// A persisted replay-checkpoint index (`checkpoints.qrc`): record 0
    /// is the seek index (keys per checkpoint), then one record per
    /// serialized checkpoint snapshot.
    CheckpointIndex,
    /// A partial-order edge log (`order.qrp`): record 0 commits the
    /// per-thread node counts and edge total, then one record per
    /// happens-before edge group.
    OrderLog,
}

impl PayloadKind {
    /// Every payload kind, in kind-byte order. The golden-trace
    /// conformance suite matches over this exhaustively: a new variant
    /// without golden-fixture coverage fails a test, not production.
    pub const ALL: [PayloadKind; 11] = [
        PayloadKind::ChunkLog,
        PayloadKind::InputLog,
        PayloadKind::Meta,
        PayloadKind::FootprintLog,
        PayloadKind::Wire,
        PayloadKind::CompressedLog,
        PayloadKind::StoreManifest,
        PayloadKind::TraceJournal,
        PayloadKind::FormatManifest,
        PayloadKind::CheckpointIndex,
        PayloadKind::OrderLog,
    ];

    /// Stable kind byte.
    pub fn code(self) -> u8 {
        match self {
            PayloadKind::ChunkLog => 0,
            PayloadKind::InputLog => 1,
            PayloadKind::Meta => 2,
            PayloadKind::FootprintLog => 3,
            PayloadKind::Wire => 4,
            PayloadKind::CompressedLog => 5,
            PayloadKind::StoreManifest => 6,
            PayloadKind::TraceJournal => 7,
            PayloadKind::FormatManifest => 8,
            PayloadKind::CheckpointIndex => 9,
            PayloadKind::OrderLog => 10,
        }
    }

    /// Inverse of [`PayloadKind::code`].
    pub fn from_code(code: u8) -> Option<PayloadKind> {
        match code {
            0 => Some(PayloadKind::ChunkLog),
            1 => Some(PayloadKind::InputLog),
            2 => Some(PayloadKind::Meta),
            3 => Some(PayloadKind::FootprintLog),
            4 => Some(PayloadKind::Wire),
            5 => Some(PayloadKind::CompressedLog),
            6 => Some(PayloadKind::StoreManifest),
            7 => Some(PayloadKind::TraceJournal),
            8 => Some(PayloadKind::FormatManifest),
            9 => Some(PayloadKind::CheckpointIndex),
            10 => Some(PayloadKind::OrderLog),
            _ => None,
        }
    }

    /// Human-readable payload name.
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::ChunkLog => "chunk log",
            PayloadKind::InputLog => "input log",
            PayloadKind::Meta => "recording meta",
            PayloadKind::FootprintLog => "footprint log",
            PayloadKind::Wire => "wire message stream",
            PayloadKind::CompressedLog => "compressed log",
            PayloadKind::StoreManifest => "store manifest",
            PayloadKind::TraceJournal => "trace journal",
            PayloadKind::FormatManifest => "format manifest",
            PayloadKind::CheckpointIndex => "checkpoint index",
            PayloadKind::OrderLog => "order log",
        }
    }
}

/// Why a container stopped decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The magic bytes did not match.
    BadMagic,
    /// The format version is newer than this reader understands; carries
    /// the version byte actually found so reports can say both sides.
    BadVersion {
        /// The version byte the container header carried.
        found: u8,
    },
    /// The kind byte named no known payload.
    BadKind,
    /// The buffer ended inside the container header.
    TruncatedHeader,
    /// A record's declared length ran past the end of the buffer.
    TruncatedRecord,
    /// A record's CRC-32 trailer did not match its payload.
    ChecksumMismatch,
}

impl FaultKind {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BadMagic => "bad-magic",
            FaultKind::BadVersion { .. } => "bad-version",
            FaultKind::BadKind => "bad-kind",
            FaultKind::TruncatedHeader => "truncated-header",
            FaultKind::TruncatedRecord => "truncated-record",
            FaultKind::ChecksumMismatch => "checksum-mismatch",
        }
    }

    /// Self-diagnosing description for error details: like
    /// [`FaultKind::label`], but a version fault also reports the found
    /// vs. newest-supported version so a conformance failure on a future
    /// trace names both sides.
    pub fn detail(self) -> String {
        match self {
            FaultKind::BadVersion { found } => {
                format!("bad-version (found v{found}, newest supported v{VERSION})")
            }
            // The one unframed shape that exists in the wild is a v1
            // recording, so name the way out of it.
            FaultKind::BadMagic => "bad-magic (not a framed container; pre-framing v1 recording \
                                    files are read only by `quickrec migrate <dir>`)"
                .to_string(),
            other => other.label().to_string(),
        }
    }
}

/// A decoding fault located at a byte offset in the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Byte offset into the container where the fault was detected.
    pub offset: usize,
}

impl FrameFault {
    /// Converts the fault into a structured error, naming what was being
    /// decoded.
    pub fn to_error(self, what: &str) -> QrError {
        QrError::Corrupt {
            what: what.to_string(),
            offset: self.offset as u64,
            detail: self.kind.detail(),
        }
    }
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.kind.label(), self.offset)
    }
}

/// Incremental container writer.
///
/// # Example
///
/// ```
/// use qr_common::frame::{self, PayloadKind};
///
/// let mut w = frame::Writer::new(PayloadKind::ChunkLog);
/// w.record(b"first");
/// w.record(b"second");
/// let bytes = w.finish();
/// let records = frame::read(&bytes, PayloadKind::ChunkLog, "example").unwrap();
/// assert_eq!(records, vec![b"first".as_slice(), b"second".as_slice()]);
/// ```
#[derive(Debug, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a container of the given payload kind.
    pub fn new(kind: PayloadKind) -> Writer {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(kind.code());
        Writer { buf }
    }

    /// Appends one record (length prefix + payload + CRC-32 trailer).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than `u32::MAX` bytes — the length
    /// prefix is a `u32`, and a silent `as` truncation here would write a
    /// well-formed but *wrong* frame (the record would carry the first
    /// `len % 2^32` bytes of a >4 GiB payload with a matching CRC).
    /// Callers that handle oversized payloads gracefully use
    /// [`Writer::try_record`].
    pub fn record(&mut self, payload: &[u8]) -> &mut Writer {
        self.try_record(payload)
            .expect("frame record payload exceeds the u32 length prefix")
    }

    /// Fallible [`Writer::record`]: rejects payloads longer than the
    /// `u32` length prefix can describe instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Unsupported`] when `payload.len()` exceeds
    /// `u32::MAX`; the writer is left unchanged.
    pub fn try_record(&mut self, payload: &[u8]) -> Result<&mut Writer> {
        let len = checked_record_len(payload.len())?;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
        Ok(self)
    }

    /// The finished container bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked conversion of a payload length into the `u32` record length
/// prefix. Split out (rather than inlined into [`Writer::try_record`])
/// so the >4 GiB boundary is unit-testable without allocating one.
fn checked_record_len(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| {
        QrError::Unsupported(format!(
            "frame record of {len} bytes exceeds the {}-byte u32 length prefix",
            u32::MAX
        ))
    })
}

/// The result of tolerantly scanning a container: every record of the
/// longest complete, checksum-valid prefix, plus the fault (if any) that
/// stopped the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan<'a> {
    /// Payload kind from the header (`None` if the header itself was
    /// unreadable).
    pub kind: Option<PayloadKind>,
    /// Payload slices of the valid record prefix, in order.
    pub records: Vec<&'a [u8]>,
    /// What stopped the scan, or `None` for a fully valid container.
    pub fault: Option<FrameFault>,
    /// Bytes covered by the header and the valid record prefix; the
    /// remainder (`buf.len() - valid_len`) is the torn/corrupt tail.
    pub valid_len: usize,
}

impl Scan<'_> {
    /// Bytes of the container that were *not* salvageable.
    pub fn bytes_dropped(&self, total_len: usize) -> usize {
        total_len.saturating_sub(self.valid_len)
    }
}

/// Whether `buf` starts with the framed-container magic (how a v1 file
/// is told from a framed one when naming a recording's generation).
pub fn is_framed(buf: &[u8]) -> bool {
    buf.len() >= MAGIC.len() && buf[..MAGIC.len()] == MAGIC
}

/// Tolerantly scans a container, returning the valid record prefix and
/// the first fault encountered.
///
/// A fault in the header (bad magic, unknown version or kind) yields an
/// empty record list; `valid_len` is then 0.
pub fn scan(buf: &[u8]) -> Scan<'_> {
    let fault = |kind: FaultKind, offset: usize| Scan {
        kind: None,
        records: Vec::new(),
        fault: Some(FrameFault { kind, offset }),
        valid_len: 0,
    };
    if buf.len() < HEADER_LEN {
        // A short buffer that is a proper prefix of the magic (e.g. a
        // file torn to "QRC") is a truncated framed container, not an
        // unframed one — `is_framed` alone can't tell, it needs all 4
        // magic bytes.
        let seen = buf.len().min(MAGIC.len());
        let kind = if buf[..seen] == MAGIC[..seen] {
            FaultKind::TruncatedHeader
        } else {
            FaultKind::BadMagic
        };
        return fault(kind, seen);
    }
    if !is_framed(buf) {
        return fault(FaultKind::BadMagic, 0);
    }
    if buf[4] != VERSION {
        return fault(FaultKind::BadVersion { found: buf[4] }, 4);
    }
    let Some(kind) = PayloadKind::from_code(buf[5]) else {
        return fault(FaultKind::BadKind, 5);
    };
    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    let mut stop = None;
    while off < buf.len() {
        if buf.len() - off < 4 {
            stop = Some(FrameFault { kind: FaultKind::TruncatedRecord, offset: off });
            break;
        }
        let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) as usize;
        let Some(total) = len.checked_add(RECORD_OVERHEAD) else {
            stop = Some(FrameFault { kind: FaultKind::TruncatedRecord, offset: off });
            break;
        };
        if buf.len() - off < total {
            stop = Some(FrameFault { kind: FaultKind::TruncatedRecord, offset: off });
            break;
        }
        let payload = &buf[off + 4..off + 4 + len];
        let trailer = u32::from_le_bytes([
            buf[off + 4 + len],
            buf[off + 5 + len],
            buf[off + 6 + len],
            buf[off + 7 + len],
        ]);
        if crc32::checksum(payload) != trailer {
            stop = Some(FrameFault { kind: FaultKind::ChecksumMismatch, offset: off });
            break;
        }
        records.push(payload);
        off += total;
    }
    Scan { kind: Some(kind), records, fault: stop, valid_len: off }
}

/// Strictly decodes a container of the expected kind, returning every
/// record payload.
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] (with byte offset) for any structural
/// fault, checksum mismatch, or kind mismatch; `what` names what is
/// being decoded in the error.
pub fn read<'a>(buf: &'a [u8], expected: PayloadKind, what: &str) -> Result<Vec<&'a [u8]>> {
    let scanned = scan(buf);
    if let Some(fault) = scanned.fault {
        return Err(fault.to_error(what));
    }
    match scanned.kind {
        Some(kind) if kind == expected => Ok(scanned.records),
        Some(kind) => Err(QrError::Corrupt {
            what: what.to_string(),
            offset: 5,
            detail: format!("container holds a {}, expected a {}", kind.name(), expected.name()),
        }),
        None => unreachable!("fault-free scan always has a kind"),
    }
}

/// A container of `kind` holding one record: `payload`.
pub fn single(kind: PayloadKind, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new(kind);
    w.record(payload);
    w.finish()
}

/// Strictly decodes a single-record container of the expected kind,
/// returning a reader over that record that reports offsets in the
/// container's coordinates.
///
/// # Errors
///
/// Everything [`read`] refuses, plus a container that does not hold
/// exactly one record.
pub fn read_single<'a>(buf: &'a [u8], expected: PayloadKind, what: &'a str) -> Result<ByteReader<'a>> {
    let records = read(buf, expected, what)?;
    let [payload] = records[..] else {
        return Err(QrError::Corrupt {
            what: what.to_string(),
            offset: HEADER_LEN as u64,
            detail: format!("expected exactly 1 record, found {}", records.len()),
        });
    };
    Ok(ByteReader::at(payload, what, HEADER_LEN + 4))
}

/// Byte ranges of the structurally complete records in `buf` (each
/// including its length prefix and checksum trailer), by length prefix
/// alone: no checksum is computed, and the walk stops at the first
/// record that runs past the buffer.
pub fn record_spans(buf: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut off = HEADER_LEN;
    while off + RECORD_OVERHEAD <= buf.len() {
        let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) as usize;
        let Some(end) = off.checked_add(RECORD_OVERHEAD + len).filter(|&e| e <= buf.len()) else {
            break;
        };
        spans.push(off..end);
        off = end;
    }
    spans
}

/// What [`walk`] recovered from a header-committed log.
#[derive(Debug)]
pub struct Walk<H> {
    /// The parsed header record, if it survived.
    pub header: Option<H>,
    /// Container bytes not covered by the header and the decoded records.
    pub bytes_dropped: usize,
    /// What stopped the walk (`None`: every record decoded and the
    /// container is fault-free).
    pub corruption: Option<QrError>,
}

/// Tolerantly decodes a header-committed log: a container of `kind`
/// whose record 0 is a header and whose remaining records each decode on
/// their own. Records are decoded front to back until one fails or the
/// checksum-valid prefix ends, so whatever `decode_record` accumulated is
/// an exact prefix of what was written. Never fails: the first fault is
/// *described* in [`Walk::corruption`].
///
/// `noun` is the expected payload with its article ("a chunk log").
/// Both callbacks get the payload and its byte offset within `buf` for
/// error context. What the header *commits to* (a packet or edge count)
/// is the caller's to compare once the walk comes back clean; strict
/// decode is this walk plus that check, failing on any corruption.
pub fn walk<H>(
    buf: &[u8],
    kind: PayloadKind,
    noun: &str,
    parse_header: impl FnOnce(&[u8], usize) -> Result<H>,
    mut decode_record: impl FnMut(&H, &[u8], usize) -> Result<()>,
) -> Walk<H> {
    let what = kind.name();
    let gone =
        |err: QrError| Walk { header: None, bytes_dropped: buf.len(), corruption: Some(err) };
    let corrupt = |offset: usize, detail: String| QrError::Corrupt {
        what: what.to_string(),
        offset: offset as u64,
        detail,
    };
    let scanned = scan(buf);
    match scanned.kind {
        Some(found) if found == kind => {}
        Some(found) => {
            return gone(corrupt(5, format!("container holds a {}, expected {noun}", found.name())))
        }
        None => {
            let fault = scanned.fault.expect("scan without kind always faults");
            return gone(fault.to_error(what));
        }
    }
    let Some((first, rest)) = scanned.records.split_first() else {
        // No complete header record: report the frame fault that ate it,
        // or the absence itself for a bare container.
        return gone(match scanned.fault {
            Some(fault) => fault.to_error(what),
            None => corrupt(HEADER_LEN, format!("missing {what} header record")),
        });
    };
    let header = match parse_header(first, HEADER_LEN + 4) {
        Ok(header) => header,
        Err(err) => return gone(err),
    };
    // Bytes of `buf` covered so far; the next record's payload starts
    // just past its length prefix.
    let mut consumed = HEADER_LEN + first.len() + RECORD_OVERHEAD;
    let mut corruption = None;
    for payload in rest {
        if let Err(err) = decode_record(&header, payload, consumed + 4) {
            corruption = Some(err);
            break;
        }
        consumed += payload.len() + RECORD_OVERHEAD;
    }
    Walk {
        header: Some(header),
        bytes_dropped: buf.len() - consumed,
        corruption: corruption.or_else(|| scanned.fault.map(|fault| fault.to_error(what))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container(records: &[&[u8]]) -> Vec<u8> {
        let mut w = Writer::new(PayloadKind::ChunkLog);
        for r in records {
            w.record(r);
        }
        w.finish()
    }

    #[test]
    fn round_trips_records() {
        let recs: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-longer-record"];
        let buf = container(&recs);
        assert_eq!(read(&buf, PayloadKind::ChunkLog, "test").unwrap(), recs);
        let scanned = scan(&buf);
        assert_eq!(scanned.records, recs);
        assert_eq!(scanned.fault, None);
        assert_eq!(scanned.valid_len, buf.len());
    }

    #[test]
    fn empty_container_is_valid() {
        let buf = container(&[]);
        assert_eq!(buf.len(), HEADER_LEN);
        assert!(read(&buf, PayloadKind::ChunkLog, "test").unwrap().is_empty());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let buf = container(&[b"x"]);
        let err = read(&buf, PayloadKind::InputLog, "test").unwrap_err();
        assert!(err.to_string().contains("expected a input log") || err.to_string().contains("chunk log"));
    }

    #[test]
    fn truncation_salvages_the_valid_prefix() {
        let recs: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        let buf = container(&recs);
        // Cut inside the last record: first two records survive.
        let cut = buf.len() - 2;
        let scanned = scan(&buf[..cut]);
        assert_eq!(scanned.records, vec![b"one".as_slice(), b"two".as_slice()]);
        assert_eq!(scanned.fault.unwrap().kind, FaultKind::TruncatedRecord);
        assert!(read(&buf[..cut], PayloadKind::ChunkLog, "test").is_err());
    }

    #[test]
    fn short_magic_prefix_is_truncation_not_bad_magic() {
        // A file torn to a proper prefix of the magic ("Q", "QR",
        // "QRC") is a truncated framed container; salvage reports must
        // not misclassify it as an unframed (corrupt-magic) one.
        for cut in 0..MAGIC.len() {
            let scanned = scan(&MAGIC[..cut]);
            let fault = scanned.fault.expect("short buffer faults");
            assert_eq!(fault.kind, FaultKind::TruncatedHeader, "cut={cut}");
            assert_eq!(fault.offset, cut);
        }
        // A full magic with a missing version/kind byte is still a
        // truncated header.
        let scanned = scan(&MAGIC);
        assert_eq!(scanned.fault.unwrap().kind, FaultKind::TruncatedHeader);
    }

    #[test]
    fn short_non_magic_prefix_is_still_bad_magic() {
        for short in [b"X".as_slice(), b"XY", b"XYZ", b"QRX", b"qrc"] {
            let scanned = scan(short);
            assert_eq!(
                scanned.fault.expect("short buffer faults").kind,
                FaultKind::BadMagic,
                "{short:?}"
            );
        }
    }

    #[test]
    fn every_truncation_point_is_detected_or_a_clean_record_boundary() {
        let recs = [b"aaaa".as_slice(), b"bbbbbbbb", b"cc"];
        let buf = container(&recs);
        // Offsets where a cut leaves a structurally complete container: the
        // header end and each record end. Cuts there are indistinguishable
        // from a shorter log at the frame layer — the serialization layer
        // above commits to a record count to close that gap.
        let mut boundaries = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        for r in &recs {
            off += r.len() + RECORD_OVERHEAD;
            boundaries.push(off);
        }
        for cut in 0..buf.len() {
            let scanned = scan(&buf[..cut]);
            if boundaries.contains(&cut) {
                assert!(scanned.fault.is_none(), "boundary cut {cut} is a valid shorter log");
            } else {
                assert!(scanned.fault.is_some(), "cut {cut} must fault");
            }
            assert!(scanned.valid_len <= cut);
            // Salvaged records must be a prefix of the real ones.
            for (got, want) in scanned.records.iter().zip(recs) {
                assert_eq!(*got, want);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let buf = container(&[b"payload-one", b"payload-two"]);
        for pos in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    read(&bad, PayloadKind::ChunkLog, "test").is_err(),
                    "flip at byte {pos} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn bit_flip_salvage_keeps_only_checksum_valid_records() {
        let buf = container(&[b"first", b"second"]);
        // Flip a byte inside the first record's payload.
        let mut bad = buf.clone();
        bad[HEADER_LEN + 4] ^= 0x10;
        let scanned = scan(&bad);
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.fault.unwrap().kind, FaultKind::ChecksumMismatch);
        assert_eq!(scanned.fault.unwrap().offset, HEADER_LEN);
    }

    #[test]
    fn newer_version_is_refused_not_misread() {
        let mut buf = container(&[b"x"]);
        buf[4] = VERSION + 1;
        let scanned = scan(&buf);
        assert_eq!(scanned.fault.unwrap().kind, FaultKind::BadVersion { found: VERSION + 1 });
        match read(&buf, PayloadKind::ChunkLog, "test") {
            Err(QrError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, 4);
                // The detail names both sides of the mismatch, so a
                // conformance failure on a future trace self-diagnoses.
                assert_eq!(detail, format!("bad-version (found v{}, newest supported v{VERSION})", VERSION + 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn payload_kind_codes_round_trip_and_all_is_exhaustive() {
        for kind in PayloadKind::ALL {
            assert_eq!(PayloadKind::from_code(kind.code()), Some(kind));
            // Forces a compile error (non-exhaustive match) when a new
            // variant is added without updating ALL.
            match kind {
                PayloadKind::ChunkLog
                | PayloadKind::InputLog
                | PayloadKind::Meta
                | PayloadKind::FootprintLog
                | PayloadKind::Wire
                | PayloadKind::CompressedLog
                | PayloadKind::StoreManifest
                | PayloadKind::TraceJournal
                | PayloadKind::FormatManifest
                | PayloadKind::CheckpointIndex
                | PayloadKind::OrderLog => {}
            }
        }
        // Codes are dense from 0: everything below ALL.len() decodes,
        // everything at or above it is rejected.
        for code in 0..=255u8 {
            let decoded = PayloadKind::from_code(code);
            assert_eq!(decoded.is_some(), (code as usize) < PayloadKind::ALL.len(), "code {code}");
            if let Some(kind) = decoded {
                assert_eq!(kind.code(), code);
            }
        }
    }

    #[test]
    fn record_spans_tile_the_container_and_stop_at_a_torn_record() {
        let buf = container(&[b"header", b"alpha", b"", b"a-longer-record"]);
        let spans = record_spans(&buf);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, HEADER_LEN);
        for pair in spans.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(spans.last().unwrap().end, buf.len());
        assert_eq!(spans[1].len(), RECORD_OVERHEAD + 5);
        assert_eq!(record_spans(&buf[..buf.len() - 1]), spans[..3]);
        assert!(record_spans(&buf[..HEADER_LEN - 1]).is_empty());
    }

    #[test]
    fn record_length_conversion_is_checked_at_the_u32_boundary() {
        // At the boundary: still representable.
        assert_eq!(checked_record_len(u32::MAX as usize).unwrap(), u32::MAX);
        assert_eq!(checked_record_len(0).unwrap(), 0);
        // One past it: a structured error, not a silent `as` truncation
        // (which would produce 0 here and write a wrong-but-well-formed
        // frame for a >4 GiB payload).
        let err = checked_record_len(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, QrError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn try_record_accepts_ordinary_payloads() {
        let mut w = Writer::new(PayloadKind::Meta);
        w.try_record(b"ok").unwrap();
        let buf = w.finish();
        assert_eq!(read(&buf, PayloadKind::Meta, "test").unwrap(), vec![b"ok".as_slice()]);
    }

    #[test]
    fn oversized_length_field_is_a_fault_not_a_panic() {
        let mut w = Writer::new(PayloadKind::Meta);
        w.record(b"ok");
        let mut buf = w.finish();
        // Rewrite the record length to an absurd value.
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scanned = scan(&buf);
        assert_eq!(scanned.fault.unwrap().kind, FaultKind::TruncatedRecord);
    }
}

#[cfg(test)]
mod walk_battery {
    //! The one salvage walk, driven over a toy header-committed log: the
    //! header commits a record count and record `i` is `[i, noise...]`
    //! (never a well-formed header), so a duplicated or reordered record
    //! is the decoder's to refuse.
    use super::*;
    use crate::{varint, SplitMix64};

    type Items = Vec<Vec<u8>>;

    fn toy_log(rng: &mut SplitMix64, records: u8) -> (Vec<u8>, Items) {
        let mut w = Writer::new(PayloadKind::OrderLog);
        let mut header = Vec::new();
        varint::write_u64(&mut header, records as u64);
        w.record(&header);
        let items: Items = (0..records)
            .map(|i| {
                let noise = (0..=rng.below(40)).map(|_| rng.next_u64() as u8);
                std::iter::once(i).chain(noise).collect()
            })
            .collect();
        for item in &items {
            w.record(item);
        }
        (w.finish(), items)
    }

    fn salvage(buf: &[u8]) -> (Items, Walk<u64>) {
        let mut items = Items::new();
        let mut walked = walk(
            buf,
            PayloadKind::OrderLog,
            "a toy log",
            |header, base| {
                let mut r = crate::cursor::ByteReader::at(header, "toy header", base);
                let count = r.varint()?;
                r.finish().map(|()| count)
            },
            |_, payload, base| {
                if payload.first().map(|&i| i as usize) != Some(items.len()) {
                    return Err(QrError::Corrupt {
                        what: "toy record".into(),
                        offset: base as u64,
                        detail: format!("record out of sequence, expected {}", items.len()),
                    });
                }
                items.push(payload.to_vec());
                Ok(())
            },
        );
        if let (None, Some(count)) = (&walked.corruption, walked.header) {
            if count != items.len() as u64 {
                walked.corruption = Some(QrError::Corrupt {
                    what: "toy log".into(),
                    offset: buf.len() as u64,
                    detail: format!("header commits {count} records but {} decoded", items.len()),
                });
            }
        }
        (items, walked)
    }

    /// Strict decode is the same walk, failing on any corruption.
    fn strict(buf: &[u8]) -> Result<Items> {
        let (items, walked) = salvage(buf);
        walked.corruption.map_or(Ok(items), Err)
    }

    /// The salvage contract on one (possibly damaged) image of `clean`.
    fn check(buf: &[u8], clean: &Items, damaged: bool, label: &str) {
        let (items, walked) = salvage(buf);
        assert!(clean.starts_with(&items), "{label}: salvaged a non-prefix");
        assert_eq!(walked.corruption.is_some(), damaged, "{label}: {:?}", walked.corruption);
        assert_eq!(strict(buf).is_err(), damaged, "{label}: strict and salvage disagree");
        let covered = match walked.header {
            Some(_) => record_spans(buf)[..=items.len()].last().expect("header span").end,
            None => {
                assert!(items.is_empty(), "{label}: records decoded without a header");
                0
            }
        };
        assert_eq!(walked.bytes_dropped + covered, buf.len(), "{label}");
        if let Some(QrError::Corrupt { offset, .. }) = walked.corruption {
            assert!(offset as usize <= buf.len(), "{label}: offset {offset} outside the buffer");
        }
    }

    #[test]
    fn intact_logs_walk_clean() {
        let mut rng = SplitMix64::new(0xf4a3_0001);
        for records in [0u8, 1, 2, 9] {
            let (buf, items) = toy_log(&mut rng, records);
            check(&buf, &items, false, &format!("{records} records"));
            assert_eq!(strict(&buf).unwrap(), items);
        }
    }

    #[test]
    fn truncation_at_every_byte_salvages_an_exact_prefix() {
        let mut rng = SplitMix64::new(0xf4a3_0002);
        let (buf, items) = toy_log(&mut rng, 6);
        for cut in 0..buf.len() {
            check(&buf[..cut], &items, true, &format!("cut {cut}"));
        }
        // A cut on a record boundary leaves a fault-free container: only
        // the header's commitment exposes it.
        let boundary = record_spans(&buf)[3].end;
        let (kept, walked) = salvage(&buf[..boundary]);
        assert_eq!(kept, items[..3]);
        assert!(walked.corruption.unwrap().to_string().contains("header commits 6"));
    }

    #[test]
    fn every_bit_flip_in_the_header_and_first_records_is_caught() {
        let mut rng = SplitMix64::new(0xf4a3_0003);
        let (buf, items) = toy_log(&mut rng, 6);
        let through = record_spans(&buf)[2].end; // header record + two more
        for pos in 0..through {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                check(&bad, &items, true, &format!("flip {pos}.{bit}"));
            }
        }
    }

    #[test]
    fn duplicated_and_reordered_records_stop_the_walk_where_they_sit() {
        let mut rng = SplitMix64::new(0xf4a3_0004);
        let (buf, items) = toy_log(&mut rng, 6);
        let spans = record_spans(&buf);
        for i in 0..spans.len() {
            let mut dup = buf[..spans[i].end].to_vec();
            dup.extend_from_slice(&buf[spans[i].clone()]);
            dup.extend_from_slice(&buf[spans[i].end..]);
            check(&dup, &items, true, &format!("duplicate record {i}"));
            for j in i + 1..spans.len() {
                let mut swapped = buf[..spans[i].start].to_vec();
                swapped.extend_from_slice(&buf[spans[j].clone()]);
                swapped.extend_from_slice(&buf[spans[i].end..spans[j].start]);
                swapped.extend_from_slice(&buf[spans[i].clone()]);
                swapped.extend_from_slice(&buf[spans[j].end..]);
                let label = format!("swap records {i} and {j}");
                check(&swapped, &items, true, &label);
                // Records before the first displaced one still decode.
                assert_eq!(salvage(&swapped).0.len(), i.saturating_sub(1), "{label}");
            }
        }
    }

    #[test]
    fn foreign_and_headerless_containers_are_described_not_decoded() {
        let mut w = Writer::new(PayloadKind::InputLog);
        w.record(&[0]);
        let (items, walked) = salvage(&w.finish());
        assert!(items.is_empty());
        let err = walked.corruption.unwrap().to_string();
        assert!(err.contains("container holds a input log, expected a toy log"), "{err}");
        let bare = Writer::new(PayloadKind::OrderLog).finish();
        let err = salvage(&bare).1.corruption.unwrap().to_string();
        assert!(err.contains("missing order log header record"), "{err}");
    }
}
