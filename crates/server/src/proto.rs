//! The `quickrecd` wire protocol.
//!
//! Each connection direction is a framed `Wire` stream reusing the
//! on-disk container shape (`qr_common::frame`): a one-time 6-byte
//! header (magic `QRCF`, version, kind = `Wire`), then one CRC-32
//! protected record per message:
//!
//! ```text
//! direction := magic(4) version(1) kind(1)  message*
//! message   := len(u32 LE)  payload(len)  crc32(u32 LE, of payload)
//! ```
//!
//! [`MessageAssembler`] is the only reader of that framing: the daemon's
//! event loop and the blocking [`crate::Client`] both feed it whatever
//! `read(2)` returned, so header validation, the length limit and the
//! CRC check exist once.
//!
//! Message payloads are tag-byte + varint documents ([`Request`],
//! [`Response`]). Every decoder in this module is panic-free on
//! arbitrary bytes and reports damage as [`QrError::Corrupt`] — the
//! fault-injection suite drives both the stream layer and the payload
//! decoders through the same mutators as the on-disk logs.
//!
//! Every message and nested type is declared exactly once, with
//! `qr_common::wire`'s `wire_enum!` / `wire_struct!`: tag, kind label,
//! doc comments and the fields in wire order. The type, its encoder and
//! decoder, `tag()`, `label()` and `KINDS` all come from that
//! declaration, and a field's encoding is its type's `Wire` form or the
//! codec it names (`order: OrderMode as Trailing`); this module holds no
//! codec of its own (`docs/TRACE_FORMAT.md` §10 is the same table in
//! prose). To add a message, append one variant with the next free tag
//! (the tag space is append-only; an old peer answers an unknown tag
//! with a framed error), add one sample of it to
//! `golden_wire_messages()` in `tests/golden_conformance.rs`, regenerate
//! `tests/golden/wire/messages.qrw` and add its row to §10 — metrics
//! labels, codec tests and mutation sweeps follow from those two.

use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::wire::{self, List, Prefixed, Trailing};
use qr_common::{crc32, wire_enum, wire_struct, QrError, Result};
use qr_replay::ReplayQuery;
use quickrec_core::{Encoding, OrderMode};
use qr_workloads::Scale;
use std::io::Write;
use std::path::PathBuf;

/// Upper bound on one message payload (a fetched reference-scale
/// recording is a few MiB; 64 MiB leaves ample headroom while bounding
/// a hostile length prefix).
const MAX_MESSAGE: u32 = 64 * 1024 * 1024;

fn corrupt(offset: u64, detail: String) -> QrError {
    QrError::Corrupt { what: "wire message".into(), offset, detail }
}

fn io_err(what: &str, e: std::io::Error) -> QrError {
    QrError::Execution { detail: format!("{what}: {e}") }
}

/// Where a server listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Human-readable form (`unix:/path` or `tcp:host:port`).
    pub fn describe(&self) -> String {
        match self {
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// Writes the one-time stream header for one direction.
///
/// # Errors
///
/// Returns [`QrError::Execution`] wrapping I/O failures.
pub fn write_stream_header<W: Write + ?Sized>(w: &mut W) -> Result<()> {
    let header = frame::Writer::new(PayloadKind::Wire).finish();
    w.write_all(&header).map_err(|e| io_err("writing stream header", e))
}

/// Writes one length-prefixed, CRC-trailed message.
///
/// # Errors
///
/// Returns [`QrError::Execution`] wrapping I/O failures.
pub fn write_message<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_MESSAGE)
        .ok_or_else(|| QrError::Execution {
            detail: format!("message of {} bytes exceeds the wire limit", payload.len()),
        })?;
    let mut buf = Vec::with_capacity(payload.len() + frame::RECORD_OVERHEAD);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
    w.write_all(&buf).map_err(|e| io_err("writing message", e))?;
    w.flush().map_err(|e| io_err("flushing message", e))
}

/// Incremental wire-stream reassembler: the one reader of the framing,
/// on both ends of the socket.
///
/// The daemon's event loop and the blocking client hand it whatever
/// bytes `read(2)` produced; the assembler buffers them, validates the
/// 6-byte stream header once, and yields complete CRC-checked message
/// payloads as they close. It never blocks and never over-reads: a torn
/// message simply stays pending until more bytes arrive (or
/// [`at_message_boundary`] says the peer hung up mid-message).
///
/// [`at_message_boundary`]: MessageAssembler::at_message_boundary
#[derive(Debug, Default)]
pub struct MessageAssembler {
    buf: Vec<u8>,
    // Bytes of `buf` already consumed by completed header/messages;
    // compacted lazily so byte-at-a-time feeds stay O(n).
    pos: usize,
    header_done: bool,
}

impl MessageAssembler {
    /// A fresh assembler expecting the stream header first.
    pub fn new() -> MessageAssembler {
        MessageAssembler::default()
    }

    /// True once the peer's stream header has been validated.
    pub fn header_done(&self) -> bool {
        self.header_done
    }

    /// True when the stream sits exactly between messages — a peer
    /// close observed here is clean EOF, anywhere else it tore a
    /// header or message.
    pub fn at_message_boundary(&self) -> bool {
        self.header_done && self.pos == self.buf.len()
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Feeds freshly-read bytes and appends every message payload that
    /// completed to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] for a bad stream header, an
    /// oversized length prefix or a CRC mismatch. A failed stream is
    /// poisoned — callers close the connection.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        if !self.header_done {
            if self.pending().len() < frame::HEADER_LEN {
                return Ok(());
            }
            // The stream header is a frame container header: magic,
            // version, and the `Wire` kind, with no records behind it.
            frame::read(&self.pending()[..frame::HEADER_LEN], PayloadKind::Wire, "wire message")?;
            self.pos += frame::HEADER_LEN;
            self.header_done = true;
        }
        loop {
            let pending = self.pending();
            if pending.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(pending[..4].try_into().expect("4 prefix bytes"));
            if len > MAX_MESSAGE {
                return Err(corrupt(0, format!("message length {len} exceeds the wire limit")));
            }
            let total = 4 + len as usize + 4;
            if pending.len() < total {
                break;
            }
            let body = &pending[4..4 + len as usize];
            let crc_bytes: [u8; 4] =
                pending[4 + len as usize..total].try_into().expect("4 trailer bytes");
            if crc32::checksum(body) != u32::from_le_bytes(crc_bytes) {
                return Err(corrupt(4, "message checksum mismatch".into()));
            }
            out.push(body.to_vec());
            self.pos += total;
        }
        self.compact();
        Ok(())
    }
}

// ---- the schema ------------------------------------------------------

wire_enum! {
    /// A client-to-server command.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request as "request tag" {
        /// Liveness check.
        0 "ping" Ping,
        /// Record a named suite workload; the RECORD job is queued and the
        /// assigned session id returned immediately.
        1 "submit_workload" SubmitWorkload {
            /// Session label.
            name: String,
            /// Suite workload name (`fft`, `lu`, ...).
            workload: String,
            /// Worker threads (= cores).
            threads: u32,
            /// Problem-size scale.
            scale: Scale,
            /// Chunk-log encoding to store with.
            encoding: Encoding,
            /// Ordering mode to record under. Encoded as an optional
            /// trailing byte — total-order submissions stay byte-identical
            /// to the pre-ordering wire format.
            order: OrderMode as Trailing,
        },
        /// Record a client-supplied PIA assembly program.
        2 "submit_program" SubmitProgram {
            /// Session label.
            name: String,
            /// PIA assembly source text.
            source: String,
            /// Cores to record on.
            cores: u32,
            /// Chunk-log encoding to store with.
            encoding: Encoding,
            /// Ordering mode to record under (optional trailing byte; see
            /// [`Request::SubmitWorkload`]).
            order: OrderMode as Trailing,
        },
        /// List all sessions.
        3 "jobs" Jobs,
        /// Server and per-session counters.
        4 "stats" Stats,
        /// Download a completed session's recording files.
        5 "fetch" Fetch {
            /// Session id.
            id: u64,
        },
        /// Queue a REPLAY job for a completed session.
        6 "replay" Replay {
            /// Session id.
            id: u64,
        },
        /// Queue a VERIFY job (store-entry integrity check).
        7 "verify" Verify {
            /// Session id.
            id: u64,
        },
        /// Queue a RACES job (replay-time race detection).
        8 "races" Races {
            /// Session id.
            id: u64,
        },
        /// Drain in-flight jobs and stop the server.
        9 "shutdown" Shutdown,
        /// The server's `qr-obs` metrics registry, rendered as text
        /// exposition.
        10 "metrics" Metrics,
        /// Run a time-travel query against a completed session's recording
        /// (synchronously — queries are reads, not jobs).
        11 "query" Query {
            /// Session id.
            id: u64,
            /// What slice of the timeline to materialize, as its own
            /// length-prefixed document.
            query: ReplayQuery as Prefixed,
            /// Plan only: answer with the [`qr_replay::QueryPlan`] bytes
            /// instead of executing the replay.
            dry_run: bool,
            /// Refuse queries that would re-execute more than this many
            /// timeline events (0 = unlimited).
            max_events: u64,
            /// Client-chosen idempotence key: a repeated non-zero id
            /// returns the cached result without re-executing (0 = no
            /// deduplication).
            replay_id: u64,
        },
    }
}

wire_enum! {
    /// Lifecycle of one session's current/last job.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JobState as "job state tag" {
        /// Waiting in the worker pool.
        0 "queued" Queued,
        /// Executing on a worker.
        1 "running" Running,
        /// Finished successfully.
        2 "done" Done,
        /// Finished with an error.
        3 "failed" Failed(message: String),
    }
}

wire_struct! {
    /// One session as reported by JOBS.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JobInfo {
        /// Session id (also the store entry id once recorded).
        pub id: u64,
        /// Session label.
        pub name: String,
        /// Workload name or `program` for submitted sources.
        pub workload: String,
        /// Current/last job kind (`record`, `replay`, ...).
        pub kind: String,
        /// Job lifecycle state.
        pub state: JobState,
        /// Outcome fingerprint (0 until the recording completes).
        pub fingerprint: u64,
    }
}

wire_struct! {
    /// Per-session operation counters, surfaced by STATS.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SessionStats {
        /// Session id.
        pub id: u64,
        /// RECORD jobs completed.
        pub records: u64,
        /// REPLAY jobs completed.
        pub replays: u64,
        /// VERIFY jobs completed.
        pub verifies: u64,
        /// RACES jobs completed.
        pub races: u64,
        /// Uncompressed bytes of the stored recording.
        pub bytes_raw: u64,
        /// Compressed bytes of the stored recording.
        pub bytes_stored: u64,
        /// Simulated instructions executed for this session.
        pub instructions: u64,
        /// Whether the session records under `--order partial` (an
        /// `order.qrp` sidecar is part of the stored recording).
        pub partial_order: bool,
    }
}

wire_struct! {
    /// Server-wide counters, surfaced by STATS.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatsReport {
        /// Sessions accepted.
        pub accepted: u64,
        /// Submissions rejected by backpressure.
        pub rejected_busy: u64,
        /// Jobs completed successfully.
        pub completed: u64,
        /// Jobs failed.
        pub failed: u64,
        /// Connections served.
        pub connections: u64,
        /// Registry shard count.
        pub shards: u32,
        /// Worker-pool size.
        pub workers: u32,
        /// Per-session counters, ordered by id.
        pub sessions: Vec<SessionStats>,
    }
}

wire_enum! {
    /// A server-to-client reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response as "response tag" {
        /// Reply to [`Request::Ping`].
        0 "pong" Pong,
        /// The submission was queued under this session id.
        1 "submitted" Submitted {
            /// Assigned session id.
            id: u64,
        },
        /// Backpressure: the worker queue is full; retry later.
        2 "busy" Busy {
            /// Jobs currently queued.
            queued: u32,
        },
        /// Reply to [`Request::Jobs`].
        3 "job_list" JobList(jobs: Vec<JobInfo>),
        /// Reply to [`Request::Stats`].
        4 "stats" Stats(report: StatsReport),
        /// Reply to [`Request::Fetch`]: the recording's file images.
        5 "fetched" Fetched {
            /// The recording's outcome fingerprint.
            fingerprint: u64,
            /// `(file name, bytes)` in save-layout order; a recording has
            /// a handful.
            files: Vec<(String, Vec<u8>)> as List<16>,
        },
        /// The requested job was queued.
        6 "queued" Queued,
        /// Reply to [`Request::Shutdown`].
        7 "shutting_down" ShuttingDown,
        /// Any failure (unknown session, bad workload, job error, ...).
        8 "error" Error {
            /// Human-readable cause.
            message: String,
        },
        /// Reply to [`Request::Metrics`].
        9 "metrics" Metrics {
            /// Prometheus-style text exposition of the server's registry.
            text: String,
        },
        /// Reply to [`Request::Query`].
        10 "query_answer" QueryAnswer {
            /// True when a repeated `replay_id` was answered from the
            /// session's idempotence cache without re-executing.
            cached: bool,
            /// [`qr_replay::QueryPlan`] bytes for a dry run, otherwise
            /// [`qr_replay::QueryResult`] bytes.
            payload: Vec<u8>,
        },
    }
}

/// Serializes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    wire::encode(req)
}

/// Parses a request payload. Panic-free; structural damage is
/// [`QrError::Corrupt`].
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for unknown tags, truncation or
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    wire::decode(ByteReader::new(payload, "wire message"))
}

/// Serializes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    wire::encode(resp)
}

/// Parses a response payload. Panic-free; structural damage is
/// [`QrError::Corrupt`].
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for unknown tags, truncation or
/// trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    wire::decode(ByteReader::new(payload, "wire message"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(request, response)` payloads of `tests/golden/wire/messages.qrw`:
    /// a sample of every variant, written from the one hand-made list in
    /// `tests/golden_conformance.rs`. Each record is a direction byte
    /// (0 = request) and the payload.
    fn golden() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let capture = include_bytes!("../../../tests/golden/wire/messages.qrw");
        let records = frame::read(capture, PayloadKind::Wire, "wire capture").unwrap();
        let (requests, responses): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r[0] == 0);
        let strip = |records: Vec<&[u8]>| records.into_iter().map(|r| r[1..].to_vec()).collect();
        (strip(requests), strip(responses))
    }

    /// A clean stream: header, then every golden request.
    fn golden_stream() -> (Vec<u8>, Vec<Vec<u8>>) {
        let requests = golden().0;
        let mut wire = Vec::new();
        write_stream_header(&mut wire).unwrap();
        for payload in &requests {
            write_message(&mut wire, payload).unwrap();
        }
        (wire, requests)
    }

    #[test]
    fn golden_capture_reencodes_exactly_and_covers_every_tag() {
        // A message added to the schema cannot skip pinning: the fixture
        // must hold every tag, and every record must survive decode →
        // encode byte for byte.
        let (requests, responses) = golden();
        let mut request_tags = Vec::new();
        for payload in &requests {
            let request = decode_request(payload).unwrap();
            assert_eq!(&encode_request(&request), payload, "{request:?}");
            assert_eq!(request.label(), Request::KINDS[usize::from(payload[0])]);
            request_tags.push(request.tag());
        }
        let mut response_tags = Vec::new();
        for payload in &responses {
            let response = decode_response(payload).unwrap();
            assert_eq!(&encode_response(&response), payload, "{response:?}");
            response_tags.push(response.tag());
        }
        let pinned = [(request_tags, Request::KINDS.len()), (response_tags, Response::KINDS.len())];
        for (mut tags, kinds) in pinned {
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags, (0..kinds as u8).collect::<Vec<_>>(), "fixture misses a variant");
        }
    }

    #[test]
    fn trace_format_section_10_lists_every_message() {
        let doc = include_str!("../../../docs/TRACE_FORMAT.md");
        let section = doc.split("\n## 10. Wire protocol").nth(1).expect("§10");
        let section = section.split("\n## ").next().expect("§10 body");
        let requests = section.split("\n### Requests").nth(1).expect("request table");
        let (requests, responses) = requests.split_once("\n### Responses").expect("response table");
        let (responses, queries) = responses.split_once("\n### Queries").expect("query table");
        let tables = [
            (requests, &Request::KINDS[..]),
            (responses, &Response::KINDS[..]),
            (queries, &ReplayQuery::KINDS[..]),
        ];
        for (table, kinds) in tables {
            for (tag, label) in kinds.iter().enumerate() {
                let row = format!("\n| {tag} | `{label}` |");
                assert!(table.contains(&row), "§10 lacks {tag} `{label}`");
            }
        }
    }

    #[test]
    fn truncated_payloads_never_decode_to_something_else() {
        // A proper prefix either fails or is itself a canonical message
        // (a partial-order submit minus its trailing byte is the
        // total-order one).
        let (requests, responses) = golden();
        for payload in &requests {
            for cut in 0..payload.len() {
                if let Ok(request) = decode_request(&payload[..cut]) {
                    assert_eq!(encode_request(&request), payload[..cut], "{request:?}");
                }
            }
        }
        for payload in &responses {
            for cut in 0..payload.len() {
                assert!(decode_response(&payload[..cut]).is_err(), "cut {cut} of {payload:?}");
            }
        }
    }

    #[test]
    fn every_decode_check_trips() {
        let req = |bytes: &[u8]| decode_request(bytes).unwrap_err().to_string();
        let resp = |bytes: &[u8]| decode_response(bytes).unwrap_err().to_string();
        let cases = [
            (req(&[200]), "unknown request tag 200"),
            (resp(&[200]), "unknown response tag 200"),
            (req(&[]), "need 1 bytes, 0 remain"),
            (req(&[5]), "id: "),
            (req(&[0, 0]), "1 trailing bytes"),
            (resp(&[8, 2, 0xff, 0xfe]), "message: not utf-8"),
            (resp(&[8, 9, b'x']), "need 9 bytes, 1 remain"),
            (resp(&[2, 0x80, 0x80, 0x80, 0x80, 0x10]), "queued: 4294967296 is out of range"),
            (req(&[1, 0, 0, 1, 9, 0]), "scale: unknown scale tag 9"),
            (req(&[1, 0, 0, 1, 0, 9]), "encoding: unknown encoding tag 9"),
            (req(&[1, 0, 0, 1, 0, 0, 7]), "order: unknown order mode 7"),
            (req(&[11, 0, 2, 4, 1, 9, 0, 0]), "dry_run: unknown flag byte 9"),
            (resp(&[10, 2, 0]), "cached: unknown flag byte 2"),
            (resp(&[3, 1, 0, 0, 0, 0, 9, 0]), "state: unknown job state tag 9"),
            // STATS: 7 globals, one session whose ninth field is not 0/1
            // (the parent read it as `varint != 0`).
            (resp(&[4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2]), "partial_order: unknown flag byte 2"),
            // List bounds: 2^20 jobs/sessions, 16 files...
            (resp(&[3, 0x81, 0x80, 0x40]), "implausible count 1048577 (max 1048576)"),
            (resp(&[4, 0, 0, 0, 0, 0, 0, 0, 0x81, 0x80, 0x40]), "implausible count 1048577 (max 1048576)"),
            (resp(&[5, 0, 17]), "implausible count 17 (max 16)"),
            // ...and never more elements than the payload could hold, so
            // a 4-byte reply cannot reserve 2^20 rows.
            (resp(&[3, 0x80, 0x80, 0x40]), "jobs: implausible count 1048576: 0 bytes remain"),
            (resp(&[4, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x40]), "implausible count 1048576: 0 bytes remain"),
            (resp(&[5, 0, 16, 0, 0]), "implausible count 16: 2 bytes remain"),
        ];
        for (error, want) in cases {
            assert!(error.contains(want), "`{error}` does not name `{want}`");
        }
    }

    #[test]
    fn total_order_submits_add_no_wire_bytes() {
        // The order field must be invisible on the wire for the default
        // mode (old servers and pinned golden requests keep working),
        // and exactly one byte for partial order.
        let submit = |order| Request::SubmitProgram {
            name: "s".into(),
            source: "HALT".into(),
            cores: 1,
            encoding: Encoding::Raw,
            order,
        };
        let total_bytes = encode_request(&submit(OrderMode::TotalOrder));
        let partial_bytes = encode_request(&submit(OrderMode::PartialOrder));
        assert_eq!(partial_bytes, [total_bytes.as_slice(), &[1]].concat());
        assert_eq!(decode_request(&total_bytes).unwrap(), submit(OrderMode::TotalOrder));
        assert_eq!(decode_request(&partial_bytes).unwrap(), submit(OrderMode::PartialOrder));
        // An explicit 0 is accepted on read, never written.
        let explicit = [total_bytes.as_slice(), &[0]].concat();
        assert_eq!(decode_request(&explicit).unwrap(), submit(OrderMode::TotalOrder));
    }

    #[test]
    fn assembler_reassembles_whole_and_byte_at_a_time() {
        let (wire, requests) = golden_stream();
        for step in [1, 7, wire.len()] {
            let mut asm = MessageAssembler::new();
            let mut payloads = Vec::new();
            for piece in wire.chunks(step) {
                asm.feed(piece, &mut payloads).unwrap();
            }
            assert!(asm.header_done());
            assert!(asm.at_message_boundary(), "stream ends exactly between messages");
            assert_eq!(payloads, requests, "step {step}");
        }
    }

    #[test]
    fn assembler_tells_clean_closes_from_torn_streams() {
        // A close is clean only exactly between messages: not inside the
        // stream header, not 1-3 bytes into a length prefix (that would
        // silently drop the torn message), not inside a body or trailer.
        let (wire, requests) = golden_stream();
        let first_end = frame::HEADER_LEN + requests[0].len() + frame::RECORD_OVERHEAD;
        for cut in 0..first_end + 6 {
            let mut asm = MessageAssembler::new();
            let mut payloads = Vec::new();
            asm.feed(&wire[..cut], &mut payloads).unwrap();
            let clean = cut == frame::HEADER_LEN || cut == first_end;
            assert_eq!(asm.at_message_boundary(), clean, "cut {cut}");
            assert_eq!(payloads.len(), usize::from(cut >= first_end), "cut {cut}");
        }
    }

    #[test]
    fn assembler_poisons_bad_streams() {
        let feed = |wire: &[u8]| MessageAssembler::new().feed(wire, &mut Vec::new()).unwrap_err();
        let (clean, _) = golden_stream();

        let err = feed(b"XXXXXX");
        assert!(err.to_string().contains("bad-magic"), "{err}");

        let mut future = clean.clone();
        future[4] = frame::VERSION + 1;
        let err = feed(&future);
        assert!(err.to_string().contains("bad-version (found v2"), "{err}");

        let mut wrong_kind = clean.clone();
        wrong_kind[5] = PayloadKind::ChunkLog.code();
        let err = feed(&wrong_kind);
        assert!(err.to_string().contains("chunk log"), "{err}");

        // A hostile length prefix is refused from its four bytes alone,
        // before anything is buffered for it.
        let mut oversized = clean[..frame::HEADER_LEN].to_vec();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = feed(&oversized);
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("exceeds the wire limit"), "{err}");

        // A flipped payload byte fails the CRC.
        let mut flipped = clean;
        flipped[frame::HEADER_LEN + 4] ^= 0xff;
        let err = feed(&flipped);
        assert!(err.to_string().contains("checksum"), "{err}");
    }
}
