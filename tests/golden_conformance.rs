//! Golden-trace conformance battery.
//!
//! `tests/golden/` holds small canonical recordings — every encoding in
//! both the current (v3, framed + format manifest) and v1 (bare meta +
//! unframed logs) shapes — plus a committed store, a trace journal, a
//! wire-protocol capture, and a registry of intentionally rejected
//! artifacts. The `v1/` tree is a frozen input: nothing writes that
//! format any more, only `quickrec migrate` reads it, and regeneration
//! leaves it (and its `[[legacy]]` manifest entries) alone.
//! `MANIFEST.toml` pins replay fingerprints, file CRCs and salvage
//! outcomes; `KNOWN_FAILURES.toml` pins the structured error each
//! unsupported shape must produce.
//!
//! Regenerate the fixture tree (after an intentional format change)
//! with:
//!
//! ```text
//! QR_GOLDEN_REGEN=1 cargo test --test golden_conformance
//! ```
//!
//! and review the resulting diff: every changed byte is a format
//! change shipping to disk.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use qr_common::frame::{self, PayloadKind};
use qr_common::{crc32, varint, QrError, SplitMix64};

/// The TOML subset `MANIFEST.toml` and `KNOWN_FAILURES.toml` are written in.
#[path = "support/tomlmini.rs"]
mod tomlmini;
use quickrec::workloads::Scale;
use quickrec::{
    record, replay_and_verify, replay_ordered_and_verify, CheckpointIndex, ChunkLog, Cycle,
    Encoding, EventDescriptor, EventKind, FormatManifest, OrderLog, OrderMode, Program,
    QueryEngine, QueryPlan, QueryResult, Recording, RecordingConfig, RecordingParts,
    RecordingVersion, ThreadId,
};

/// Same two-syscall program the CLI contract tests record: console
/// output, input events and chunks on both threads of a 2-core run.
const PROGRAM: &str = "
.entry main
.text
main:
    movi r0, 2        ; SYS_WRITE
    movi r1, msg
    movi r2, 6
    syscall
    movi r0, 1        ; SYS_EXIT
    movi r1, 0
    syscall
.data
msg: .byte 0x68 0x65 0x6c 0x6c 0x6f 0x0a
";

fn golden_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quickrec-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn parse_hex(s: &str) -> u64 {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).unwrap_or_else(|e| panic!("bad hex {s:?}: {e}"))
}

fn encoding_named(name: &str) -> Encoding {
    Encoding::ALL
        .into_iter()
        .find(|e| e.name() == name)
        .unwrap_or_else(|| panic!("unknown encoding {name:?} in manifest"))
}

/// The workloads whose recordings are checked in. Both run on 2 cores so
/// the logs exercise cross-thread chunk ordering without bloating the
/// repo.
fn generator_program(name: &str) -> Program {
    match name {
        "hello" => qr_isa::text::assemble("hello", PROGRAM).expect("assemble hello"),
        "fft2" => {
            let spec = quickrec::workloads::find("fft").expect("fft is in the suite");
            (spec.build)(2, Scale::Test).expect("build fft")
        }
        other => panic!("unknown generator {other:?}"),
    }
}

const GENERATORS: [&str; 2] = ["hello", "fft2"];

/// Records each generator exactly once per test binary; every test that
/// needs a live recording shares these.
fn recordings() -> &'static [(&'static str, Recording)] {
    static CACHE: OnceLock<Vec<(&'static str, Recording)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        GENERATORS
            .iter()
            .map(|&name| {
                let rec = record(generator_program(name), RecordingConfig::with_cores(2))
                    .unwrap_or_else(|e| panic!("recording {name} failed: {e}"));
                (name, rec)
            })
            .collect()
    })
}

fn recording_for(name: &str) -> &'static Recording {
    &recordings().iter().find(|(n, _)| *n == name).expect("known generator").1
}

/// The generator whose partial-order recordings are checked in: `fft2`
/// runs two real threads, so its `order.qrp` carries spawn, input and
/// conflict edges (not just a header).
const ORDER_GENERATOR: &str = "fft2";

/// Partial-order sibling of [`recordings`]: the same seeded `fft2`
/// execution recorded once under `--order partial`.
fn order_recording() -> &'static Recording {
    static CACHE: OnceLock<Recording> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.order = OrderMode::PartialOrder;
        record(generator_program(ORDER_GENERATOR), cfg).expect("partial-order recording")
    })
}

/// Checkpoint-index fixtures: (generator, encoding, checkpoint interval).
const CHECKPOINT_FIXTURES: [(&str, Encoding, usize); 2] =
    [("hello", Encoding::Delta, 4), ("fft2", Encoding::Raw, 16)];

/// A recording's parts with a freshly built checkpoint index attached
/// (and the format manifest rewritten to list it).
fn checkpoint_parts(gen: &str, encoding: Encoding, interval: usize) -> RecordingParts {
    let rec = recording_for(gen);
    let program = generator_program(gen);
    let index = CheckpointIndex::build(&program, rec, interval)
        .unwrap_or_else(|e| panic!("building {gen} checkpoint index: {e}"));
    let mut parts = rec.to_parts(encoding);
    parts.attach_checkpoints(index.to_bytes()).expect("attach checkpoint index");
    parts
}

/// Seek targets every checkpoint fixture pins: the start, an interior
/// position, the last event, and one-past-the-end.
fn checkpoint_seek_targets(timeline_len: usize) -> Vec<usize> {
    vec![0, timeline_len / 3, timeline_len.saturating_sub(1), timeline_len]
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy target");
    for entry in std::fs::read_dir(src).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy fixture file");
        }
    }
}

fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect();
    files.sort();
    files
}

/// The deterministic trace journal committed as `trace/hello.qrt`.
/// Wall-clock stamps are hand-set: golden bytes must not depend on the
/// generating machine.
fn golden_trace_events() -> Vec<qr_obs::TraceEvent> {
    use qr_obs::{EventKind, TraceEvent};
    let ev = |seq, kind, name: &str, thread, micros| TraceEvent {
        seq,
        kind,
        name: name.to_string(),
        thread,
        session: 1,
        micros,
    };
    vec![
        ev(0, EventKind::Begin, "record.run", 0, 10),
        ev(1, EventKind::Begin, "store.put", 0, 25),
        ev(2, EventKind::Instant, "store.block", 1, 30),
        ev(3, EventKind::End, "store.put", 0, 40),
        ev(4, EventKind::End, "record.run", 0, 90),
    ]
}

/// Every wire message shape — each `Request` and `Response` variant,
/// both order modes, every job state, a non-empty STATS — and the one
/// hand-written sample list in the repository: `wire/messages.qrw` is
/// written from it, and the `qr-server` codec tests and the
/// `fault_surfaces` mutation sweeps read that file rather than keeping
/// lists of their own.
fn golden_wire_messages() -> (Vec<qr_server::proto::Request>, Vec<qr_server::proto::Response>) {
    use qr_server::proto::{JobInfo, JobState, Request, Response, SessionStats, StatsReport};
    use quickrec::ReplayQuery;
    let job = |id: u64, workload: &str, kind: &str, state: JobState, fingerprint: u64| JobInfo {
        id,
        name: format!("s{id}"),
        workload: workload.to_string(),
        kind: kind.to_string(),
        state,
        fingerprint,
    };
    let requests = vec![
        Request::Ping,
        Request::SubmitWorkload {
            name: "golden".to_string(),
            workload: "fft".to_string(),
            threads: 2,
            scale: Scale::Test,
            encoding: Encoding::Delta,
            order: OrderMode::TotalOrder,
        },
        Request::SubmitWorkload {
            name: "golden-po".to_string(),
            workload: "lu".to_string(),
            threads: 300,
            scale: Scale::Reference,
            encoding: Encoding::Packed,
            order: OrderMode::PartialOrder,
        },
        Request::SubmitProgram {
            name: "prog".to_string(),
            source: PROGRAM.to_string(),
            cores: 2,
            encoding: Encoding::Raw,
            order: OrderMode::TotalOrder,
        },
        Request::SubmitProgram {
            name: "prog-po".to_string(),
            source: "movi r0, 1\nsyscall\n".to_string(),
            cores: 1,
            encoding: Encoding::Delta,
            order: OrderMode::PartialOrder,
        },
        Request::Jobs,
        Request::Stats,
        Request::Fetch { id: 3 },
        Request::Replay { id: 1 },
        Request::Verify { id: u64::MAX },
        Request::Races { id: 300 },
        Request::Shutdown,
        Request::Metrics,
        Request::Query {
            id: 4,
            query: ReplayQuery::Range { start: 2, end: 9 },
            dry_run: false,
            max_events: 0,
            replay_id: 0,
        },
        Request::Query {
            id: 5,
            query: ReplayQuery::ReverseStep { events: 3 },
            dry_run: true,
            max_events: 1000,
            replay_id: 0xDEAD_BEEF,
        },
        Request::Query {
            id: 6,
            query: ReplayQuery::Thread { tid: ThreadId(0x0102_0304) },
            dry_run: false,
            max_events: 7,
            replay_id: 1,
        },
        Request::Query {
            id: 7,
            query: ReplayQuery::Window { start: 300, end: 70_000 },
            dry_run: true,
            max_events: 0,
            replay_id: 0,
        },
        Request::Query {
            id: 8,
            query: ReplayQuery::BeforeDivergence { instructions: 64 },
            dry_run: false,
            max_events: u64::MAX,
            replay_id: 2,
        },
    ];
    // Both QUERY answers carry real documents: a dry-run plan resuming
    // from a checkpoint, and a result with events and a divergence.
    let plan = QueryPlan {
        query: ReplayQuery::Window { start: 300, end: 70_000 },
        start: 12,
        end: 480,
        checkpoint: Some(450),
        events_to_execute: 30,
        timeline_len: 512,
    };
    let descriptor = |pos, kind, tid, timestamp, icount, detail| EventDescriptor {
        pos,
        kind,
        tid: ThreadId(tid),
        timestamp: Cycle(timestamp),
        icount,
        detail,
    };
    let result = QueryResult {
        query: ReplayQuery::BeforeDivergence { instructions: 64 },
        start: 3,
        end: 6,
        events: vec![
            descriptor(3, EventKind::Chunk, 1, 9_000, 40, 5),
            descriptor(4, EventKind::Syscall, 0, 9_100, 0, 2),
            descriptor(5, EventKind::Signal, 0xAABB_CCDD, u64::MAX, 0, 0),
        ],
        console: b"hello\n".to_vec(),
        instructions: 40,
        fingerprint: 0x0123_4567_89AB_CDEF,
        diverged: Some("replay diverged: tid1 rsw mismatch".to_string()),
    };
    let responses = vec![
        Response::Pong,
        Response::Submitted { id: 12 },
        Response::Busy { queued: 7 },
        Response::JobList(vec![
            job(1, "fft/2t", "record", JobState::Done, 0xFEED_F00D),
            job(2, "program/2c", "record", JobState::Failed("boom".to_string()), 0),
            job(3, "lu/4t+po", "replay", JobState::Running, 0x1234_5678_9ABC_DEF0),
            job(4, "fft/2t", "verify", JobState::Queued, 7),
        ]),
        Response::Stats(StatsReport {
            accepted: 5,
            rejected_busy: 1,
            completed: 4,
            failed: 1,
            connections: 900,
            shards: 4,
            workers: 2,
            sessions: vec![
                SessionStats {
                    id: 1,
                    records: 1,
                    replays: 2,
                    verifies: 0,
                    races: 1,
                    bytes_raw: 4096,
                    bytes_stored: 1024,
                    instructions: 1_000_000,
                    partial_order: true,
                },
                SessionStats { id: 2, records: 1, bytes_raw: 77, ..SessionStats::default() },
            ],
        }),
        Response::Fetched {
            files: vec![("meta.qrm".to_string(), vec![1, 2, 3]), ("chunks.qrl".to_string(), vec![])],
            fingerprint: 77,
        },
        Response::Queued,
        Response::ShuttingDown,
        Response::Error { message: "no session 9".to_string() },
        Response::Metrics {
            text: "# TYPE qr_server_requests_total counter\nqr_server_requests_total{kind=\"ping\"} 1\n"
                .to_string(),
        },
        Response::QueryAnswer { cached: true, payload: plan.to_bytes() },
        Response::QueryAnswer { cached: false, payload: result.to_bytes() },
    ];
    (requests, responses)
}

/// `wire/requests.qrw` predates `wire/messages.qrw` and stays pinned
/// byte for byte: these three entries of the sample list, bare.
fn in_requests_capture(request: &qr_server::proto::Request) -> bool {
    use qr_server::proto::Request;
    match request {
        Request::Ping | Request::Fetch { .. } => true,
        Request::SubmitWorkload { name, .. } => name == "golden",
        _ => false,
    }
}

/// Direction byte opening each record of `wire/messages.qrw` (request
/// and response tags share one number space, so a capture of both
/// directions has to say which decoder a record belongs to).
const WIRE_REQUEST: u8 = 0;
const WIRE_RESPONSE: u8 = 1;

/// The two committed wire captures, `(requests.qrw, messages.qrw)`:
/// framed `Wire` containers, one message per record.
fn golden_wire_captures() -> (Vec<u8>, Vec<u8>) {
    use qr_server::proto::{encode_request, encode_response};
    let (requests, responses) = golden_wire_messages();
    let mut pinned = frame::Writer::new(PayloadKind::Wire);
    let mut all = frame::Writer::new(PayloadKind::Wire);
    for request in &requests {
        let payload = encode_request(request);
        if in_requests_capture(request) {
            pinned.record(&payload);
        }
        all.record(&[&[WIRE_REQUEST], payload.as_slice()].concat());
    }
    for response in &responses {
        all.record(&[&[WIRE_RESPONSE], encode_response(response).as_slice()].concat());
    }
    (pinned.finish(), all.finish())
}

/// The byte offset at which the salvage pin truncates a chunk log.
fn salvage_cut(chunks: &[u8]) -> usize {
    chunks.len() * 2 / 3
}

fn salvage_count(chunks: &[u8], cut: usize) -> usize {
    let (log, _report) = ChunkLog::salvage_from_bytes(&chunks[..cut]);
    log.packets().len()
}

/// One entry in the known-failures registry, with its generator.
struct Reject {
    name: &'static str,
    file: &'static str,
    decoder: &'static str,
    error_contains: String,
    reason: &'static str,
    bytes: Vec<u8>,
}

fn reject_fixtures() -> Vec<Reject> {
    let hello = recording_for("hello");
    let parts = hello.to_parts(Encoding::Raw);

    let mut bad_version = parts.chunks.clone();
    bad_version[4] = 2; // container version byte

    let mut format_v99 = frame::Writer::new(PayloadKind::FormatManifest);
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, 99);
    payload.push(frame::VERSION);
    payload.push(Encoding::Raw.tag());
    varint::write_u64(&mut payload, 0);
    format_v99.record(&payload);

    let mut store_v2 = frame::Writer::new(PayloadKind::StoreManifest);
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, 2);
    store_v2.record(&payload);

    let mut trace_bad_kind = frame::Writer::new(PayloadKind::TraceJournal);
    trace_bad_kind.record(&[0x01]); // count record: 1 committed event
    trace_bad_kind.record(&[0x00, 0x07]); // seq 0, event-kind byte 7

    // A checkpoint index is read by exactly one version: the header
    // record need carry nothing past the version to be refused.
    let checkpoints_of_version = |version: u64| {
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        let mut payload = Vec::new();
        varint::write_u64(&mut payload, version);
        w.record(&payload);
        w.finish()
    };

    // A v4 manifest that does not list the order-log payload: the
    // version/payload cross-check must refuse the contradiction.
    let mut format_v4_no_order = frame::Writer::new(PayloadKind::FormatManifest);
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, 4);
    payload.push(frame::VERSION);
    payload.push(Encoding::Raw.tag());
    varint::write_u64(&mut payload, 0);
    format_v4_no_order.record(&payload);

    // An order log whose edge record opens with an unassigned edge-kind
    // byte — the shape a future edge taxonomy would produce.
    let mut order_bad_kind = frame::Writer::new(PayloadKind::OrderLog);
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, 2); // two threads
    varint::write_u64(&mut payload, 0); // tid 0 ..
    varint::write_u64(&mut payload, 1); // .. one node
    varint::write_u64(&mut payload, 1); // tid 1 ..
    varint::write_u64(&mut payload, 1); // .. one node
    varint::write_u64(&mut payload, 1); // one edge
    order_bad_kind.record(&payload);
    order_bad_kind.record(&[9]); // unassigned edge-kind byte

    let bare_meta =
        frame::read(&parts.meta, PayloadKind::Meta, "meta").expect("framed meta")[0].to_vec();
    let mut meta_trailing = frame::Writer::new(PayloadKind::Meta);
    meta_trailing.record(&[bare_meta, vec![0]].concat());

    vec![
        Reject {
            name: "future-frame-version",
            file: "rejects/chunks-bad-version.qrl",
            decoder: "chunk-log",
            error_contains: "bad-version (found v2, newest supported v1)".to_string(),
            reason: "containers from a future frame format are refused naming both versions",
            bytes: bad_version,
        },
        Reject {
            name: "wrong-payload-kind",
            file: "rejects/meta-as-chunks.qrl",
            decoder: "chunk-log",
            error_contains: "expected a chunk log".to_string(),
            reason: "a well-formed container of the wrong kind is never silently decoded",
            bytes: parts.meta.clone(),
        },
        Reject {
            name: "legacy-unknown-tag",
            file: "rejects/legacy-tag9.qrl",
            decoder: "migrate-v1-chunks",
            error_contains: "unknown encoding tag 9".to_string(),
            reason: "legacy streams with an unassigned encoding tag are refused up front",
            bytes: vec![9],
        },
        Reject {
            name: "future-recording-format",
            file: "rejects/format-v99.qrv",
            decoder: "format-manifest",
            error_contains: "recording format version 99 (newest supported 4)".to_string(),
            reason: "recordings from a future format generation are refused, not misread",
            bytes: format_v99.finish(),
        },
        Reject {
            name: "v4-manifest-without-order-log",
            file: "rejects/format-v4-no-order.qrv",
            decoder: "format-manifest",
            error_contains: "contradicts its payload list".to_string(),
            reason: "a partial-order format version must list the order-log payload it implies",
            bytes: format_v4_no_order.finish(),
        },
        Reject {
            name: "order-unknown-edge-kind",
            file: "rejects/order-bad-edge-kind.qrp",
            decoder: "order-log",
            error_contains: "unknown edge kind 9".to_string(),
            reason: "order logs with an unassigned edge kind (a future taxonomy) are refused",
            bytes: order_bad_kind.finish(),
        },
        Reject {
            name: "future-store-manifest",
            file: "rejects/store-manifest-v2.qrs",
            decoder: "store-manifest",
            error_contains: "unsupported manifest version 2".to_string(),
            reason: "store entries written by a newer store are refused by version",
            bytes: store_v2.finish(),
        },
        Reject {
            name: "trace-unknown-event-kind",
            file: "rejects/trace-bad-kind.qrt",
            decoder: "trace",
            error_contains: "unknown event kind 7".to_string(),
            reason: "trace journals with unassigned event kinds fail structurally",
            bytes: trace_bad_kind.finish(),
        },
        Reject {
            name: "wire-unknown-request",
            file: "rejects/wire-bad-tag.qrw",
            decoder: "wire-request",
            error_contains: "unknown request tag 200".to_string(),
            reason: "unassigned wire request tags are a protocol error, not a crash",
            bytes: vec![200],
        },
        Reject {
            name: "future-checkpoint-index",
            file: "rejects/checkpoints-v99.qrc",
            decoder: "checkpoint-index",
            error_contains: "checkpoint index version 99".to_string(),
            reason: "checkpoint indexes from a future layout are refused by version, not misread",
            bytes: checkpoints_of_version(99),
        },
        Reject {
            name: "full-dump-checkpoint-index",
            file: "rejects/checkpoints-v1.qrc",
            decoder: "checkpoint-index",
            error_contains: "checkpoint index version 1 (this replayer reads only version 3".to_string(),
            reason: "v1 indexes (a full machine dump per checkpoint) have no reader left: refused by version, rebuilt from the recording",
            bytes: checkpoints_of_version(1),
        },
        Reject {
            name: "cache-state-checkpoint-index",
            file: "rejects/checkpoints-v2.qrc",
            decoder: "checkpoint-index",
            error_contains: "checkpoint index version 2 (this replayer reads only version 3".to_string(),
            reason: "v2 indexes (cache metadata, bus clock and memory counters in every record) have no reader left: refused by version, rebuilt from the recording",
            bytes: checkpoints_of_version(2),
        },
        Reject {
            name: "meta-trailing-bytes",
            file: "rejects/meta-trailing.qrm",
            decoder: "recording",
            error_contains: "trailing bytes".to_string(),
            reason: "metadata blobs longer than their declared fields are refused",
            bytes: meta_trailing.finish(),
        },
    ]
}

fn run_decoder(decoder: &str, bytes: &[u8]) -> std::result::Result<(), QrError> {
    match decoder {
        "chunk-log" => ChunkLog::from_bytes(bytes).map(|_| ()),
        "migrate-v1-chunks" => {
            // Only `migrate` reads v1: the reject file replaces the chunk
            // stream of an otherwise-good v1 recording.
            let dir = scratch("reject-v1");
            copy_dir(&golden_root().join("v1/hello-raw"), &dir);
            std::fs::write(dir.join("chunks.qrl"), bytes).expect("plant reject");
            let result = quickrec::migrate::migrate(&dir).map(|_| ());
            std::fs::remove_dir_all(&dir).ok();
            result
        }
        "format-manifest" => FormatManifest::from_bytes(bytes).map(|_| ()),
        "store-manifest" => qr_store::Manifest::from_bytes(bytes).map(|_| ()),
        "trace" => qr_obs::trace::from_bytes(bytes).map(|_| ()),
        "wire-request" => qr_server::proto::decode_request(bytes).map(|_| ()),
        "checkpoint-index" => CheckpointIndex::from_bytes(bytes).map(|_| ()),
        "order-log" => OrderLog::from_bytes(bytes).map(|_| ()),
        "recording" => {
            // The reject file replaces the meta of an otherwise-good
            // recording; the whole-recording decoder must refuse it.
            let mut parts = recording_for("hello").to_parts(Encoding::Raw);
            parts.meta = bytes.to_vec();
            Recording::from_parts(&parts).map(|_| ())
        }
        other => panic!("unknown decoder {other:?} in KNOWN_FAILURES.toml"),
    }
}

// ---------------------------------------------------------------------
// Regeneration
// ---------------------------------------------------------------------

/// Regenerates the whole fixture tree when `QR_GOLDEN_REGEN=1`.
/// Every test funnels through here first, so a regen run both rewrites
/// and immediately re-validates the tree.
fn maybe_regen() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        if std::env::var("QR_GOLDEN_REGEN").as_deref() == Ok("1") {
            regenerate();
        }
    });
}

fn regenerate() {
    let root = golden_root();
    // `[[legacy]]` entries are carried over verbatim with the frozen
    // `v1/` tree they describe.
    let frozen = std::fs::read_to_string(root.join("MANIFEST.toml")).expect("existing manifest");
    let legacy_entry = |name: &str| {
        frozen
            .split("\n[[")
            .find(|block| block.starts_with(&format!("legacy]]\nname = \"{name}\"\n")))
            .map(|block| format!("\n[[{}\n", block.trim_end()))
            .unwrap_or_else(|| panic!("no frozen [[legacy]] entry for {name}"))
    };
    for sub in ["v3", "order", "checkpoints", "store", "trace", "wire", "rejects"] {
        let dir = root.join(sub);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create fixture subdir");
    }

    let mut manifest = String::from(
        "# Golden-trace conformance manifest. Every value here is a pinned\n\
         # compatibility promise. Regenerate (and review the diff!) with:\n\
         #   QR_GOLDEN_REGEN=1 cargo test --test golden_conformance\n\
         version = 3\n",
    );

    for &gen in &GENERATORS {
        let rec = recording_for(gen);
        for encoding in Encoding::ALL {
            let name = format!("{gen}-{}", encoding.name());

            let v3 = rec.to_parts(encoding);
            let v3_dir = root.join("v3").join(&name);
            v3.save(&v3_dir).expect("save v3 fixture");
            let cut = salvage_cut(&v3.chunks);
            manifest.push_str(&format!(
                "\n[[fixture]]\nname = \"{name}\"\ngenerator = \"{gen}\"\n\
                 encoding = \"{}\"\npath = \"v3/{name}\"\nfingerprint = \"0x{:016x}\"\n\
                 chunks = {}\nsalvage_cut = {cut}\nsalvage_chunks = {}\n",
                encoding.name(),
                rec.fingerprint,
                rec.chunks.packets().len(),
                salvage_count(&v3.chunks, cut),
            ));
            let files = v3.files();
            let names: Vec<String> = files.iter().map(|(n, _)| format!("\"{n}\"")).collect();
            let crcs: Vec<String> = files
                .iter()
                .map(|(_, bytes)| format!("\"0x{:08x}\"", crc32::checksum(bytes)))
                .collect();
            manifest.push_str(&format!(
                "files = [{}]\ncrcs = [{}]\n",
                names.join(", "),
                crcs.join(", ")
            ));

            manifest.push_str(&legacy_entry(&name));
        }
    }

    // Partial-order fixtures: the same seeded fft2 execution recorded
    // under `--order partial`, saved per encoding. The `order.qrp`
    // bytes are a pure function of the execution, so they are pinned by
    // CRC like every other part.
    let order_rec = order_recording();
    for encoding in Encoding::ALL {
        let name = format!("{ORDER_GENERATOR}-{}", encoding.name());
        let parts = order_rec.to_parts(encoding);
        let dir = root.join("order").join(&name);
        parts.save(&dir).expect("save order fixture");
        let order = order_rec.order.as_ref().expect("partial-order recording has a log");
        manifest.push_str(&format!(
            "\n[[order]]\nname = \"{name}\"\ngenerator = \"{ORDER_GENERATOR}\"\n\
             encoding = \"{}\"\npath = \"order/{name}\"\nfingerprint = \"0x{:016x}\"\n\
             nodes = {}\nedges = {}\norder_crc = \"0x{:08x}\"\n",
            encoding.name(),
            order_rec.fingerprint,
            order.node_count(),
            order.edges().len(),
            crc32::checksum(parts.order.as_ref().expect("order bytes")),
        ));
    }

    // Checkpoint-index fixtures: full recording directories with a
    // `checkpoints.qrc` sidecar attached, plus pinned seek-result
    // fingerprints (the time-travel compatibility promise).
    for (gen, encoding, interval) in CHECKPOINT_FIXTURES {
        let name = format!("{gen}-{}", encoding.name());
        let parts = checkpoint_parts(gen, encoding, interval);
        let dir = root.join("checkpoints").join(&name);
        parts.save(&dir).expect("save checkpoint fixture");
        let rec = recording_for(gen);
        let program = generator_program(gen);
        let engine = QueryEngine::new(&program, rec).expect("build query engine");
        let targets = checkpoint_seek_targets(engine.timeline_len());
        let fingerprints: Vec<String> = targets
            .iter()
            .map(|&t| {
                let rp = engine.seek(t).expect("seek for pin");
                format!("\"0x{:016x}\"", rp.partial_fingerprint())
            })
            .collect();
        let index_bytes = parts.checkpoints.as_ref().expect("attached index");
        manifest.push_str(&format!(
            "\n[[checkpoint]]\nname = \"{name}\"\ngenerator = \"{gen}\"\nencoding = \"{}\"\n\
             path = \"checkpoints/{name}\"\ninterval = {interval}\ntimeline_len = {}\n\
             crc = \"0x{:08x}\"\nseek_targets = [{}]\nseek_fingerprints = [{}]\n",
            encoding.name(),
            engine.timeline_len(),
            crc32::checksum(index_bytes),
            targets.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", "),
            fingerprints.join(", "),
        ));
    }

    // Store: two committed entries, one per generator. The store layout
    // (manifest + block compression) is timestamp-free, so these bytes
    // are reproducible.
    let store = qr_store::RecordingStore::open(&root.join("store")).expect("open golden store");
    for (gen, encoding) in [("hello", Encoding::Delta), ("fft2", Encoding::Raw)] {
        let rec = recording_for(gen);
        let id = store
            .put_parts(gen, &rec.to_parts(encoding), encoding, rec.fingerprint)
            .expect("commit store fixture");
        manifest.push_str(&format!(
            "\n[[store_entry]]\nid = {id}\nname = \"{gen}\"\ngenerator = \"{gen}\"\n\
             encoding = \"{}\"\nfingerprint = \"0x{:016x}\"\n",
            encoding.name(),
            rec.fingerprint,
        ));
    }

    let trace = qr_obs::trace::to_bytes(&golden_trace_events());
    std::fs::write(root.join("trace/hello.qrt"), &trace).expect("write trace fixture");
    manifest.push_str(&format!(
        "\n[[aux]]\nname = \"trace-hello\"\npath = \"trace/hello.qrt\"\nkind = \"trace-journal\"\n\
         records = {}\ncrc = \"0x{:08x}\"\n",
        golden_trace_events().len(),
        crc32::checksum(&trace),
    ));

    let (requests, messages) = golden_wire_captures();
    for (name, kind, bytes) in
        [("requests", "wire", &requests), ("messages", "wire-messages", &messages)]
    {
        std::fs::write(root.join(format!("wire/{name}.qrw")), bytes).expect("write wire fixture");
        let records = frame::read(bytes, PayloadKind::Wire, "wire capture").expect("framed").len();
        manifest.push_str(&format!(
            "\n[[aux]]\nname = \"wire-{name}\"\npath = \"wire/{name}.qrw\"\nkind = \"{kind}\"\n\
             records = {records}\ncrc = \"0x{:08x}\"\n",
            crc32::checksum(bytes),
        ));
    }

    let mut failures = String::from(
        "# Shapes the current readers must REFUSE, and how. Each entry is\n\
         # asserted by tests/golden_conformance.rs; the reject files are\n\
         # regenerated together with this registry by:\n\
         #   QR_GOLDEN_REGEN=1 cargo test --test golden_conformance\n",
    );
    for reject in reject_fixtures() {
        std::fs::write(root.join(reject.file), &reject.bytes).expect("write reject fixture");
        failures.push_str(&format!(
            "\n[[reject]]\nname = \"{}\"\nfile = \"{}\"\ndecoder = \"{}\"\n\
             error_contains = \"{}\"\nreason = \"{}\"\n",
            reject.name,
            reject.file,
            reject.decoder,
            tomlmini::escape(&reject.error_contains),
            reject.reason,
        ));
    }

    std::fs::write(root.join("MANIFEST.toml"), manifest).expect("write manifest");
    std::fs::write(root.join("KNOWN_FAILURES.toml"), failures).expect("write known failures");
}

fn manifest_doc() -> tomlmini::Doc {
    maybe_regen();
    let text = std::fs::read_to_string(golden_root().join("MANIFEST.toml"))
        .expect("tests/golden/MANIFEST.toml (run QR_GOLDEN_REGEN=1 to create)");
    tomlmini::parse(&text).expect("parse MANIFEST.toml")
}

// ---------------------------------------------------------------------
// Conformance battery
// ---------------------------------------------------------------------

#[test]
fn fixtures_replay_to_pinned_fingerprints() {
    let doc = manifest_doc();
    let fixtures = doc.sections_named("fixture");
    assert_eq!(fixtures.len(), GENERATORS.len() * Encoding::ALL.len());
    for fx in fixtures {
        let name = fx.require_str("name").unwrap();
        let dir = golden_root().join(fx.require_str("path").unwrap());
        let parts = RecordingParts::read(&dir).expect("read fixture");
        assert_eq!(RecordingVersion::detect(&parts), RecordingVersion::V3, "{name}");
        let rec = Recording::from_parts(&parts).expect("decode fixture");
        let program = generator_program(fx.require_str("generator").unwrap());
        let outcome = replay_and_verify(&program, &rec)
            .unwrap_or_else(|e| panic!("replaying {name}: {e}"));
        let pinned = parse_hex(fx.require_str("fingerprint").unwrap());
        assert_eq!(outcome.fingerprint, pinned, "fixture {name} diverged from its pin");
        assert_eq!(
            rec.chunks.packets().len() as i64,
            fx.require_int("chunks").unwrap(),
            "{name}"
        );
    }
}

#[test]
fn fixture_file_crcs_match_manifest() {
    let doc = manifest_doc();
    for fx in doc.sections_named("fixture") {
        let dir = golden_root().join(fx.require_str("path").unwrap());
        let names = fx.get("files").and_then(|v| v.as_array()).expect("files array");
        let crcs = fx.get("crcs").and_then(|v| v.as_array()).expect("crcs array");
        assert_eq!(names.len(), crcs.len());
        for (file, crc) in names.iter().zip(crcs) {
            let file = file.as_str().expect("file name");
            let bytes = std::fs::read(dir.join(file)).expect("read pinned file");
            assert_eq!(
                crc32::checksum(&bytes),
                parse_hex(crc.as_str().expect("crc string")) as u32,
                "{} drifted from its pinned CRC",
                dir.join(file).display()
            );
        }
    }
}

#[test]
fn regenerating_fixtures_is_byte_identical() {
    let doc = manifest_doc();
    for fx in doc.sections_named("fixture") {
        let name = fx.require_str("name").unwrap();
        let rec = recording_for(fx.require_str("generator").unwrap());
        let encoding = encoding_named(fx.require_str("encoding").unwrap());
        let dir = golden_root().join(fx.require_str("path").unwrap());
        for (file, bytes) in rec.to_parts(encoding).files() {
            let pinned = std::fs::read(dir.join(file)).expect("read pinned file");
            assert_eq!(
                bytes,
                pinned.as_slice(),
                "re-recording {name} no longer reproduces {file} byte-for-byte"
            );
        }
    }
    // Partial-order fixtures regenerate byte-identically too: the
    // derived order log is a pure function of the seeded execution.
    for fx in doc.sections_named("order") {
        let name = fx.require_str("name").unwrap();
        let encoding = encoding_named(fx.require_str("encoding").unwrap());
        let dir = golden_root().join(fx.require_str("path").unwrap());
        for (file, bytes) in order_recording().to_parts(encoding).files() {
            let pinned = std::fs::read(dir.join(file)).expect("read pinned file");
            assert_eq!(
                bytes,
                pinned.as_slice(),
                "re-recording {name} no longer reproduces {file} byte-for-byte"
            );
        }
    }
}

#[test]
fn salvage_outcomes_match_pins() {
    let doc = manifest_doc();
    let fixtures = doc.sections_named("fixture");
    assert_eq!(fixtures.len(), GENERATORS.len() * Encoding::ALL.len());
    for fx in fixtures {
        let name = fx.require_str("name").unwrap();
        let dir = golden_root().join(fx.require_str("path").unwrap());
        let chunks = std::fs::read(dir.join("chunks.qrl")).expect("read chunk log");
        let cut = fx.require_int("salvage_cut").unwrap() as usize;
        let (log, _report) = ChunkLog::salvage_from_bytes(&chunks[..cut]);
        assert_eq!(
            log.packets().len() as i64,
            fx.require_int("salvage_chunks").unwrap(),
            "salvage of {name} cut at {cut} drifted from its pin"
        );
    }
    // v1 has no checksums to salvage by. The same cut of a v1 fixture is
    // refused by the salvaging loader (as v1) and by `migrate` (as
    // undecodable), which leaves the torn directory as it found it; the
    // `salvage_chunks` a `[[legacy]]` entry still carries is what the
    // removed v1 salvager used to recover.
    let tmp = scratch("v1-torn");
    let legacy = doc.sections_named("legacy");
    assert_eq!(legacy.len(), GENERATORS.len() * Encoding::ALL.len());
    for fx in legacy {
        let name = fx.require_str("name").unwrap();
        let dir = tmp.join(name);
        copy_dir(&golden_root().join(fx.require_str("path").unwrap()), &dir);
        let chunks = std::fs::read(dir.join("chunks.qrl")).expect("read chunk stream");
        let cut = fx.require_int("salvage_cut").unwrap() as usize;
        std::fs::write(dir.join("chunks.qrl"), &chunks[..cut]).expect("tear chunk stream");
        let before = dir_snapshot(&dir);
        let err = Recording::load_salvaged(&dir).expect_err("torn v1 must not salvage");
        assert!(matches!(err, QrError::Unsupported(_)), "{name}: {err}");
        let err = quickrec::migrate::migrate(&dir).expect_err("torn v1 must not migrate");
        assert!(matches!(err, QrError::Corrupt { .. }), "{name}: {err}");
        assert_eq!(dir_snapshot(&dir), before, "{name}: refused migrate touched the directory");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn version_matrix_migrates_every_generation_to_current() {
    let doc = manifest_doc();
    let tmp = scratch("matrix");
    for fx in doc.sections_named("legacy") {
        let name = fx.require_str("name").unwrap();
        let pinned = parse_hex(fx.require_str("fingerprint").unwrap());
        let v3_dir = golden_root().join(format!("v3/{name}"));

        // v1 → v3.
        let dir = tmp.join(format!("v1-{name}"));
        copy_dir(&golden_root().join(fx.require_str("path").unwrap()), &dir);
        let report = quickrec::migrate::migrate(&dir).expect("migrate v1");
        assert!(report.changed, "{name}: v1 migrate must rewrite");
        assert_eq!((report.from.number(), report.to.number()), (1, 3), "{name}");
        assert_eq!(report.fingerprint, pinned, "{name}: migrate changed the execution");

        // What `migrate` read through the one v1 reader loads, replays to
        // the pin, and re-encodes to the very bytes the v3 fixture pins
        // for the same execution; no generation current code writes has
        // a footprint sidecar, so the upgrade has none and its manifest
        // says so.
        let rec = Recording::load(&dir).expect("load migrated v1");
        let program = generator_program(fx.require_str("generator").unwrap());
        let outcome = replay_and_verify(&program, &rec).expect("replay migrated v1");
        assert_eq!(outcome.fingerprint, pinned, "{name}");
        let v3_pins = doc.sections_named("fixture");
        let v3_pins = v3_pins.iter().find(|f| f.require_str("name").unwrap() == name).unwrap();
        assert_eq!(rec.chunks.packets().len() as i64, v3_pins.require_int("chunks").unwrap());
        let files = v3_pins.get("files").and_then(|v| v.as_array()).expect("files array");
        let crcs = v3_pins.get("crcs").and_then(|v| v.as_array()).expect("crcs array");
        for (file, crc) in files.iter().zip(crcs) {
            let file = file.as_str().expect("file name");
            if matches!(file, "meta.qrm" | "chunks.qrl" | "inputs.qrl") {
                let bytes = std::fs::read(dir.join(file)).expect("read upgraded file");
                let pin = parse_hex(crc.as_str().expect("crc string")) as u32;
                assert_eq!(crc32::checksum(&bytes), pin, "{name}: upgraded {file} off its v3 pin");
            }
        }
        assert!(!dir.join("footprints.qrl").exists(), "{name}");
        let manifest = FormatManifest::from_bytes(&std::fs::read(dir.join("format.qrv")).unwrap())
            .expect("upgraded manifest");
        assert_eq!(manifest.encoding, encoding_named(fx.require_str("encoding").unwrap()));
        assert!(!manifest.payloads.contains(&PayloadKind::FootprintLog), "{name}");

        // v2 (v3 minus the format manifest) → v3 must land byte-identical
        // to the committed v3 fixture.
        let dir = tmp.join(format!("v2-{name}"));
        copy_dir(&v3_dir, &dir);
        std::fs::remove_file(dir.join("format.qrv")).expect("strip format manifest");
        let report = quickrec::migrate::migrate(&dir).expect("migrate v2");
        assert_eq!(
            (report.from.number(), report.to.number(), report.changed),
            (2, 3, true),
            "{name}"
        );
        assert_eq!(
            dir_snapshot(&dir),
            dir_snapshot(&v3_dir),
            "{name}: v2 migrate is not byte-identical to the committed v3 fixture"
        );

        // Migrating a current recording is a byte-level no-op.
        let before = dir_snapshot(&dir);
        let report = quickrec::migrate::migrate(&dir).expect("re-migrate");
        assert!(!report.changed, "{name}: second migrate must be a no-op");
        assert_eq!(dir_snapshot(&dir), before, "{name}: no-op migrate changed bytes");

        // Replay after migration still matches the pin.
        let rec = Recording::load(&dir).expect("load migrated");
        let program = generator_program(fx.require_str("generator").unwrap());
        let outcome = replay_and_verify(&program, &rec).expect("replay migrated");
        assert_eq!(outcome.fingerprint, pinned, "{name}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn interrupted_migrations_always_recover() {
    use quickrec::migrate::{migrate_with_crash, CrashPoint};
    maybe_regen();
    let tmp = scratch("crash");
    let src = golden_root().join("v1/hello-delta");
    let pinned = {
        let doc = manifest_doc();
        let fx = doc.sections_named("legacy");
        let fx = fx.iter().find(|f| f.require_str("name").unwrap() == "hello-delta").unwrap();
        parse_hex(fx.require_str("fingerprint").unwrap())
    };
    for (i, crash) in
        [CrashPoint::AfterStage, CrashPoint::AfterBackup, CrashPoint::AfterSwap].iter().enumerate()
    {
        let dir = tmp.join(format!("crash-{i}"));
        copy_dir(&src, &dir);
        let err = migrate_with_crash(&dir, Some(*crash)).expect_err("injected crash");
        assert!(err.to_string().contains("injected crash"), "{err}");
        // A fresh migrate (which runs recovery first) must complete the
        // upgrade no matter where the previous run died.
        let report = quickrec::migrate::migrate(&dir).expect("migrate after crash");
        assert_eq!(report.to.number(), 3);
        assert_eq!(report.fingerprint, pinned, "crash point {i} corrupted the recording");
        let leftovers: Vec<String> = std::fs::read_dir(&tmp)
            .expect("read scratch")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".qr-migrate-"))
            .collect();
        assert!(leftovers.is_empty(), "crash point {i} left protocol dirs: {leftovers:?}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn checkpoint_fixtures_seek_to_pinned_fingerprints() {
    let doc = manifest_doc();
    let sections = doc.sections_named("checkpoint");
    assert_eq!(sections.len(), CHECKPOINT_FIXTURES.len());
    for fx in sections {
        let name = fx.require_str("name").unwrap();
        let gen = fx.require_str("generator").unwrap();
        let interval = fx.require_int("interval").unwrap() as usize;
        let dir = golden_root().join(fx.require_str("path").unwrap());
        let parts = RecordingParts::read(&dir).expect("read checkpoint fixture");
        let index_bytes = parts.checkpoints.clone().expect("fixture has checkpoints.qrc");
        assert_eq!(
            crc32::checksum(&index_bytes),
            parse_hex(fx.require_str("crc").unwrap()) as u32,
            "{name}: checkpoints.qrc drifted from its pinned CRC"
        );

        // The rewritten format manifest must list the new payload kind.
        let manifest = FormatManifest::from_bytes(parts.format.as_ref().expect("format manifest"))
            .expect("decode manifest");
        assert!(
            manifest.payloads.contains(&PayloadKind::CheckpointIndex),
            "{name}: manifest does not list the checkpoint index"
        );

        let rec = Recording::from_parts(&parts).expect("decode checkpoint fixture");
        let program = generator_program(gen);

        // Rebuilding the index from the logs is byte-identical: the
        // sidecar is a pure function of the recording.
        let rebuilt = CheckpointIndex::build(&program, &rec, interval).expect("rebuild index");
        assert_eq!(rebuilt.to_bytes(), index_bytes, "{name}: index regeneration drifted");

        // Every pinned seek target lands on the pinned fingerprint,
        // both through the persisted index and from scratch.
        let mut with_index = QueryEngine::new(&program, &rec).expect("engine");
        assert!(with_index.attach_index_bytes(&index_bytes), "{name}: fixture index rejected");
        let without_index = QueryEngine::new(&program, &rec).expect("engine");
        let targets = fx.get("seek_targets").and_then(|v| v.as_array()).expect("seek_targets");
        let pins = fx.get("seek_fingerprints").and_then(|v| v.as_array()).expect("pins");
        assert_eq!(targets.len(), pins.len());
        for (target, pin) in targets.iter().zip(pins) {
            let target = target.as_int().expect("seek target") as usize;
            let pin = parse_hex(pin.as_str().expect("fingerprint"));
            for (engine, how) in [(&with_index, "indexed"), (&without_index, "from scratch")] {
                let rp = engine.seek(target).expect("seek");
                assert_eq!(rp.position(), target, "{name}@{target} ({how})");
                assert_eq!(
                    rp.partial_fingerprint(),
                    pin,
                    "{name}: {how} seek to {target} diverged from its pin"
                );
            }
        }

        // Out of range: a structured error, never a panic.
        let len = fx.require_int("timeline_len").unwrap() as usize;
        let err = with_index.seek(len + 1).expect_err("out-of-range seek");
        assert!(matches!(err, QrError::InvalidConfig(_)), "{name}: {err:?}");

        // `quickrec migrate` treats the sidecar-bearing recording as
        // current (byte-level no-op, sidecar preserved) and treats an
        // index-less copy as equally valid: the index is optional and
        // regenerable, never required.
        let tmp = scratch(&format!("ckpt-{name}"));
        let with_dir = tmp.join("with-index");
        copy_dir(&dir, &with_dir);
        let report = quickrec::migrate::migrate(&with_dir).expect("migrate with index");
        assert!(!report.changed, "{name}: migrate rewrote a current recording");
        assert_eq!(dir_snapshot(&with_dir), dir_snapshot(&dir), "{name}: migrate changed bytes");
        let stripped_dir = tmp.join("index-less");
        copy_dir(&dir, &stripped_dir);
        std::fs::remove_file(stripped_dir.join("checkpoints.qrc")).expect("strip index");
        let report = quickrec::migrate::migrate(&stripped_dir).expect("migrate index-less");
        assert!(!report.changed, "{name}: index-less recording is not treated as current");
        Recording::load(&stripped_dir).expect("index-less recording loads");
        std::fs::remove_dir_all(&tmp).ok();
    }
}

/// The seek index stays proportionate to what it indexes. Format v1
/// dumped every 64 KiB guest page into every checkpoint (788 737 B for
/// the three checkpoints of `fft2-raw`, ~330 KB per checkpoint on the
/// suite); v2 onward stores the words that changed. Both bounds are several
/// times today's numbers and an order of magnitude under v1's, so they
/// trip on a regression to page-granular state, not on a workload that
/// grows a little.
#[test]
fn checkpoint_indexes_stay_proportionate() {
    maybe_regen();
    const PER_CHECKPOINT: usize = 16 * 1024;
    let fixture = golden_root().join("checkpoints/fft2-raw/checkpoints.qrc");
    let fixture = std::fs::read(fixture).expect("fft2-raw checkpoints.qrc");
    assert!(fixture.len() <= PER_CHECKPOINT, "fft2-raw/checkpoints.qrc is {} B", fixture.len());

    // The daemon's interval, over every workload of the suite.
    let (mut bytes, mut checkpoints) = (0, 0);
    for spec in quickrec::workloads::suite() {
        let program = (spec.build)(2, Scale::Test).expect("suite workload builds");
        let rec = record(program.clone(), RecordingConfig::with_cores(2)).expect("records");
        let index = CheckpointIndex::build(&program, &rec, 25).expect("index builds");
        bytes += index.to_bytes().len();
        checkpoints += index.keys.len();
    }
    assert!(checkpoints >= 16, "the suite at Test scale takes {checkpoints} checkpoints");
    assert!(
        bytes <= checkpoints * PER_CHECKPOINT,
        "{bytes} B of index for {checkpoints} checkpoints: {} B each",
        bytes / checkpoints
    );
}

#[test]
fn store_entries_fetch_byte_identical_parts() {
    let doc = manifest_doc();
    // Copy the committed store first: opening a store is allowed to sweep
    // staging litter, and the golden tree must never be written by tests.
    let tmp = scratch("store");
    copy_dir(&golden_root().join("store"), &tmp);
    let store = qr_store::RecordingStore::open(&tmp).expect("open store fixture");
    let entries = doc.sections_named("store_entry");
    assert_eq!(entries.len(), 2);
    for entry in entries {
        let id = entry.require_int("id").unwrap() as u64;
        let (manifest, parts) = store.fetch_parts(id).expect("fetch store entry");
        assert_eq!(manifest.name, entry.require_str("name").unwrap());
        assert_eq!(manifest.encoding, encoding_named(entry.require_str("encoding").unwrap()));
        let pinned = parse_hex(entry.require_str("fingerprint").unwrap());
        assert_eq!(manifest.fingerprint, pinned);
        // The store round-trip must hand back exactly the committed v3
        // fixture bytes for the same generator + encoding.
        let golden =
            golden_root().join(format!("v3/{}-{}", manifest.name, manifest.encoding.name()));
        for (file, bytes) in parts.files() {
            let pinned = std::fs::read(golden.join(file)).expect("read pinned file");
            assert_eq!(bytes, pinned.as_slice(), "store entry {id} {file} differs from fixture");
        }
        assert!(store.verify(id).expect("verify store entry").all_ok());
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn trace_and_wire_fixtures_round_trip() {
    let doc = manifest_doc();
    for aux in doc.sections_named("aux") {
        let path = golden_root().join(aux.require_str("path").unwrap());
        let bytes = std::fs::read(&path).expect("read aux fixture");
        assert_eq!(crc32::checksum(&bytes), parse_hex(aux.require_str("crc").unwrap()) as u32);
        let records = aux.require_int("records").unwrap() as usize;
        match aux.require_str("kind").unwrap() {
            "trace-journal" => {
                let events = qr_obs::trace::from_bytes(&bytes).expect("decode trace");
                assert_eq!(events.len(), records);
                assert_eq!(events, golden_trace_events());
                assert_eq!(qr_obs::trace::to_bytes(&events), bytes, "trace re-encode drifted");
            }
            kind @ ("wire" | "wire-messages") => {
                use qr_server::proto::{decode_request, decode_response};
                // Today's encoder still writes the committed bytes...
                let all = kind == "wire-messages";
                let (pinned_capture, all_capture) = golden_wire_captures();
                assert_eq!(bytes, if all { all_capture } else { pinned_capture }, "wire encoding drifted");
                // ...and the decoder inverts them, record by record.
                let payloads =
                    frame::read(&bytes, PayloadKind::Wire, "wire capture").expect("framed wire");
                assert_eq!(payloads.len(), records);
                let (mut requests, mut responses) = (Vec::new(), Vec::new());
                for record in payloads {
                    match (all, record) {
                        (false, payload) | (true, [WIRE_REQUEST, payload @ ..]) => {
                            requests.push(decode_request(payload).expect("decode request"));
                        }
                        (true, [WIRE_RESPONSE, payload @ ..]) => {
                            responses.push(decode_response(payload).expect("decode response"));
                        }
                        (true, other) => panic!("record without a direction byte: {other:?}"),
                    }
                }
                let (mut want_requests, mut want_responses) = golden_wire_messages();
                if !all {
                    want_requests.retain(in_requests_capture);
                    want_responses.clear();
                }
                assert_eq!((requests, responses), (want_requests, want_responses));
            }
            other => panic!("unknown aux kind {other:?}"),
        }
    }
}

/// Every committed single-record document — each `format.qrv`, both
/// store manifests, both checkpoint indexes and the trace journal —
/// decodes and re-encodes to its file byte for byte.
#[test]
fn single_record_documents_reencode_byte_for_byte() {
    maybe_regen();
    let root = golden_root();
    let mut documents = vec![root.join("trace/hello.qrt")];
    for sub in ["v3", "order", "checkpoints", "store"] {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(sub))
            .expect("read fixture dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        dirs.sort();
        for dir in dirs {
            for file in ["format.qrv", "checkpoints.qrc", "manifest.qrs"] {
                documents.push(dir.join(file));
            }
        }
    }
    let mut counts = std::collections::BTreeMap::new();
    for path in documents.iter().filter(|p| p.exists()) {
        let bytes = std::fs::read(path).expect("read document");
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        let again = match name.as_str() {
            "format.qrv" => FormatManifest::from_bytes(&bytes).map(|m| m.to_bytes()),
            "checkpoints.qrc" => CheckpointIndex::from_bytes(&bytes).map(|ix| ix.to_bytes()),
            "manifest.qrs" => qr_store::Manifest::from_bytes(&bytes).map(|m| m.to_bytes()),
            _ => qr_obs::trace::from_bytes(&bytes).map(|events| qr_obs::trace::to_bytes(&events)),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(again, bytes, "{} does not re-encode byte for byte", path.display());
        *counts.entry(name).or_insert(0) += 1;
    }
    let counts: Vec<(&str, usize)> = counts.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    assert_eq!(
        counts,
        [("checkpoints.qrc", 2), ("format.qrv", 11), ("hello.qrt", 1), ("manifest.qrs", 2)]
    );
}

#[test]
fn encodings_are_differentially_equivalent() {
    maybe_regen();
    // The same seeded execution, stored under every encoding, must
    // round-trip through disk to one replay fingerprint.
    let tmp = scratch("diff");
    let mut rng = SplitMix64::new(0x90_1d_e2);
    for case in 0..3u32 {
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.os.input_seed = rng.next_u64();
        let program = generator_program("hello");
        let rec = record(program.clone(), cfg).expect("record seeded run");
        let mut fingerprints = Vec::new();
        for encoding in Encoding::ALL {
            let dir = tmp.join(format!("case-{case}-{}", encoding.name()));
            rec.to_parts(encoding).save(&dir).expect("save");
            let loaded = Recording::load(&dir).expect("load");
            let outcome = replay_and_verify(&program, &loaded).expect("replay");
            fingerprints.push(outcome.fingerprint);
        }
        assert_eq!(fingerprints[0], rec.fingerprint, "case {case}");
        assert!(
            fingerprints.iter().all(|&f| f == fingerprints[0]),
            "case {case}: encodings diverged: {fingerprints:x?}"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn mutated_fixtures_fail_structurally_never_panic() {
    maybe_regen();
    // The order fixture carries every recording part the format writes —
    // meta, chunks, inputs, format manifest AND order.qrp — so one
    // campaign covers them all.
    for dir in ["v3/hello-packed", "order/fft2-packed"] {
        let dir = golden_root().join(dir);
        let clean = RecordingParts::read(&dir).expect("read fixture");
        let baseline = Recording::from_parts(&clean).expect("clean fixture decodes").fingerprint;
        let mut rng = SplitMix64::new(0xbadf00d);
        let files = clean.files().len();
        for trial in 0..120 {
            let mut parts = clean.clone();
            let target = rng.below(files as u64) as usize;
            {
                let (name, _) = parts.files()[target];
                let bytes: &mut Vec<u8> = match name {
                    "meta.qrm" => &mut parts.meta,
                    "chunks.qrl" => &mut parts.chunks,
                    "inputs.qrl" => &mut parts.inputs,
                    "format.qrv" => parts.format.as_mut().expect("fixture has format manifest"),
                    "order.qrp" => parts.order.as_mut().expect("fixture has order log"),
                    other => panic!("unexpected part {other:?}"),
                };
                let bit = rng.below(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Recording::from_parts(&parts).map(|rec| rec.fingerprint)
            }));
            match outcome {
                Err(_) => panic!("trial {trial}: bit flip caused a panic"),
                // Every byte of every file sits under a frame CRC, so a
                // flip may only surface as a structured error...
                Ok(Err(QrError::Corrupt { .. }))
                | Ok(Err(QrError::LogDecode(_)))
                | Ok(Err(QrError::Unsupported(_))) => {}
                Ok(Err(other)) => panic!("trial {trial}: unstructured failure {other:?}"),
                // ...except a flip that only touches salvage-irrelevant
                // padding cannot happen here: decode must not quietly
                // produce a different execution.
                Ok(Ok(fp)) => assert_eq!(fp, baseline, "trial {trial}: silent corruption"),
            }
        }
    }
}

#[test]
fn order_fixtures_replay_to_pinned_fingerprints() {
    let doc = manifest_doc();
    let sections = doc.sections_named("order");
    assert_eq!(sections.len(), Encoding::ALL.len());
    let program = generator_program(ORDER_GENERATOR);
    for fx in sections {
        let name = fx.require_str("name").unwrap();
        let dir = golden_root().join(fx.require_str("path").unwrap());
        let parts = RecordingParts::read(&dir).expect("read order fixture");
        assert_eq!(RecordingVersion::detect(&parts), RecordingVersion::V4, "{name}");
        let order_bytes = parts.order.clone().expect("fixture has order.qrp");
        assert_eq!(
            crc32::checksum(&order_bytes),
            parse_hex(fx.require_str("order_crc").unwrap()) as u32,
            "{name}: order.qrp drifted from its pinned CRC"
        );
        let rec = Recording::from_parts(&parts).expect("decode order fixture");
        let order = rec.order.as_ref().expect("decoded recording carries the order log");
        assert_eq!(order.node_count() as i64, fx.require_int("nodes").unwrap(), "{name}");
        assert_eq!(order.edges().len() as i64, fx.require_int("edges").unwrap(), "{name}");

        // The manifest must claim v4 and list the order-log payload.
        let manifest = FormatManifest::from_bytes(parts.format.as_ref().expect("format manifest"))
            .expect("decode manifest");
        assert!(manifest.payloads.contains(&PayloadKind::OrderLog), "{name}");

        // Serial and parallel ordered replays land on the pinned
        // fingerprint — the conformance core of the partial-order format.
        let pinned = parse_hex(fx.require_str("fingerprint").unwrap());
        for jobs in [1, 2] {
            let outcome = replay_ordered_and_verify(&program, &rec, jobs)
                .unwrap_or_else(|e| panic!("{name}: ordered replay jobs={jobs}: {e}"));
            assert_eq!(outcome.fingerprint, pinned, "{name} jobs={jobs}");
        }

        // A truncated order.qrp salvages to a clean edge prefix, and the
        // strict decoder refuses it.
        let cut = order_bytes.len() * 2 / 3;
        let (salvaged, report) = OrderLog::salvage_from_bytes(&order_bytes[..cut]);
        assert!(report.corruption.is_some(), "{name}: truncation not reported");
        assert!(
            salvaged.edges().len() <= order.edges().len(),
            "{name}: salvage invented edges"
        );
        assert!(
            order.edges().starts_with(salvaged.edges()),
            "{name}: salvage is not a clean prefix"
        );
        assert!(OrderLog::from_bytes(&order_bytes[..cut]).is_err(), "{name}: strict mode");

        // `quickrec migrate` treats a v4 recording as current.
        let tmp = scratch(&format!("order-{name}"));
        copy_dir(&dir, &tmp);
        let report = quickrec::migrate::migrate(&tmp).expect("migrate v4");
        assert!(!report.changed, "{name}: migrate rewrote a v4 recording");
        assert_eq!(dir_snapshot(&tmp), dir_snapshot(&dir), "{name}: migrate changed bytes");
        std::fs::remove_dir_all(&tmp).ok();
    }
}

/// Recordings written while footprints were persisted: a v3 directory
/// (`hello`, raw) and a store entry (`hello`, delta) that still carry
/// `footprints.qrl`, kept verbatim where `regenerate()` never writes.
const FOOTPRINT_SIDECAR: &str = "footprint-sidecar";

/// The replay fingerprint of both `FOOTPRINT_SIDECAR` recordings.
const FOOTPRINT_SIDECAR_FINGERPRINT: u64 = 0xe806_56d6_4147_7956;

#[test]
fn recordings_with_a_footprint_sidecar_load_verify_and_replay() {
    maybe_regen();
    let root = golden_root().join(FOOTPRINT_SIDECAR);
    let program = generator_program("hello");
    let tmp = scratch("footprint-sidecar");

    // The directory: the sidecar, and the manifest entry listing it, are
    // inert. Every reader skips them and the rest is what current code
    // writes for the same execution.
    let dir = root.join("v3-hello-raw");
    assert!(dir.join("footprints.qrl").is_file(), "the kept fixture carries its sidecar");
    let parts = RecordingParts::read(&dir).expect("read sidecar-era directory");
    assert_eq!(RecordingVersion::detect(&parts), RecordingVersion::V3);
    let manifest = FormatManifest::from_bytes(parts.format.as_ref().expect("format.qrv"))
        .expect("decode sidecar-era manifest");
    assert!(manifest.payloads.contains(&PayloadKind::FootprintLog));
    let current = recording_for("hello").to_parts(Encoding::Raw);
    assert_eq!(
        (&parts.meta, &parts.chunks, &parts.inputs),
        (&current.meta, &current.chunks, &current.inputs)
    );
    let report = Recording::verify_dir(&dir);
    assert!(report.all_ok(), "{:?}", report.files);
    assert!(report.files.iter().all(|f| f.name != "footprints.qrl"), "verify reads no sidecar");
    let rec = Recording::load(&dir).expect("load sidecar-era directory");
    assert!(rec.footprints.is_none(), "a loaded recording carries no footprints");
    let outcome = replay_and_verify(&program, &rec).expect("replay sidecar-era directory");
    assert_eq!(outcome.fingerprint, FOOTPRINT_SIDECAR_FINGERPRINT);
    let (salvaged, recovery) = Recording::load_salvaged(&dir).expect("salvage-load");
    assert!(recovery.is_clean());
    let outcome = replay_and_verify(&program, &salvaged).expect("replay salvage-loaded");
    assert_eq!(outcome.fingerprint, FOOTPRINT_SIDECAR_FINGERPRINT);
    // `quickrec migrate` verifies it as current and leaves every byte,
    // the inert sidecar included, where it is.
    let copy = tmp.join("dir");
    copy_dir(&dir, &copy);
    let report = quickrec::migrate::migrate(&copy).expect("migrate sidecar-era directory");
    assert!(!report.changed && report.from == RecordingVersion::V3);
    assert_eq!(report.fingerprint, FOOTPRINT_SIDECAR_FINGERPRINT);
    assert_eq!(dir_snapshot(&copy), dir_snapshot(&dir), "migrate changed bytes");

    // The store entry: its manifest lists the sidecar, fetch skips it.
    copy_dir(&root.join("store"), &tmp.join("store"));
    let store = qr_store::RecordingStore::open(&tmp.join("store")).expect("open sidecar-era store");
    let listed = store.manifest(1).expect("store manifest");
    assert!(listed.files.iter().any(|f| f.name == "footprints.qrl"));
    let (_, parts) = store.fetch_parts(1).expect("fetch sidecar-era entry");
    assert!(parts.files().iter().all(|(name, _)| *name != "footprints.qrl"));
    assert!(store.verify(1).expect("verify sidecar-era entry").all_ok());
    let rec = store.fetch(1).expect("decode sidecar-era entry");
    let outcome = replay_and_verify(&program, &rec).expect("replay sidecar-era entry");
    assert_eq!(outcome.fingerprint, FOOTPRINT_SIDECAR_FINGERPRINT);
    let (salvaged, recovery) = store.fetch_salvaged(1).expect("salvage-fetch");
    assert!(recovery.is_clean());
    let outcome = replay_and_verify(&program, &salvaged).expect("replay salvage-fetched entry");
    assert_eq!(outcome.fingerprint, FOOTPRINT_SIDECAR_FINGERPRINT);
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn every_payload_kind_is_covered_by_a_fixture() {
    maybe_regen();
    let root = golden_root();
    // Exhaustive match, no wildcard: adding a PayloadKind without
    // extending the golden suite fails to compile right here.
    for kind in PayloadKind::ALL {
        let covering: PathBuf = match kind {
            PayloadKind::ChunkLog => root.join("v3/hello-raw/chunks.qrl"),
            PayloadKind::InputLog => root.join("v3/hello-raw/inputs.qrl"),
            PayloadKind::Meta => root.join("v3/hello-raw/meta.qrm"),
            PayloadKind::FootprintLog => {
                root.join(FOOTPRINT_SIDECAR).join("v3-hello-raw/footprints.qrl")
            }
            PayloadKind::Wire => root.join("wire/requests.qrw"),
            PayloadKind::CompressedLog => root.join("store/rec-00000001/chunks.qrl.z"),
            PayloadKind::StoreManifest => root.join("store/rec-00000001/manifest.qrs"),
            PayloadKind::TraceJournal => root.join("trace/hello.qrt"),
            PayloadKind::FormatManifest => root.join("v3/hello-raw/format.qrv"),
            PayloadKind::CheckpointIndex => root.join("checkpoints/hello-delta/checkpoints.qrc"),
            PayloadKind::OrderLog => root.join("order/fft2-delta/order.qrp"),
        };
        let bytes = std::fs::read(&covering).unwrap_or_else(|e| {
            panic!("no golden fixture covers {}: {} ({e})", kind.name(), covering.display())
        });
        assert!(frame::is_framed(&bytes), "{} fixture is not framed", kind.name());
        assert_eq!(
            bytes[frame::HEADER_LEN - 1],
            kind.code(),
            "{} fixture carries the wrong kind byte",
            kind.name()
        );
    }
}

#[test]
fn known_failures_are_rejected_with_pinned_errors() {
    maybe_regen();
    let text = std::fs::read_to_string(golden_root().join("KNOWN_FAILURES.toml"))
        .expect("tests/golden/KNOWN_FAILURES.toml");
    let doc = tomlmini::parse(&text).expect("parse KNOWN_FAILURES.toml");
    let rejects = doc.sections_named("reject");
    assert_eq!(rejects.len(), reject_fixtures().len(), "registry out of sync with generators");
    for reject in rejects {
        let name = reject.require_str("name").unwrap();
        let bytes = std::fs::read(golden_root().join(reject.require_str("file").unwrap()))
            .expect("read reject fixture");
        let needle = reject.require_str("error_contains").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_decoder(reject.require_str("decoder").unwrap(), &bytes)
        }));
        match result {
            Err(_) => panic!("{name}: decoder panicked"),
            Ok(Ok(())) => panic!("{name}: decoder accepted a shape pinned as unsupported"),
            Ok(Err(err)) => assert!(
                err.to_string().contains(needle),
                "{name}: error {err:?} does not contain pinned text {needle:?}"
            ),
        }
    }
}
