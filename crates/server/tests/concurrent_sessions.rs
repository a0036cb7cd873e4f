//! Service-level contract of `quickrecd`: N parallel submissions
//! produce recordings fingerprint-identical to sequential local runs,
//! backpressure rejects overload instead of wedging, and graceful
//! shutdown drains every queued job without leaving a torn store entry.

use qr_capo::{record, Recording, RecordingConfig};
use qr_common::frame;
use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const WORKLOADS: [&str; 4] = ["fft", "lu", "radix", "ocean"];
const THREADS: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-server-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn start(dir: &std::path::Path, workers: usize, queue: usize) -> qr_server::ServerHandle {
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        store_root: dir.join("store"),
        max_connections: 256,
    };
    Server::start(&endpoint, &config).expect("start server")
}

fn local_fingerprint(workload: &str) -> u64 {
    let spec = qr_workloads::find(workload).expect("workload");
    let program = (spec.build)(THREADS, Scale::Test).expect("build");
    let recording = record(program, RecordingConfig::with_cores(THREADS)).expect("record");
    recording.fingerprint
}

/// The most a store entry's block containers add to its raw files, read
/// off the containers: per file, the frame header, the index record, and
/// each block record's length prefix, checksum and method byte. A block
/// LZ does not shrink is stored raw
/// (`qr_store::block::compress_with_block_size`).
fn entry_overhead(store: &qr_store::RecordingStore, entry: &qr_store::Manifest) -> u64 {
    let dir = store.entry_dir(entry.id);
    entry
        .files
        .iter()
        .map(|file| {
            let path = dir.join(format!("{}{}", file.name, qr_store::COMPRESSED_SUFFIX));
            let spans = frame::record_spans(&std::fs::read(path).expect("stored container"));
            let index = spans.first().map_or(0, |span| span.len());
            let blocks = spans.len().saturating_sub(1);
            (frame::HEADER_LEN + index + blocks * (frame::RECORD_OVERHEAD + 1)) as u64
        })
        .sum()
}

fn submit(workload: &str) -> Request {
    Request::SubmitWorkload {
        name: workload.to_string(),
        workload: workload.to_string(),
        threads: THREADS as u32,
        scale: Scale::Test,
        encoding: Encoding::Delta,
        order: OrderMode::TotalOrder,
    }
}

#[test]
fn parallel_submissions_match_sequential_local_fingerprints() {
    let dir = scratch("parallel");
    let handle = start(&dir, 4, 16);
    let endpoint = handle.endpoint().clone();

    // Sequential local baseline, no server involved.
    let expected: Vec<(String, u64)> = WORKLOADS
        .iter()
        .map(|w| (w.to_string(), local_fingerprint(w)))
        .collect();

    // One client thread per workload, all submitting concurrently.
    let joined: Vec<(String, u64, Vec<(String, Vec<u8>)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .map(|w| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with_retry(&endpoint, Duration::from_secs(5))
                            .expect("connect");
                    let Response::Submitted { id } =
                        client.call(&submit(w)).expect("submit call")
                    else {
                        panic!("{w}: submission not accepted");
                    };
                    let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
                    assert_eq!(job.state, JobState::Done, "{w}: {:?}", job.state);
                    let Response::Fetched { files, fingerprint } =
                        client.call(&Request::Fetch { id }).expect("fetch call")
                    else {
                        panic!("{w}: fetch refused");
                    };
                    (w.to_string(), fingerprint, files)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for (workload, expected_fp) in &expected {
        let (_, fingerprint, files) = joined
            .iter()
            .find(|(w, _, _)| w == workload)
            .expect("every workload came back");
        assert_eq!(
            fingerprint, expected_fp,
            "{workload}: server recording must match a sequential local run"
        );
        // The fetched file set is a complete, loadable recording whose
        // own fingerprint agrees.
        let fetched_dir = dir.join(format!("fetched-{workload}"));
        std::fs::create_dir_all(&fetched_dir).expect("fetched dir");
        for (name, bytes) in files {
            std::fs::write(fetched_dir.join(name), bytes).expect("write fetched file");
        }
        let loaded = Recording::load(&fetched_dir).expect("load fetched recording");
        assert_eq!(&loaded.fingerprint, expected_fp, "{workload}");
    }

    // Follow-up jobs against stored sessions: replay, verify and race
    // detection all complete against the compressed store entries.
    let mut client = Client::connect(&endpoint).expect("connect follow-up");
    for (i, req) in
        [Request::Replay { id: 1 }, Request::Verify { id: 2 }, Request::Races { id: 3 }]
            .into_iter()
            .enumerate()
    {
        let id = i as u64 + 1;
        match client.call(&req).expect("follow-up call") {
            Response::Queued => {}
            other => panic!("follow-up {req:?}: {other:?}"),
        }
        let job = client.wait_for(id, Duration::from_secs(120)).expect("follow-up wait");
        assert_eq!(job.state, JobState::Done, "follow-up {req:?}: {:?}", job.state);
    }

    // STATS reflects what actually happened.
    let Response::Stats(stats) = client.call(&Request::Stats).expect("stats call") else {
        panic!("stats refused");
    };
    assert_eq!(stats.accepted, WORKLOADS.len() as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, WORKLOADS.len() as u64 + 3);
    assert_eq!(stats.sessions.len(), WORKLOADS.len());
    for s in &stats.sessions {
        assert_eq!(s.records, 1, "session {}", s.id);
        assert!(s.bytes_stored > 0, "session {}", s.id);
    }

    match client.call(&Request::Shutdown).expect("shutdown call") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();

    // No torn store entries after shutdown.
    let store = dir.join("store");
    let staging: Vec<_> = std::fs::read_dir(&store)
        .expect("store root")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp"))
        .collect();
    assert!(staging.is_empty(), "graceful shutdown left staging dirs: {staging:?}");

    // Every session's stored bytes are its store entry's, and no entry
    // grows past its containers' own overhead. Test-scale Delta logs are
    // already dense: LZ saves less than a container's fixed cost per
    // file, so stored may exceed raw by that much and no more.
    let store = qr_store::RecordingStore::open(&store).expect("reopen store");
    let entries = store.list().expect("list store");
    for s in &stats.sessions {
        let entry = entries
            .iter()
            .find(|e| (e.uncompressed_bytes(), e.compressed_bytes()) == (s.bytes_raw, s.bytes_stored))
            .unwrap_or_else(|| panic!("session {}: no store entry holds its bytes", s.id));
        assert!(
            s.bytes_stored <= s.bytes_raw + entry_overhead(&store, entry),
            "session {}: {} stored vs {} raw",
            s.id,
            s.bytes_stored,
            s.bytes_raw
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backpressure_rejects_overload_and_reports_busy() {
    let dir = scratch("busy");
    let handle = start(&dir, 1, 1);
    let endpoint = handle.endpoint().clone();

    let mut client = Client::connect(&endpoint).expect("connect");
    let mut accepted = Vec::new();
    let mut busy = 0u32;
    // One worker, queue of one: a fast burst must overflow into Busy.
    for _ in 0..8 {
        match client.call(&submit("fft")).expect("submit") {
            Response::Submitted { id } => accepted.push(id),
            Response::Busy { .. } => busy += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(busy > 0, "an 8-burst against a 1-deep queue must see Busy");
    assert!(!accepted.is_empty(), "some submissions must get through");

    // Every accepted job still completes; rejected ones left no ghost
    // sessions behind.
    for &id in &accepted {
        let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
        assert_eq!(job.state, JobState::Done, "session {id}: {:?}", job.state);
    }
    let Response::JobList(jobs) = client.call(&Request::Jobs).expect("jobs") else {
        panic!("jobs refused");
    };
    assert_eq!(jobs.len(), accepted.len(), "rejected submissions must not linger");
    let Response::Stats(stats) = client.call(&Request::Stats).expect("stats") else {
        panic!("stats refused");
    };
    assert_eq!(stats.rejected_busy, u64::from(busy));
    assert_eq!(stats.accepted, accepted.len() as u64);
    // STATS and METRICS read one counter, so they cannot disagree.
    let metrics = client.metrics().expect("metrics");
    let busy_metric = metrics
        .lines()
        .find_map(|l| l.strip_prefix("qr_server_busy_rejections_total "))
        .and_then(|v| v.parse::<u64>().ok());
    assert_eq!(busy_metric, Some(stats.rejected_busy), "STATS and METRICS disagree:\n{metrics}");

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_queued_jobs_and_leaves_every_session_terminal() {
    let dir = scratch("drain");
    let handle = start(&dir, 1, 8);
    let endpoint = handle.endpoint().clone();

    // Queue several jobs behind a single worker, then shut down
    // immediately: graceful shutdown must finish them all.
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut ids = Vec::new();
    for w in WORKLOADS {
        match client.call(&submit(w)).expect("submit") {
            Response::Submitted { id } => ids.push(id),
            other => panic!("{w}: {other:?}"),
        }
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();

    // The store holds one committed, fetchable entry per accepted job.
    let store = qr_store::RecordingStore::open(&dir.join("store")).expect("reopen store");
    let entries = store.list().expect("list");
    assert_eq!(entries.len(), ids.len(), "every drained job committed its recording");
    for manifest in &entries {
        store.fetch(manifest.id).expect("entry fetches cleanly");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_and_stats_agree_on_every_sample() {
    let dir = scratch("agree");
    let handle = start(&dir, 2, 16);
    let endpoint = handle.endpoint().clone();
    let finished = AtomicBool::new(false);

    let samples = std::thread::scope(|scope| {
        // A second client reads JOBS then STATS in a tight loop while
        // the jobs run. The loop applies a job's transition and its
        // counter in one step, so STATS never counts fewer finished jobs
        // than the sessions JOBS just showed finished, and a session
        // shown done after its record job fetches at once.
        let poller = scope.spawn(|| {
            let mut client = Client::connect(&endpoint).expect("connect poller");
            let mut fetched = HashSet::new();
            let mut samples = 0u64;
            while !finished.load(Ordering::SeqCst) {
                let Response::JobList(jobs) = client.call(&Request::Jobs).expect("jobs") else {
                    panic!("jobs refused");
                };
                let Response::Stats(stats) = client.call(&Request::Stats).expect("stats") else {
                    panic!("stats refused");
                };
                let shown = jobs
                    .iter()
                    .filter(|j| matches!(j.state, JobState::Done | JobState::Failed(_)))
                    .count() as u64;
                assert!(
                    stats.completed + stats.failed >= shown,
                    "STATS counts {} + {} finished jobs after JOBS showed {shown} finished \
                     sessions",
                    stats.completed,
                    stats.failed
                );
                for job in jobs.iter().filter(|j| j.kind == "record" && j.state == JobState::Done) {
                    if fetched.insert(job.id) {
                        match client.call(&Request::Fetch { id: job.id }).expect("fetch") {
                            Response::Fetched { .. } => {}
                            other => panic!("session {} shown done: {other:?}", job.id),
                        }
                    }
                }
                samples += 1;
            }
            samples
        });

        // Four record jobs, then a follow-up job on each: eight in all.
        let mut client = Client::connect(&endpoint).expect("connect");
        let ids: Vec<u64> = WORKLOADS
            .iter()
            .map(|w| match client.call(&submit(w)).expect("submit") {
                Response::Submitted { id } => id,
                other => panic!("{w}: {other:?}"),
            })
            .collect();
        let wait_all = |client: &mut Client| {
            for &id in &ids {
                let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
                assert_eq!(job.state, JobState::Done, "session {id}: {:?}", job.state);
            }
        };
        wait_all(&mut client);
        let followups = [Request::Replay { id: ids[0] }, Request::Verify { id: ids[1] }];
        let followups = followups.into_iter().chain([
            Request::Races { id: ids[2] },
            Request::Replay { id: ids[3] },
        ]);
        for req in followups {
            match client.call(&req).expect("follow-up") {
                Response::Queued => {}
                other => panic!("follow-up {req:?}: {other:?}"),
            }
        }
        wait_all(&mut client);
        finished.store(true, Ordering::SeqCst);
        poller.join().expect("poller")
    });
    assert!(samples > 0, "the poller took no sample");

    let mut client = Client::connect(&endpoint).expect("connect");
    let Response::Stats(stats) = client.call(&Request::Stats).expect("stats") else {
        panic!("stats refused");
    };
    assert_eq!((stats.completed, stats.failed), (2 * WORKLOADS.len() as u64, 0));
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
