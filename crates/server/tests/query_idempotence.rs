//! The QUERY wire request: recordings made by the daemon carry a
//! persisted `checkpoints.qrc` seek index, queries answer over the
//! wire, and a repeated replay id is served from the (bounded)
//! idempotence cache without re-executing — observable through the
//! server's metrics.

use qr_replay::{QueryPlan, QueryResult, ReplayQuery};
use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig, QUERY_CACHE_CAP};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-query-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn start(dir: &std::path::Path) -> qr_server::ServerHandle {
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let config =
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            store_root: dir.join("store"),
            max_connections: 256,
        };
    Server::start(&endpoint, &config).expect("start server")
}

/// Reads one counter sample from the server's metrics exposition.
fn counter(client: &mut Client, name_and_labels: &str) -> u64 {
    client
        .metrics()
        .expect("metrics")
        .lines()
        .find(|l| l.starts_with(name_and_labels))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0)
}

#[test]
fn repeated_replay_ids_answer_from_the_cache_without_reexecuting() {
    let dir = scratch("cache");
    let handle = start(&dir);
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    let Response::Submitted { id } = client
        .call(&Request::SubmitWorkload {
            name: "q".into(),
            workload: "fft".into(),
            threads: 2,
            scale: Scale::Test,
            encoding: Encoding::Delta,
            order: OrderMode::TotalOrder,
        })
        .expect("submit")
    else {
        panic!("submission not accepted");
    };
    let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
    assert_eq!(job.state, JobState::Done, "{:?}", job.state);

    // The recording the daemon just made carries its seek index.
    let Response::Fetched { files, .. } = client.call(&Request::Fetch { id }).expect("fetch")
    else {
        panic!("fetch refused");
    };
    assert!(
        files.iter().any(|(name, bytes)| name == "checkpoints.qrc" && !bytes.is_empty()),
        "record jobs persist checkpoints.qrc: {:?}",
        files.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    // Dry run: a plan, not a result, and nothing is executed or cached.
    let (cached, payload) = client
        .query(id, ReplayQuery::ReverseStep { events: 1 }, true, 0, 9)
        .expect("dry-run query");
    assert!(!cached);
    let plan = QueryPlan::from_bytes(&payload).expect("plan decodes");
    assert!(plan.timeline_len > 0 && plan.end <= plan.timeline_len);
    assert_eq!(counter(&mut client, "qr_server_queries_total{outcome=\"cached\"}"), 0);

    // First execution misses the cache; the repeat hits it bit-for-bit
    // and the executed counter proves nothing re-ran.
    let query = ReplayQuery::Thread { tid: qr_common::ThreadId(0) };
    let (cached, first) = client.query(id, query, false, 0, 42).expect("first query");
    assert!(!cached);
    let result = QueryResult::from_bytes(&first).expect("result decodes");
    assert!(result.end > result.start);
    let executed_after_first =
        counter(&mut client, "qr_server_queries_total{outcome=\"executed\"}");

    let (cached, repeat) = client.query(id, query, false, 0, 42).expect("repeat query");
    assert!(cached, "a repeated replay id must hit the cache");
    assert_eq!(repeat, first, "the cached answer is the original answer, bit for bit");
    assert_eq!(
        counter(&mut client, "qr_server_queries_total{outcome=\"executed\"}"),
        executed_after_first,
        "the cache hit must not re-execute"
    );
    assert_eq!(counter(&mut client, "qr_server_queries_total{outcome=\"cached\"}"), 1);

    // A different replay id is its own cache entry.
    let (cached, _) = client
        .query(id, ReplayQuery::BeforeDivergence { instructions: 16 }, false, 0, 43)
        .expect("other query");
    assert!(!cached);

    // The cache is bounded: one id more than it holds pushes out the
    // oldest. The newest still hits; the evicted one re-executes — to
    // the same bytes, since an answer is a function of the recording.
    let ids: Vec<u64> = (0..=QUERY_CACHE_CAP as u64).map(|i| 1000 + i).collect();
    let answers: Vec<Vec<u8>> = ids
        .iter()
        .map(|&replay_id| {
            let (cached, payload) = client.query(id, query, false, 0, replay_id).expect("query");
            assert!(!cached, "replay id {replay_id} is new");
            payload
        })
        .collect();
    let (newest, oldest) = (ids[QUERY_CACHE_CAP], ids[0]);
    let (cached, payload) = client.query(id, query, false, 0, newest).expect("newest id");
    assert!(cached, "the most recent replay id must still be cached");
    assert_eq!(payload, answers[QUERY_CACHE_CAP]);
    let (cached, payload) = client.query(id, query, false, 0, oldest).expect("evicted id");
    assert!(!cached, "replay id {oldest} should have been evicted by {QUERY_CACHE_CAP} newer ones");
    assert_eq!(payload, answers[0], "re-execution reproduces the evicted answer");

    // The safety limit and unknown sessions are structured errors.
    let err = client.query(id, query, false, 1, 0).expect_err("over max-events");
    assert!(err.to_string().contains("exceeding max-events 1"), "{err}");
    let err = client.query(999, query, false, 0, 0).expect_err("unknown session");
    assert!(err.to_string().contains("no session 999"), "{err}");

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
