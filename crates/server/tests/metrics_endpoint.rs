//! The METRICS wire request: a live daemon renders its `qr-obs`
//! registry as parseable text exposition covering the recorder, store
//! and server metric families, and shutdown unblocks the accept loop
//! promptly (no sleep-polling anywhere on the path).

use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-metrics-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn start(dir: &std::path::Path) -> qr_server::ServerHandle {
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 8,
        store_root: dir.join("store"),
        event_workers: 2,
        max_connections: 256,
    };
    Server::start(&endpoint, &config).expect("start server")
}

#[test]
fn metrics_request_returns_parseable_exposition_with_all_families() {
    let dir = scratch("families");
    let handle = start(&dir);
    let endpoint = handle.endpoint().clone();

    let mut client = Client::connect(&endpoint).expect("connect");
    // Drive one real RECORD job through the daemon so the recorder and
    // store families register in-process, not just the server's own.
    let Response::Submitted { id } = client
        .call(&Request::SubmitWorkload {
            name: "m".into(),
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
    match client.call(&Request::Ping).expect("ping") {
        Response::Pong => {}
        other => panic!("ping: {other:?}"),
    }
    // One time-travel query, so the seek families register too: a step
    // back from the end restores the last checkpoint of the sidecar the
    // record job built.
    client
        .query(id, qr_replay::ReplayQuery::ReverseStep { events: 1 }, false, 0, 0)
        .expect("query");

    let text = client.metrics().expect("metrics request");
    let exposition = qr_obs::parse_exposition(&text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));

    // One family per instrumented subsystem that this run exercised.
    for family in [
        "qr_server_requests_total",
        "qr_server_request_latency_us",
        "qr_server_connections_total",
        "qr_server_open_connections",
        "qr_server_event_loop_wakeups_total",
        "qr_server_event_loop_events_total",
        "qr_server_event_loop_conns_adopted_total",
        "qr_recorder_chunks_total",
        "qr_recorder_chunk_size_insns",
        "qr_recorder_log_bytes_total",
        "qr_store_encode_latency_us",
        "qr_store_bytes_total",
        "qr_replay_seeks_total",
        "qr_replay_seek_restore_records",
    ] {
        assert!(
            exposition.has_family(family),
            "exposition is missing `{family}`:\n{text}"
        );
    }
    // Histograms carry quantile summary lines.
    assert!(
        text.contains("qr_server_request_latency_us{") && text.contains("quantile=\"0.99\""),
        "latency histogram lacks quantile samples:\n{text}"
    );
    // Why a seek was slow: how many checkpoint records it had to apply.
    assert!(
        text.contains("qr_replay_seek_restore_records_bucket{le=\"8\"} 1"),
        "the restored seek did not report its chain depth:\n{text}"
    );
    // The submit and ping we just made are counted by kind.
    assert!(
        text.contains("qr_server_requests_total{kind=\"ping\"}"),
        "ping not counted:\n{text}"
    );
    assert!(
        text.contains("qr_server_requests_total{kind=\"submit_workload\"}"),
        "submit not counted:\n{text}"
    );

    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_unblocks_accept_loop_without_polling_delay() {
    let dir = scratch("wake");
    let handle = start(&dir);

    // No client ever connects: the accept loop sits in a blocking
    // accept(). shutdown() must wake it via the self-connection and
    // wait() must return promptly — this wedges forever (or until a
    // connection happens to arrive) if the wake-up is missing.
    let started = Instant::now();
    handle.shutdown();
    handle.wait();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown of an idle server took {elapsed:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
