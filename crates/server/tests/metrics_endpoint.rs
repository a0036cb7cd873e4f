//! The METRICS wire request: a live daemon renders its `qr-obs`
//! registry as parseable text exposition covering the recorder, store
//! and server metric families. Beside it, the socket's lifecycle:
//! shutdown wakes the event loop promptly (no sleep-polling anywhere on
//! the path) whatever became of the socket file, a second daemon cannot
//! take a live daemon's socket, and a stale one is reclaimed.

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

/// Shuts `handle` down and fails unless `wait()` returns promptly.
fn shutdown_promptly(handle: qr_server::ServerHandle, what: &str) {
    let started = Instant::now();
    handle.shutdown();
    handle.wait();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "shutdown of {what} took {elapsed:?}");
}

#[test]
fn shutdown_wakes_an_idle_event_loop_promptly() {
    let dir = scratch("wake");
    let handle = start(&dir);

    // No client ever connects: the event loop sits in poll(2) with
    // nothing ready. shutdown() must wake it through its mailbox and
    // wait() must return promptly — this wedges (or waits out a poll
    // timeout) if the wake-up is missing.
    shutdown_promptly(handle, "an idle server");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_completes_after_the_socket_file_is_unlinked() {
    let dir = scratch("unlinked");
    let handle = start(&dir);
    // A served ping proves the daemon is up and waiting for the next
    // peer before its socket file goes. Then nothing can dial the daemon
    // any more, and shutdown must not need to: the listening fd outlives
    // its file.
    Client::connect(handle.endpoint()).and_then(|mut c| c.ping()).expect("ping");
    std::fs::remove_file(dir.join("qd.sock")).expect("unlink the socket file");
    shutdown_promptly(handle, "a server whose socket file was unlinked");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_second_daemon_cannot_take_a_live_daemons_socket() {
    let dir = scratch("second");
    let handle = start(&dir);
    let socket = dir.join("qd.sock");

    let second = ServerConfig::new(1, dir.join("store-2"));
    let err = match Server::start(&Endpoint::Unix(socket.clone()), &second) {
        Ok(_) => panic!("a second daemon started on a live daemon's socket"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains(&socket.display().to_string()), "error does not name the path: {err}");

    // The first daemon still owns its socket: it answers and shuts down.
    let mut client = Client::connect(handle.endpoint()).expect("connect to the first daemon");
    client.ping().expect("the first daemon still answers");
    drop(client);
    shutdown_promptly(handle, "the first daemon");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_socket_file_is_reclaimed() {
    let dir = scratch("stale");
    let socket = dir.join("qd.sock");
    // What a killed server leaves behind: a socket file nobody listens on.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("bind the stale listener"));
    assert!(socket.exists(), "dropping a listener leaves its socket file");

    let handle = start(&dir);
    let mut client = Client::connect(handle.endpoint()).expect("connect over the reclaimed path");
    client.ping().expect("ping");
    drop(client);
    shutdown_promptly(handle, "a server on a reclaimed path");
    std::fs::remove_dir_all(&dir).ok();
}
