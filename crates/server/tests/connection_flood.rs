//! Regression gates for the event-driven connection layer: a flood of
//! connections far beyond the worker count is served without
//! per-connection threads and with balanced connection accounting, a
//! connection past `max_connections` is refused at accept, and
//! byte-at-a-time ("slow loris") peers cannot starve other clients.

use qr_server::proto::{self, Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-server-flood-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn submit(name: &str) -> Request {
    Request::SubmitWorkload {
        name: name.to_string(),
        workload: "fft".to_string(),
        threads: 2,
        scale: Scale::Test,
        encoding: Encoding::Delta,
        order: OrderMode::TotalOrder,
    }
}

/// The daemon's first message to a raw `stream` (`None`: it hung up or
/// fell silent first), reassembled by the reader both ends really run.
fn first_message(stream: &mut UnixStream) -> qr_common::Result<Option<Vec<u8>>> {
    let mut assembler = proto::MessageAssembler::new();
    let (mut messages, mut buf) = (Vec::new(), [0u8; 512]);
    while messages.is_empty() {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Ok(None),
            Ok(n) => assembler.feed(&buf[..n], &mut messages)?,
        }
    }
    Ok(messages.pop())
}

/// Threads currently alive in this process (the daemon runs
/// in-process, so growth while connections are open is daemon growth).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |entries| entries.count())
}

/// Polls until the server's open-connection gauge drains to zero.
fn assert_connections_drain(handle: &qr_server::ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = handle.open_connections();
        if open == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open-connections gauge stuck at {open} after every client hung up"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn connection_flood_gets_responses_without_thread_per_connection() {
    const CONNS: usize = 48;
    let dir = scratch("flood");
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    // One job worker, one queue slot: a 48-submission burst must
    // overflow into Busy, never into a hang or an unframed error. The
    // connection cap is exactly the fleet, so connection 49 is over it.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        store_root: dir.join("store"),
        max_connections: CONNS,
    };
    let handle = Server::start(&endpoint, &config).expect("start server");

    let before = thread_count();
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|i| {
            Client::connect_with_retry(&endpoint, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("client {i}: {e}"))
        })
        .collect();
    // Every connection is alive and multiplexed concurrently.
    for (i, client) in clients.iter_mut().enumerate() {
        client.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
    }
    let during = thread_count();
    assert!(
        during < before + 8,
        "thread count grew {before} -> {during} with {CONNS} open connections: \
         that is thread-per-connection, not an event loop"
    );

    // One more connection is refused at accept: a framed Busy when the
    // daemon's best-effort write lands, a hang-up otherwise — promptly,
    // and never an answer to the request.
    let mut extra = UnixStream::connect(dir.join("qd.sock")).expect("listener still accepts");
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let refused_at = Instant::now();
    let _ = proto::write_stream_header(&mut extra).and_then(|()| {
        proto::write_message(&mut extra, &proto::encode_request(&Request::Ping))
    });
    let answer = first_message(&mut extra);
    assert!(
        refused_at.elapsed() < Duration::from_secs(5),
        "connection {} past max_connections={CONNS} hung instead of being refused",
        CONNS + 1
    );
    if let Ok(Some(payload)) = answer {
        match proto::decode_response(&payload) {
            Ok(Response::Busy { .. }) => {}
            other => panic!("over-limit connection was answered {other:?}, not refused"),
        }
    }

    // Burst one submission per connection: every client gets a framed
    // answer, and the overflow is a clean Busy.
    let mut accepted = Vec::new();
    let mut busy = 0usize;
    for (i, client) in clients.iter_mut().enumerate() {
        match client.call(&submit(&format!("flood-{i}"))).expect("submit response") {
            Response::Submitted { id } => accepted.push(id),
            Response::Busy { .. } => busy += 1,
            other => panic!("client {i}: unexpected response {other:?}"),
        }
    }
    assert_eq!(accepted.len() + busy, CONNS);
    assert!(busy > 0, "a {CONNS}-burst against a 1-deep queue must see Busy");
    assert!(!accepted.is_empty(), "some submissions must get through");

    // Accepted jobs complete while the other connections stay open.
    let mut waiter = clients.pop().expect("a client");
    for &id in &accepted {
        let job = waiter.wait_for(id, Duration::from_secs(120)).expect("wait");
        assert_eq!(job.state, JobState::Done, "session {id}: {:?}", job.state);
    }

    // Hanging up everywhere drains the gauge to exactly zero: adopt
    // and close accounting balances on every path.
    drop(clients);
    drop(waiter);
    assert_connections_drain(&handle);

    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_loris_writers_do_not_starve_other_clients() {
    const LORIS: usize = 16;
    let dir = scratch("loris");
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let socket = dir.join("qd.sock");
    // A single event worker: the starvation gate has no second loop to
    // hide behind.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        store_root: dir.join("store"),
        max_connections: 256,
    };
    let handle = Server::start(&endpoint, &config).expect("start server");
    let mut probe =
        Client::connect_with_retry(&endpoint, Duration::from_secs(5)).expect("probe client");

    // The full byte sequence a well-behaved client would send for a
    // handshake plus one PING, dripped one byte at a time instead.
    let mut drip = Vec::new();
    proto::write_stream_header(&mut drip).expect("header bytes");
    proto::write_message(&mut drip, &proto::encode_request(&Request::Ping))
        .expect("ping bytes");

    let mut loris: Vec<UnixStream> = (0..LORIS)
        .map(|i| UnixStream::connect(&socket).unwrap_or_else(|e| panic!("loris {i}: {e}")))
        .collect();
    for cut in 0..drip.len() {
        for stream in &mut loris {
            stream.write_all(&drip[cut..=cut]).expect("drip one byte");
        }
        // Between every byte sweep the server answers a whole request
        // from someone else: torn streams cost it nothing but buffer
        // space.
        let started = Instant::now();
        probe.ping().expect("probe ping while loris streams drip");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "probe starved behind {LORIS} slow-loris connections"
        );
    }

    // Every fully-dripped stream still gets its handshake and Pong.
    for (i, mut stream) in loris.into_iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let payload = first_message(&mut stream)
            .unwrap_or_else(|e| panic!("loris {i} read: {e}"))
            .unwrap_or_else(|| panic!("loris {i}: server hung up before answering"));
        match proto::decode_response(&payload) {
            Ok(Response::Pong) => {}
            other => panic!("loris {i}: {other:?}"),
        }
    }

    drop(probe);
    assert_connections_drain(&handle);
    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
