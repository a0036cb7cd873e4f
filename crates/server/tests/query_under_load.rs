//! A QUERY retry the daemon can answer from its idempotence cache is
//! answered on the event loop, even while every pool worker and queue
//! slot is taken: the load that makes clients retry must not refuse it
//! `Busy`. (Its own test binary: the exact query counters that
//! `query_idempotence.rs` asserts are process-wide metrics.)

use qr_replay::ReplayQuery;
use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig};
use quickrec_core::{Encoding, OrderMode};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qr-load-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A guest program that counts `{iterations}` down to zero and exits 0:
/// two instructions per iteration, one thread.
fn spin(iterations: u32) -> Request {
    let source = format!(
        ".text\nmain:\n    movi r7, {iterations}\nspin:\n    addi r7, r7, -1\n    \
         bnez r7, spin\n    movi r1, 0\n    movi r0, 1\n    syscall\n"
    );
    Request::SubmitProgram {
        name: format!("spin{iterations}"),
        source,
        cores: 1,
        encoding: Encoding::Delta,
        order: OrderMode::TotalOrder,
    }
}

fn submitted(response: Response) -> u64 {
    match response {
        Response::Submitted { id } => id,
        other => panic!("submission not accepted: {other:?}"),
    }
}

#[test]
fn a_cached_retry_is_answered_while_the_pool_is_saturated() {
    let dir = scratch("saturated");
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        store_root: dir.join("store"),
        max_connections: 256,
    };
    let handle = Server::start(&endpoint, &config).expect("start server");
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    let id = submitted(client.call(&spin(1000)).expect("submit"));
    let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
    assert_eq!(job.state, JobState::Done, "{:?}", job.state);
    let query = ReplayQuery::ReverseStep { events: 1 };
    let (cached, answer) = client.query(id, query, false, 0, 9).expect("first query");
    assert!(!cached);

    // Saturate the pool: the one worker runs a program that spins for
    // seconds, and a second submission takes the one queue slot.
    let long = submitted(client.call(&spin(4_000_000)).expect("submit long"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let Response::JobList(jobs) = client.call(&Request::Jobs).expect("jobs") else {
            panic!("jobs refused");
        };
        if jobs.iter().any(|j| j.id == long && j.state == JobState::Running) {
            break;
        }
        assert!(Instant::now() < deadline, "session {long} never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = submitted(client.call(&spin(1000)).expect("submit queued"));

    // The retry of an answer the daemon holds does not need the pool.
    let (cached, retry) = client.query(id, query, false, 0, 9).expect("cached retry");
    assert!(cached, "a cached retry must be answered under load");
    assert_eq!(retry, answer);
    // A query that does need it is still refused, so the pool was full
    // throughout.
    let fresh = Request::Query { id, query, dry_run: false, max_events: 0, replay_id: 10 };
    match client.call(&fresh).expect("fresh query") {
        Response::Busy { .. } => {}
        other => panic!("a new replay id must wait for the pool: {other:?}"),
    }

    for id in [long, queued] {
        let job = client.wait_for(id, Duration::from_secs(300)).expect("wait");
        assert_eq!(job.state, JobState::Done, "session {id}: {:?}", job.state);
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("shutdown: {other:?}"),
    }
    drop(client);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
