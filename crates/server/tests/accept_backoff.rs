//! An accept error must not slow the connections the daemon already
//! serves. The error here is EMFILE: the process is out of file
//! descriptors while a peer waits in the listener's backlog, so the
//! listener stays readable and every accept fails. The event loop takes
//! the listener out of its poll set for a moment instead of sleeping,
//! keeps answering its open connections at full speed, and accepts again
//! once descriptors free up.
//!
//! The test lowers the process's descriptor limit, so it lives alone in
//! this binary.

#![cfg(target_os = "linux")]

use qr_server::proto::Endpoint;
use qr_server::{Client, Server, ServerConfig};
use std::fs::File;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// `struct rlimit` from `getrlimit(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: std::ffi::c_int = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: std::ffi::c_int, rlim: *mut Rlimit) -> std::ffi::c_int;
    fn setrlimit(resource: std::ffi::c_int, rlim: *const Rlimit) -> std::ffi::c_int;
}

fn nofile_limit() -> Rlimit {
    let mut lim = Rlimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0, "getrlimit");
    lim
}

fn set_nofile_limit(lim: Rlimit) {
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

/// The daemon's `qr_server_accept_errors_total`, read over `client`.
fn accept_errors(client: &mut Client) -> f64 {
    let text = client.metrics().expect("metrics");
    text.lines()
        .find_map(|line| line.strip_prefix("qr_server_accept_errors_total "))
        .map_or(0.0, |value| value.parse().expect("sample value"))
}

#[test]
fn failing_accepts_do_not_slow_open_connections() {
    let dir = std::env::temp_dir().join(format!("qr-backoff-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("qd.sock");
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        store_root: dir.join("store"),
        max_connections: 4096,
    };
    let handle = Server::start(&Endpoint::Unix(socket.clone()), &config).expect("start server");
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    client.ping().expect("ping");

    // Descriptors held in reserve: closing one lets exactly one more
    // peer connect once the process is out of them.
    let mut reserve: Vec<File> =
        (0..8).map(|_| File::open("/dev/null").expect("open /dev/null")).collect();
    let highest_fd = std::fs::read_dir("/proc/self/fd")
        .expect("list fds")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .expect("some fd is open");
    let original = nofile_limit();
    set_nofile_limit(Rlimit { cur: highest_fd + 1 + 32, max: original.max });

    // Exhaust the descriptors: each peer takes one here and, once
    // accepted, one in the daemon.
    let mut peers = Vec::new();
    loop {
        match UnixStream::connect(&socket) {
            Ok(peer) => peers.push(peer),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("connect: {e}"),
        }
        assert!(peers.len() < 1000, "the lowered descriptor limit never bit");
    }
    // Queue a peer the daemon has no descriptor to accept.
    let deadline = Instant::now() + Duration::from_secs(5);
    while accept_errors(&mut client) == 0.0 {
        assert!(Instant::now() < deadline, "the daemon never failed an accept");
        if let Some(file) = reserve.pop() {
            drop(file);
            if let Ok(peer) = UnixStream::connect(&socket) {
                peers.push(peer);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Accepts keep failing while the open connection is served. A loop
    // that slept through each failure would answer one ping per backoff.
    let errors_before = accept_errors(&mut client);
    let started = Instant::now();
    let mut pings = 0u32;
    while started.elapsed() < Duration::from_millis(300) {
        client.ping().expect("ping while accepts fail");
        pings += 1;
    }
    assert!(accept_errors(&mut client) > errors_before, "accepts stopped failing during the pings");
    assert!(pings >= 100, "only {pings} pings in 300 ms while accepts failed");

    // With descriptors available again the daemon accepts new peers.
    set_nofile_limit(original);
    let mut late = Client::connect(handle.endpoint()).expect("connect after the limit is lifted");
    late.ping().expect("ping after the limit is lifted");

    drop((late, client, peers, reserve));
    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
