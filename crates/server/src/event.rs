//! The daemon's one event loop: a single `qr-event` thread owns the
//! nonblocking listener, every connection and the daemon's state.
//!
//! One `poll(2)` readiness loop — declared directly against the stable
//! syscall ABI, so the crate stays dependency-free — watches the
//! [`Mailbox`]'s wake pipe, the listener and every connection, and
//! drives one [`Conn`] state machine per socket:
//!
//! * the listener accepts a bounded batch per readiness event; past
//!   `max_connections` a new peer gets a framed `Busy` and is dropped,
//!   and an accept error (EMFILE) leaves the listener out of the poll
//!   set for a moment rather than sleeping the loop;
//! * reads feed a [`MessageAssembler`] that incrementally reassembles
//!   length-prefixed wire messages (no blocking `read_exact`, no
//!   per-connection thread);
//! * complete requests are handled inline (registry/store reads and
//!   queue pushes, all microsecond-scale) except a QUERY its cache
//!   cannot answer, which replays instructions on the job pool;
//! * the mailbox carries that answer back, and every pool job's
//!   transitions (`Running`, `Completed`, `Failed`), which the loop
//!   applies to the [`LoopState`] it owns, folding in what the job
//!   counted: no other thread touches session state, the STATS counters
//!   or the metrics registry;
//! * responses are queued in a per-connection outbox and flushed as
//!   the socket accepts them, so a slow reader exerts backpressure on
//!   itself (reads pause past the high-water mark) without stalling
//!   anyone else.
//!
//! One loop is enough: what it runs inline takes microseconds, and the
//! jobs that hold a CPU for milliseconds run on the pool. Its readiness
//! order is the only interleaving of connection events.
//!
//! Fairness: each readiness event reads a bounded number of chunks and
//! accepts a bounded number of peers, so neither a firehose connection
//! nor a connection storm can monopolise the loop, and a byte-at-a-time
//! ("slow loris") peer costs one assembler feed per poll round, not a
//! parked OS thread.
//!
//! Shutdown: [`crate::server::request_shutdown`] sets the flag and
//! wakes the loop through the mailbox. The loop drops the listener, so
//! late clients are refused, stops reading, flushes pending responses,
//! waits for in-flight offloaded queries, and exits; a 30s deadline
//! bounds peers that never drain.

use crate::obs;
use crate::proto::{self, Endpoint, MessageAssembler, Request, Response};
use crate::registry::Transition;
use crate::server::{request_shutdown, LoopState};
use qr_common::{QrError, Result};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Parsed-but-unprocessed requests buffered per connection before the
/// loop stops reading from it (pipelining depth).
const INBOX_LIMIT: usize = 32;
/// Unsent response bytes per connection before the loop stops reading
/// new requests from it (write backpressure).
const OUTBOX_HIGH_WATER: usize = 1 << 20;
/// Read size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// `read(2)` calls per readiness event, bounding how long one noisy
/// connection can hold the loop.
const READ_ROUNDS: usize = 4;
/// `accept(2)` calls per listener readiness event, bounding how long a
/// connection storm can hold the loop.
const ACCEPT_ROUNDS: usize = 16;
/// How long the listener stays out of the poll set after an accept
/// error, so a persistent one (EMFILE with a peer still queued) neither
/// spins the loop nor delays the connections it already serves.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// How long the draining loop waits for peers to take their last
/// responses and offloaded queries to complete.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

// ---- poll(2) shim ----------------------------------------------------

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `struct pollfd` from `poll(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

// Declared directly (no libc crate): the layout and semantics of
// poll(2) are part of the stable unix syscall ABI on every platform
// this daemon builds for.
extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: std::ffi::c_int,
    ) -> std::ffi::c_int;
}

/// Blocks until a registered fd is ready or `timeout_ms` passes,
/// retrying `EINTR`. Returns the number of ready fds.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

// ---- transport -------------------------------------------------------

/// One stream socket of either family, unified: nonblocking on the
/// daemon's accepted end, blocking in [`crate::Client`].
pub(crate) trait NbStream: Read + Write + Send {
    /// The raw fd for the poll set.
    fn fd(&self) -> RawFd;
}

impl NbStream for std::net::TcpStream {
    fn fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

impl NbStream for UnixStream {
    fn fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// The daemon's listening socket, in nonblocking mode.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `endpoint`. A Unix socket file that refuses connections is
    /// stale (its server was killed) and is replaced; one that a live
    /// daemon answers is left to it.
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<Listener> {
        let fail = |why: &dyn std::fmt::Display| QrError::Execution {
            detail: format!("binding {}: {why}", endpoint.describe()),
        };
        let io = |e: std::io::Error| fail(&e);
        match endpoint {
            Endpoint::Unix(path) => {
                match UnixStream::connect(path) {
                    Ok(_) => return Err(fail(&"a running daemon already serves it")),
                    Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                        let _ = std::fs::remove_file(path);
                    }
                    Err(_) => {}
                }
                let listener = UnixListener::bind(path).map_err(io)?;
                listener.set_nonblocking(true).map_err(io)?;
                Ok(Listener::Unix(listener))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr).map_err(io)?;
                listener.set_nonblocking(true).map_err(io)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// The endpoint actually bound (resolves TCP port 0).
    pub(crate) fn local_endpoint(&self, requested: &Endpoint) -> Endpoint {
        match self {
            Listener::Unix(_) => requested.clone(),
            Listener::Tcp(listener) => match listener.local_addr() {
                Ok(addr) => Endpoint::Tcp(addr.to_string()),
                Err(_) => requested.clone(),
            },
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Listener::Unix(listener) => listener.as_raw_fd(),
            Listener::Tcp(listener) => listener.as_raw_fd(),
        }
    }

    /// Takes one waiting peer (`WouldBlock` when there is none), its
    /// stream switched to nonblocking mode.
    fn accept(&self) -> std::io::Result<Box<dyn NbStream>> {
        match self {
            Listener::Unix(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Box::new(stream))
            }
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Box::new(stream))
            }
        }
    }
}

// ---- mailbox ---------------------------------------------------------

/// What another thread tells the loop.
pub(crate) enum Post {
    /// A pool job's transition for session `id`.
    Job { id: u64, transition: Transition },
    /// An offloaded QUERY's outcome for connection `conn`, cached under
    /// session `id`'s `replay_id`, and what the query counted.
    Answer { conn: u64, id: u64, replay_id: u64, outcome: Result<Vec<u8>>, counted: qr_obs::Registry },
}

/// How other threads reach the loop parked in `poll`: pool workers post
/// job transitions and offloaded answers, shutdown just wakes it.
pub(crate) struct Mailbox {
    /// Posts the loop has not taken yet, in arrival order.
    posts: Mutex<Vec<Post>>,
    /// Write end of the wake pipe (a nonblocking socketpair; the read
    /// end sits first in the loop's poll set).
    wake_tx: UnixStream,
}

impl Mailbox {
    /// A mailbox and the read end of its wake pipe.
    pub(crate) fn new() -> std::io::Result<(Mailbox, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Mailbox { posts: Mutex::default(), wake_tx: tx }, rx))
    }

    /// Wakes the loop.
    pub(crate) fn wake(&self) {
        // One byte is enough; WouldBlock means a wake is already
        // pending, which is just as good.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Queues `post` for the loop and wakes it.
    pub(crate) fn post(&self, post: Post) {
        self.posts.lock().unwrap_or_else(PoisonError::into_inner).push(post);
        self.wake();
    }

    pub(crate) fn take(&self) -> Vec<Post> {
        std::mem::take(&mut *self.posts.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

// ---- per-connection state machine ------------------------------------

struct Conn {
    stream: Box<dyn NbStream>,
    assembler: MessageAssembler,
    /// Complete request payloads not yet dispatched.
    inbox: VecDeque<Vec<u8>>,
    /// Queued response bytes; `out_pos..` is still unsent.
    outbox: Vec<u8>,
    out_pos: usize,
    /// An offloaded request is running on the pool (its wire tag and
    /// start, for the latency recorded when its answer arrives); its
    /// response must precede any later request's, so dispatch pauses.
    in_flight: Option<(u8, Instant)>,
    close_after_flush: bool,
    peer_gone: bool,
    read_eof: bool,
}

impl Conn {
    fn new(stream: Box<dyn NbStream>) -> Conn {
        let mut outbox = Vec::with_capacity(64);
        let _ = proto::write_stream_header(&mut outbox);
        Conn {
            stream,
            assembler: MessageAssembler::new(),
            inbox: VecDeque::new(),
            outbox,
            out_pos: 0,
            in_flight: None,
            close_after_flush: false,
            peer_gone: false,
            read_eof: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    fn queue_response(&mut self, response: &Response) {
        // Writing into a Vec cannot fail; the only error path is the
        // oversize guard, answered structurally instead of hanging up
        // unframed.
        if proto::write_message(&mut self.outbox, &proto::encode_response(response)).is_err() {
            let err = Response::Error { message: "response exceeds the wire limit".into() };
            let _ = proto::write_message(&mut self.outbox, &proto::encode_response(&err));
        }
    }

    /// Writes as much of the outbox as the socket takes right now.
    fn try_flush(&mut self) {
        while self.out_pos < self.outbox.len() {
            match self.stream.write(&self.outbox[self.out_pos..]) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        if self.peer_gone || self.out_pos == self.outbox.len() {
            self.outbox.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 64 * 1024 {
            // Compact occasionally so a long-lived slow reader does
            // not pin every response it ever consumed.
            self.outbox.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    fn wants_read(&self, draining: bool) -> bool {
        !draining
            && !self.read_eof
            && !self.peer_gone
            && !self.close_after_flush
            && self.inbox.len() < INBOX_LIMIT
            && self.pending_out() < OUTBOX_HIGH_WATER
    }

    fn wants_write(&self) -> bool {
        !self.peer_gone && self.pending_out() > 0
    }

    /// True when the connection should be closed and forgotten.
    fn finished(&self, draining: bool) -> bool {
        if self.peer_gone {
            return true;
        }
        if self.in_flight.is_some() || self.pending_out() > 0 {
            return false;
        }
        self.close_after_flush || draining || (self.read_eof && self.inbox.is_empty())
    }
}

// ---- dispatch --------------------------------------------------------

/// Dispatches buffered requests in order until the inbox is empty or
/// an offloaded request blocks the pipeline, then flushes.
fn pump(conn_id: u64, conn: &mut Conn, state: &mut LoopState) {
    while conn.in_flight.is_none() && !conn.close_after_flush {
        let Some(payload) = conn.inbox.pop_front() else { break };
        match proto::decode_request(&payload) {
            Ok(request) => dispatch(conn_id, conn, request, state),
            Err(e) => conn.queue_response(&Response::Error { message: e.to_string() }),
        }
    }
    conn.try_flush();
}

fn dispatch(conn_id: u64, conn: &mut Conn, request: Request, state: &mut LoopState) {
    let (kind, start) = (request.tag(), Instant::now());
    let shutdown = matches!(request, Request::Shutdown);
    let Some(response) = state.handle_request(conn_id, request) else {
        // A QUERY cache miss went to the pool; its answer comes back
        // through the mailbox.
        conn.in_flight = Some((kind, start));
        return;
    };
    obs::request_handled(&mut state.metrics, kind, start);
    conn.queue_response(&response);
    if shutdown {
        conn.close_after_flush = true;
        request_shutdown(&state.shared);
    }
}

/// Reads up to [`READ_ROUNDS`] chunks, feeding the assembler and
/// dispatching completed requests.
fn handle_readable(conn_id: u64, conn: &mut Conn, state: &mut LoopState) {
    let mut scratch = [0u8; READ_CHUNK];
    for _ in 0..READ_ROUNDS {
        if conn.inbox.len() >= INBOX_LIMIT || conn.pending_out() >= OUTBOX_HIGH_WATER {
            break;
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.read_eof = true;
                if conn.assembler.header_done() && !conn.assembler.at_message_boundary() {
                    // The peer died mid-message: a torn stream, not a
                    // clean close.
                    conn.queue_response(&Response::Error {
                        message: "truncated message on the wire".into(),
                    });
                    conn.close_after_flush = true;
                }
                break;
            }
            Ok(n) => {
                let mut complete = Vec::new();
                match conn.assembler.feed(&scratch[..n], &mut complete) {
                    Ok(()) => conn.inbox.extend(complete),
                    Err(e) => {
                        // Poisoned stream. After the handshake, answer
                        // with a structured error (best effort) and
                        // hang up; a garbage handshake just closes.
                        conn.inbox.extend(complete);
                        if conn.assembler.header_done() {
                            conn.queue_response(&Response::Error { message: e.to_string() });
                        }
                        conn.close_after_flush = true;
                        break;
                    }
                }
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_gone = true;
                break;
            }
        }
    }
    pump(conn_id, conn, state);
}

// ---- the loop --------------------------------------------------------

fn drain_wake_pipe(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    let mut rx = wake_rx;
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// Tells an over-limit peer the daemon is saturated: a best-effort
/// single nonblocking write of the stream header plus a framed `Busy`,
/// then the connection drops. The peer sees a structured refusal, not
/// a silent hangup.
fn refuse_overloaded(mut stream: Box<dyn NbStream>, busy: &Response) {
    let mut bytes = Vec::with_capacity(32);
    let _ = proto::write_stream_header(&mut bytes);
    let _ = proto::write_message(&mut bytes, &proto::encode_response(busy));
    let _ = stream.write(&bytes);
}

/// Accepts up to [`ACCEPT_ROUNDS`] waiting peers into `conns`. After an
/// accept error, returns when the listener may be polled again.
fn accept_ready(
    listener: &Listener,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
    state: &mut LoopState,
) -> Option<Instant> {
    for _ in 0..ACCEPT_ROUNDS {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                // Accept failures (EMFILE, transient resets) are
                // surfaced — counted and logged with the endpoint —
                // not silently swallowed; the backoff keeps a
                // persistent error from spinning the loop.
                obs::accept_error(&mut state.metrics);
                eprintln!("quickrecd: accept on {} failed: {e}", state.endpoint.describe());
                return Some(Instant::now() + ACCEPT_BACKOFF);
            }
        };
        obs::connections(&mut state.metrics).inc();
        // Over the connection cap: refuse with a structured Busy
        // instead of dropping silently. The open gauge is never
        // incremented on this path, so it stays balanced.
        if state.shared.open_connections.load(Ordering::SeqCst) >= state.max_connections {
            refuse_overloaded(stream, &state.busy(state.pool.queued()));
            continue;
        }
        state.shared.open_connections.fetch_add(1, Ordering::SeqCst);
        let mut conn = Conn::new(stream);
        conn.try_flush(); // start the handshake
        conns.insert(*next_id, conn);
        *next_id += 1;
    }
    None
}

/// The event loop: serves the listener, every connection and the
/// mailbox until shutdown drains them.
pub(crate) fn run(listener: Listener, wake_rx: UnixStream, mut state: LoopState) {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<u64> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    let mut accept_paused_until: Option<Instant> = None;

    loop {
        if drain_started.is_none() && state.shared.shutdown.load(Ordering::SeqCst) {
            // Closing the listener refuses late clients.
            listener = None;
            drain_started = Some(Instant::now());
        }
        let draining = drain_started.is_some();
        let drain_expired = drain_started.is_some_and(|t| t.elapsed() >= DRAIN_DEADLINE);

        conns.retain(|_, conn| {
            let done = conn.finished(draining) || drain_expired;
            if done {
                state.shared.open_connections.fetch_sub(1, Ordering::SeqCst);
            }
            !done
        });
        if draining && conns.is_empty() {
            return;
        }

        // Poll: wake pipe first, then the listener (unless an accept
        // error paused it), then every connection. A connection with no
        // read/write interest still surfaces ERR/HUP/NVAL.
        if accept_paused_until.is_some_and(|until| until <= Instant::now()) {
            accept_paused_until = None;
        }
        let listening = listener.as_ref().filter(|_| accept_paused_until.is_none());
        pollfds.clear();
        slots.clear();
        pollfds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        if let Some(listener) = listening {
            pollfds.push(PollFd { fd: listener.fd(), events: POLLIN, revents: 0 });
        }
        let first_conn = pollfds.len();
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if conn.wants_read(draining) {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd { fd: conn.stream.fd(), events, revents: 0 });
            slots.push(id);
        }
        let mut timeout_ms = if draining { 50 } else { 500 };
        if let Some(until) = accept_paused_until {
            let pause_ms = until.saturating_duration_since(Instant::now()).as_millis() + 1;
            timeout_ms = timeout_ms.min(pause_ms as i32);
        }
        if poll_fds(&mut pollfds, timeout_ms).is_err() {
            // poll(2) failing outright (ENOMEM) is not actionable
            // per-connection; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        if pollfds[0].revents != 0 {
            drain_wake_pipe(&wake_rx);
            // Apply the pool's posts before reading requests, so a JOBS
            // answered this round shows every job that finished before it.
            for post in state.shared.mailbox.take() {
                match post {
                    Post::Job { id, transition } => {
                        state.registry.apply(id, transition, &mut state.metrics)
                    }
                    Post::Answer { conn: conn_id, id, replay_id, outcome, counted } => {
                        let response = state.answered(id, replay_id, outcome, counted);
                        if let Some(conn) = conns.get_mut(&conn_id) {
                            if let Some((kind, start)) = conn.in_flight.take() {
                                obs::request_handled(&mut state.metrics, kind, start);
                            }
                            conn.queue_response(&response);
                            pump(conn_id, conn, &mut state);
                        }
                    }
                }
            }
        }
        if let Some(listener) = listening.filter(|_| pollfds[1].revents != 0) {
            accept_paused_until = accept_ready(listener, &mut conns, &mut next_id, &mut state);
        }
        let mut ready = 0usize;
        for (i, &id) in slots.iter().enumerate() {
            let pfd = pollfds[first_conn + i];
            if pfd.revents == 0 {
                continue;
            }
            ready += 1;
            let Some(conn) = conns.get_mut(&id) else { continue };
            if pfd.revents & (POLLERR | POLLNVAL) != 0 {
                conn.peer_gone = true;
                continue;
            }
            if pfd.revents & POLLIN != 0 {
                handle_readable(id, conn, &mut state);
            } else if pfd.revents & POLLHUP != 0 && conn.pending_out() == 0 {
                // Hung up with nothing left to read or flush.
                conn.peer_gone = true;
            }
            if pfd.revents & POLLOUT != 0 {
                conn.try_flush();
            }
        }
        obs::event_wakeup(&mut state.metrics, ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_shim_times_out_and_reports_readiness() {
        // Timeout path: nothing readable.
        let (a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd { fd: a.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        // Readiness path: a byte arrives.
        (&b).write_all(&[7]).unwrap();
        let mut fds = [PollFd { fd: a.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn conn_outbox_flushes_incrementally_and_compacts() {
        let (ours, theirs) = UnixStream::pair().unwrap();
        ours.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(Box::new(ours));
        // Queue well past the socket buffer; flush must stop at
        // WouldBlock without losing bytes or marking the peer gone.
        let answer = Response::QueryAnswer { cached: false, payload: vec![0xab; 256 * 1024] };
        for _ in 0..8 {
            conn.queue_response(&answer);
        }
        let total = conn.outbox.len();
        conn.try_flush();
        assert!(!conn.peer_gone);
        assert!(conn.pending_out() > 0, "socket buffer cannot hold 2 MiB");
        assert!(conn.wants_write());
        // Drain the peer side; alternate flushes until empty.
        let mut sunk = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        theirs.set_nonblocking(true).unwrap();
        let mut rx = &theirs;
        while conn.pending_out() > 0 || sunk < total {
            match rx.read(&mut buf) {
                Ok(n) => sunk += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("peer read: {e}"),
            }
            conn.try_flush();
            assert!(!conn.peer_gone);
        }
        assert_eq!(sunk, total, "every queued byte reached the peer exactly once");
        assert!(!conn.wants_write());
    }

    #[test]
    fn conn_backpressure_gates_read_interest() {
        let (ours, _theirs) = UnixStream::pair().unwrap();
        ours.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(Box::new(ours));
        conn.try_flush();
        assert!(conn.wants_read(false));
        assert!(!conn.wants_read(true), "draining stops reads");
        for _ in 0..INBOX_LIMIT {
            conn.inbox.push_back(Vec::new());
        }
        assert!(!conn.wants_read(false), "a full inbox stops reads");
        conn.inbox.clear();
        conn.outbox = vec![0; OUTBOX_HIGH_WATER + 1];
        conn.out_pos = 0;
        assert!(!conn.wants_read(false), "write backpressure stops reads");
    }
}
