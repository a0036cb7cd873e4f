//! The event-driven nonblocking connection layer.
//!
//! The accept loop hands every accepted socket (switched to
//! nonblocking mode) to one of N event workers via a [`Router`]
//! mailbox. Each worker multiplexes its connections over a single
//! `poll(2)` readiness loop — declared directly against the stable
//! syscall ABI, so the crate stays dependency-free — and drives one
//! [`Conn`] state machine per socket:
//!
//! * reads feed a [`MessageAssembler`] that incrementally reassembles
//!   length-prefixed wire messages (no blocking `read_exact`, no
//!   per-connection thread);
//! * complete requests are handled inline (they are registry/store
//!   reads and queue pushes, all microsecond-scale) except QUERY,
//!   which replays instructions and is offloaded to the job
//!   [`WorkerPool`], its response posted back through the mailbox;
//! * responses are queued in a per-connection outbox and flushed as
//!   the socket accepts them, so a slow reader exerts backpressure on
//!   itself (reads pause past the high-water mark) without stalling
//!   anyone else.
//!
//! Fairness: each readiness event reads a bounded number of chunks, so
//! a firehose connection cannot monopolise its worker, and a byte-at-
//! a-time ("slow loris") peer costs one assembler feed per poll round,
//! not a parked OS thread.
//!
//! Shutdown: workers observe the shutdown flag (the accept loop and
//! [`crate::server::request_shutdown`] wake them through the mailbox),
//! stop reading, flush pending responses, wait for in-flight offloaded
//! queries, and exit; a 30s deadline bounds peers that never drain.

use crate::pool::WorkerPool;
use crate::proto::{self, MessageAssembler, Request, Response};
use crate::server::{busy, handle_request, request_shutdown, Shared};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Parsed-but-unprocessed requests buffered per connection before the
/// worker stops reading from it (pipelining depth).
const INBOX_LIMIT: usize = 32;
/// Unsent response bytes per connection before the worker stops
/// reading new requests from it (write backpressure).
const OUTBOX_HIGH_WATER: usize = 1 << 20;
/// Read size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// `read(2)` calls per readiness event, bounding how long one noisy
/// connection can hold its worker.
const READ_ROUNDS: usize = 4;
/// How long a draining worker waits for peers to take their last
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

// ---- router ----------------------------------------------------------

/// What the accept loop / pool workers hand an event worker.
#[derive(Default)]
struct Inbound {
    adopted: Vec<Box<dyn NbStream>>,
    /// (connection id, encoded response payload) for completed
    /// offloaded requests.
    completions: Vec<(u64, Vec<u8>)>,
}

struct Mailbox {
    queue: Mutex<Inbound>,
    /// Write end of the worker's wake pipe (a nonblocking socketpair;
    /// the read end sits in the worker's poll set).
    wake_tx: UnixStream,
}

impl Mailbox {
    fn wake(&self) {
        // One byte is enough; WouldBlock means a wake is already
        // pending, which is just as good.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// Routes accepted connections and offload completions to the event
/// workers.
pub(crate) struct Router {
    mailboxes: Vec<Mailbox>,
    next: AtomicUsize,
}

impl Router {
    /// Builds a router with `workers` mailboxes; returns the wake-pipe
    /// read ends, one per worker, in worker order.
    pub(crate) fn new(workers: usize) -> std::io::Result<(Router, Vec<UnixStream>)> {
        let mut mailboxes = Vec::new();
        let mut wake_rxs = Vec::new();
        for _ in 0..workers.max(1) {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            mailboxes.push(Mailbox { queue: Mutex::new(Inbound::default()), wake_tx: tx });
            wake_rxs.push(rx);
        }
        Ok((Router { mailboxes, next: AtomicUsize::new(0) }, wake_rxs))
    }

    /// Hands an accepted stream to the next worker (round robin).
    pub(crate) fn adopt(&self, stream: Box<dyn NbStream>) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.mailboxes.len();
        let mailbox = &self.mailboxes[idx];
        mailbox.queue.lock().unwrap_or_else(PoisonError::into_inner).adopted.push(stream);
        mailbox.wake();
    }

    /// Posts an offloaded request's encoded response back to the
    /// worker owning connection `conn`.
    fn complete(&self, worker: usize, conn: u64, payload: Vec<u8>) {
        let mailbox = &self.mailboxes[worker];
        mailbox
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .completions
            .push((conn, payload));
        mailbox.wake();
    }

    /// Wakes every worker (shutdown).
    pub(crate) fn wake_all(&self) {
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
    }

    fn take_inbound(&self, worker: usize) -> Inbound {
        let mut queue =
            self.mailboxes[worker].queue.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *queue)
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
    /// An offloaded request is running on the pool; its response must
    /// precede any later request's, so dispatch pauses.
    in_flight: bool,
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
            in_flight: false,
            close_after_flush: false,
            peer_gone: false,
            read_eof: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    fn queue_payload(&mut self, payload: &[u8]) {
        // Writing into a Vec cannot fail; the only error path is the
        // oversize guard, answered structurally instead of hanging up
        // unframed.
        if proto::write_message(&mut self.outbox, payload).is_err() {
            let err = Response::Error { message: "response exceeds the wire limit".into() };
            let _ = proto::write_message(&mut self.outbox, &proto::encode_response(&err));
        }
    }

    fn queue_response(&mut self, response: &Response) {
        self.queue_payload(&proto::encode_response(response));
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
        if self.in_flight || self.pending_out() > 0 {
            return false;
        }
        self.close_after_flush || draining || (self.read_eof && self.inbox.is_empty())
    }
}

// ---- dispatch --------------------------------------------------------

struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    pool: &'a Arc<WorkerPool>,
    worker: usize,
}

/// Dispatches buffered requests in order until the inbox is empty or
/// an offloaded request blocks the pipeline, then flushes.
fn pump(conn_id: u64, conn: &mut Conn, ctx: &Ctx) {
    while !conn.in_flight && !conn.close_after_flush {
        let Some(payload) = conn.inbox.pop_front() else { break };
        match proto::decode_request(&payload) {
            Ok(request) => dispatch(conn_id, conn, request, ctx),
            Err(e) => conn.queue_response(&Response::Error { message: e.to_string() }),
        }
    }
    conn.try_flush();
}

fn dispatch(conn_id: u64, conn: &mut Conn, request: Request, ctx: &Ctx) {
    let (kind, label) = (request.tag(), request.label());
    let start = crate::obs::clock();
    match request {
        Request::Shutdown => {
            let _span = qr_obs::trace::global().span(label, 0);
            conn.queue_response(&Response::ShuttingDown);
            crate::obs::request_handled(kind, start);
            conn.close_after_flush = true;
            request_shutdown(ctx.shared);
        }
        request @ Request::Query { .. } => {
            // QUERY replays instructions — far too slow for the event
            // loop. Offload it to the job pool; the response comes back
            // through the mailbox. A full queue answers Busy, the same
            // backpressure submissions get.
            let shared = Arc::clone(ctx.shared);
            let pool = Arc::clone(ctx.pool);
            let worker = ctx.worker;
            let submitted = ctx.pool.try_submit(Box::new(move || {
                let _span = qr_obs::trace::global().span(label, 0);
                let response = handle_request(request, &shared, &pool);
                crate::obs::request_handled(kind, start);
                shared.router.complete(worker, conn_id, proto::encode_response(&response));
            }));
            match submitted {
                Ok(()) => conn.in_flight = true,
                Err((_task, queued)) => conn.queue_response(&busy(ctx.shared, queued)),
            }
        }
        request => {
            // Everything else is a registry/store read or a queue push:
            // microseconds, handled inline on the event worker.
            let _span = qr_obs::trace::global().span(label, 0);
            let response = handle_request(request, ctx.shared, ctx.pool);
            crate::obs::request_handled(kind, start);
            conn.queue_response(&response);
        }
    }
}

/// Reads up to [`READ_ROUNDS`] chunks, feeding the assembler and
/// dispatching completed requests.
fn handle_readable(conn_id: u64, conn: &mut Conn, ctx: &Ctx) {
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
    pump(conn_id, conn, ctx);
}

// ---- the worker loop -------------------------------------------------

fn drain_wake_pipe(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    let mut rx = wake_rx;
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

fn close_accounting(shared: &Shared) {
    shared.open_connections.fetch_sub(1, Ordering::SeqCst);
    crate::obs::connection_delta(-1);
}

/// One event worker: multiplexes its share of the connections until
/// shutdown drains them.
pub(crate) fn worker_loop(
    worker: usize,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
) {
    let ctx = Ctx { shared: &shared, pool: &pool, worker };
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<u64> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // New connections and offload completions.
        let inbound = shared.router.take_inbound(worker);
        for stream in inbound.adopted {
            if shared.shutdown.load(Ordering::SeqCst) {
                // Adopted after shutdown won the race: close, keeping
                // the accept loop's accounting balanced.
                close_accounting(&shared);
                continue;
            }
            let id = next_id;
            next_id += 1;
            let mut conn = Conn::new(stream);
            conn.try_flush(); // start the handshake
            crate::obs::event_adopted();
            conns.insert(id, conn);
        }
        for (id, payload) in inbound.completions {
            if let Some(conn) = conns.get_mut(&id) {
                conn.in_flight = false;
                conn.queue_payload(&payload);
                pump(id, conn, &ctx);
            }
        }

        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
        }
        let drain_expired = drain_deadline.is_some_and(|d| Instant::now() >= d);

        conns.retain(|_, conn| {
            let done = conn.finished(draining) || drain_expired;
            if done {
                close_accounting(&shared);
            }
            !done
        });
        if draining && conns.is_empty() {
            return;
        }

        // Poll: wake pipe first, then every connection. A connection
        // with no read/write interest still surfaces ERR/HUP/NVAL.
        pollfds.clear();
        slots.clear();
        pollfds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
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
        let timeout_ms = if draining { 50 } else { 500 };
        if poll_fds(&mut pollfds, timeout_ms).is_err() {
            // poll(2) failing outright (ENOMEM) is not actionable
            // per-connection; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        crate::obs::event_wakeup();
        if pollfds[0].revents != 0 {
            drain_wake_pipe(&wake_rx);
        }
        let mut ready = 0usize;
        for (i, &id) in slots.iter().enumerate() {
            let pfd = pollfds[i + 1];
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
                handle_readable(id, conn, &ctx);
            } else if pfd.revents & POLLHUP != 0 && conn.pending_out() == 0 {
                // Hung up with nothing left to read or flush.
                conn.peer_gone = true;
            }
            if pfd.revents & POLLOUT != 0 {
                conn.try_flush();
            }
        }
        crate::obs::event_events(ready);
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
        let payload = vec![0xabu8; 256 * 1024];
        for _ in 0..8 {
            conn.queue_payload(&payload);
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
