//! The `quickrecd` daemon: accept loop, job execution, shutdown.
//!
//! The accept loop hands every connection to the event-driven
//! nonblocking layer ([`crate::event`]): N event workers each
//! multiplex thousands of connections over a `poll(2)` readiness loop,
//! speaking the wire protocol ([`crate::proto`]) through incremental
//! per-connection state machines. RECORD/REPLAY/VERIFY/RACES jobs (and
//! offloaded QUERY requests) run on the bounded [`WorkerPool`] (a full
//! queue answers `Busy` — backpressure instead of unbounded
//! buffering); sessions live in the sharded [`Registry`]; recordings
//! land in a `qr_store::RecordingStore`.
//!
//! Shutdown (a `SHUTDOWN` message or [`ServerHandle::shutdown`]) stops
//! the accept loop, drains open connections and every queued job, then
//! joins the workers. Because the store commits entries by staging +
//! rename with the manifest written last, there is no instant at which
//! killing or draining the server can leave a torn entry visible.

use crate::event::{self, NbStream, Router};
use crate::pool::WorkerPool;
use crate::proto::{
    self, Endpoint, JobState, Request, Response, SessionStats, StatsReport,
};
use crate::registry::{JobKind, Registry, Session, SessionSource, QUERY_CACHE_CAP};
use qr_capo::{record, Recording, RecordingConfig};
use qr_common::{QrError, Result};
use qr_isa::Program;
use qr_replay::{QueryEngine, ReplayQuery};
use qr_store::RecordingStore;
use quickrec_core::Encoding;
use std::io::Write;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool threads executing jobs (and session-registry shards).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue answers `Busy`.
    pub queue_capacity: usize,
    /// Recording-store root directory.
    pub store_root: PathBuf,
    /// Event-loop threads multiplexing connections.
    pub event_workers: usize,
    /// Open-connection cap; a connection accepted past it is answered
    /// with a best-effort `Busy` and dropped.
    pub max_connections: usize,
}

impl ServerConfig {
    /// A config with `workers` workers, storing under `store_root`.
    pub fn new(workers: usize, store_root: PathBuf) -> ServerConfig {
        ServerConfig {
            workers,
            queue_capacity: 64,
            store_root,
            event_workers: 2,
            max_connections: 4096,
        }
    }
}

/// Server-wide monotonic counters (the STATS globals).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_busy: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) connections: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) registry: Registry,
    pub(crate) store: RecordingStore,
    pub(crate) counters: Counters,
    pub(crate) shutdown: AtomicBool,
    next_session: AtomicU64,
    /// Connections currently owned by an event worker; the accept loop
    /// increments on adopt, the owning worker decrements on close, and
    /// the overload-refusal path touches it not at all — every exit
    /// path balances.
    pub(crate) open_connections: AtomicUsize,
    /// Routes accepted sockets and offload completions to the event
    /// workers (and wakes them on shutdown).
    pub(crate) router: Router,
    /// The bound endpoint; shutdown dials it to wake the blocking
    /// accept loop.
    endpoint: Endpoint,
    workers: usize,
    max_connections: usize,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `endpoint` and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] when the endpoint cannot be bound
    /// or the store root cannot be opened.
    pub fn start(endpoint: &Endpoint, cfg: &ServerConfig) -> Result<ServerHandle> {
        let store = RecordingStore::open(&cfg.store_root)?;
        let listener = Listener::bind(endpoint)?;
        let bound = listener.local_endpoint(endpoint);
        let (router, wake_rxs) = Router::new(cfg.event_workers.max(1)).map_err(|e| {
            QrError::Execution { detail: format!("creating event-worker wake pipes: {e}") }
        })?;
        let shared = Arc::new(Shared {
            registry: Registry::new(cfg.workers),
            store,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            open_connections: AtomicUsize::new(0),
            router,
            endpoint: bound.clone(),
            workers: cfg.workers.max(1),
            max_connections: cfg.max_connections.max(1),
        });
        let pool = Arc::new(WorkerPool::new(cfg.workers, cfg.queue_capacity));
        let spawn_err = |what: &str, e: std::io::Error| QrError::Execution {
            detail: format!("spawning {what} thread: {e}"),
        };
        let mut events = Vec::with_capacity(wake_rxs.len());
        for (worker, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let handle = std::thread::Builder::new()
                .name(format!("qr-event-{worker}"))
                .spawn(move || event::worker_loop(worker, wake_rx, shared, pool))
                .map_err(|e| spawn_err("event-worker", e))?;
            events.push(handle);
        }
        let accept = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("qr-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &pool))
                .map_err(|e| spawn_err("accept", e))?
        };
        Ok(ServerHandle { shared, pool, accept: Some(accept), events, endpoint: bound })
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::wait`] (a client
/// `SHUTDOWN` message triggers the same path).
pub struct ServerHandle {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    accept: Option<std::thread::JoinHandle<()>>,
    events: Vec<std::thread::JoinHandle<()>>,
    endpoint: Endpoint,
}

impl ServerHandle {
    /// The bound endpoint (with the real port when TCP port 0 was
    /// requested).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Connections currently owned by the event workers (must drain to
    /// zero once every client hangs up — the regression gate for gauge
    /// drift).
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent; returns immediately).
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Blocks until the accept loop has stopped, the event workers
    /// have drained their connections, and every queued job has
    /// finished.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let drain_start = crate::obs::clock();
        // Event workers flush pending responses and wait for in-flight
        // offloaded queries (their own 30s deadline bounds peers stuck
        // mid-exchange), so they must join before the pool drains.
        for handle in self.events.drain(..) {
            let _ = handle.join();
        }
        self.pool.drain();
        crate::obs::drain_finished(drain_start);
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Sets the shutdown flag and wakes everything that blocks: the accept
/// loop (blocked in `accept()`, woken by a throwaway connection to our
/// own endpoint) and the event workers (parked in `poll`, woken through
/// their mailboxes). Idempotent.
pub(crate) fn request_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already requested; everyone is already waking
    }
    match &shared.endpoint {
        Endpoint::Unix(path) => {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
        Endpoint::Tcp(addr) => {
            let _ = std::net::TcpStream::connect(addr);
        }
    }
    shared.router.wake_all();
}

// ---- transport -------------------------------------------------------

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<Listener> {
        let io = |e: std::io::Error| QrError::Execution {
            detail: format!("binding {}: {e}", endpoint.describe()),
        };
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a killed server blocks bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path).map_err(io)?;
                Ok(Listener::Unix(listener))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr).map_err(io)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// The endpoint actually bound (resolves TCP port 0).
    fn local_endpoint(&self, requested: &Endpoint) -> Endpoint {
        match self {
            Listener::Unix(_) => requested.clone(),
            Listener::Tcp(listener) => match listener.local_addr() {
                Ok(addr) => Endpoint::Tcp(addr.to_string()),
                Err(_) => requested.clone(),
            },
        }
    }

    /// Blocking accept; [`request_shutdown`] unblocks it with a
    /// throwaway connection. The stream comes back already switched to
    /// nonblocking mode, ready for an event worker.
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

/// Counts one backpressure refusal and builds its `Busy` answer.
pub(crate) fn busy(shared: &Shared, queued: usize) -> Response {
    shared.counters.rejected_busy.fetch_add(1, Ordering::SeqCst);
    crate::obs::busy_rejection();
    Response::Busy { queued: queued as u32 }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>, pool: &Arc<WorkerPool>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break; // the shutdown wake-up connection (or a raced client)
                }
                shared.counters.connections.fetch_add(1, Ordering::SeqCst);
                crate::obs::connection_opened();
                // Over the connection cap: refuse with a structured
                // Busy instead of dropping silently. The open gauge is
                // never incremented on this path, so it stays balanced.
                if shared.open_connections.load(Ordering::SeqCst) >= shared.max_connections {
                    refuse_overloaded(stream, &busy(shared, pool.queued()));
                    continue;
                }
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                crate::obs::connection_delta(1);
                shared.router.adopt(stream);
            }
            Err(e) => {
                // Accept failures (EMFILE, transient resets) are
                // surfaced — counted and logged with the endpoint —
                // not silently swallowed; the backoff keeps a
                // persistent error from spinning the loop.
                crate::obs::accept_error();
                eprintln!(
                    "quickrecd: accept on {} failed: {e}",
                    shared.endpoint.describe()
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

// ---- request handling ------------------------------------------------

pub(crate) fn handle_request(
    request: Request,
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::SubmitWorkload { name, workload, threads, scale, encoding, order } => {
            if qr_workloads::find(&workload).is_none() {
                return Response::Error { message: format!("unknown workload `{workload}`") };
            }
            let source = SessionSource::Workload { workload, threads, scale };
            submit_record(shared, pool, name, source, encoding, order)
        }
        Request::SubmitProgram { name, source, cores, encoding, order } => {
            let source = SessionSource::Program { source, cores };
            submit_record(shared, pool, name, source, encoding, order)
        }
        Request::Jobs => Response::JobList(shared.registry.jobs()),
        Request::Stats => {
            let c = &shared.counters;
            Response::Stats(StatsReport {
                accepted: c.accepted.load(Ordering::SeqCst),
                rejected_busy: c.rejected_busy.load(Ordering::SeqCst),
                completed: c.completed.load(Ordering::SeqCst),
                failed: c.failed.load(Ordering::SeqCst),
                connections: c.connections.load(Ordering::SeqCst),
                shards: shared.registry.shards() as u32,
                workers: shared.workers as u32,
                sessions: shared.registry.session_stats(),
            })
        }
        Request::Fetch { id } => match completed_session(shared, id) {
            Ok(session) => match shared.store.fetch_parts(session.store_id) {
                Ok((manifest, parts)) => Response::Fetched {
                    files: parts
                        .files()
                        .into_iter()
                        .map(|(name, bytes)| (name.to_string(), bytes.to_vec()))
                        .collect(),
                    fingerprint: manifest.fingerprint,
                },
                Err(e) => Response::Error { message: e.to_string() },
            },
            Err(resp) => resp,
        },
        Request::Replay { id } => submit_followup(shared, pool, id, JobKind::Replay),
        Request::Verify { id } => submit_followup(shared, pool, id, JobKind::Verify),
        Request::Races { id } => submit_followup(shared, pool, id, JobKind::Races),
        Request::Shutdown => Response::ShuttingDown,
        Request::Metrics => Response::Metrics { text: qr_obs::global().render() },
        Request::Query { id, query, dry_run, max_events, replay_id } => {
            handle_query(shared, id, query, dry_run, max_events, replay_id)
        }
    }
}

/// Timeline events between persisted checkpoints for recordings made by
/// this daemon: small enough that any seek re-executes only a short
/// tail (11.7 events on average, `replay.seek_reexec_events`). The
/// sidecar it buys is not a fraction of the log — measured, it is 7–26×
/// the chunk + input log of a Test-scale session (fft 9.8 KB against
/// 1.3 KB) and 31× at Reference scale (451 against 14.7 B/kinstr) — but
/// it is no longer the 823× it was when every checkpoint dumped every
/// guest page (DESIGN.md, decision 12). The benchmark compiles in the
/// same value (`bench/src/workloads/timetravel.rs`); change both or
/// neither.
const CHECKPOINT_INTERVAL: usize = 25;

/// Answers a QUERY: a read over an immutable store entry that replays
/// instructions, so the event layer offloads it to the worker pool
/// rather than stalling a multiplexed connection.
fn handle_query(
    shared: &Arc<Shared>,
    id: u64,
    query: ReplayQuery,
    dry_run: bool,
    max_events: u64,
    replay_id: u64,
) -> Response {
    let session = match completed_session(shared, id) {
        Ok(session) => session,
        Err(resp) => return resp,
    };
    // Idempotence: a repeated replay id answers from the cache without
    // touching the store or re-executing anything. Dry runs execute
    // nothing, so they neither consult nor populate the cache.
    if !dry_run && replay_id != 0 {
        let hit = session.query_cache.iter().find(|(key, _)| *key == replay_id);
        if let Some((_, payload)) = hit {
            crate::obs::query_answered(true);
            return Response::QueryAnswer { cached: true, payload: payload.to_vec() };
        }
    }
    let outcome = (|| -> Result<Vec<u8>> {
        let (program, _) = build_program(&session.source)?;
        let (_, parts) = shared.store.fetch_parts(session.store_id)?;
        let recording = Recording::from_parts(&parts)?;
        let mut engine = QueryEngine::new(&program, &recording)?;
        if let Some(bytes) = parts.checkpoints.as_deref() {
            // A torn sidecar silently degrades to from-scratch seeks.
            engine.attach_index_bytes(bytes);
        }
        if dry_run {
            Ok(engine.plan(query)?.to_bytes())
        } else {
            let limit = (max_events != 0).then_some(max_events);
            Ok(engine.execute(query, limit)?.to_bytes())
        }
    })();
    match outcome {
        Ok(payload) => {
            if !dry_run && replay_id != 0 {
                // Bounded: past the cap the oldest answer goes, and a
                // late retry of it simply re-executes.
                shared.registry.update(id, |s| {
                    s.query_cache.push_back((replay_id, payload.as_slice().into()));
                    if s.query_cache.len() > QUERY_CACHE_CAP {
                        s.query_cache.pop_front();
                    }
                });
            }
            crate::obs::query_answered(false);
            Response::QueryAnswer { cached: false, payload }
        }
        Err(e) => Response::Error { message: e.to_string() },
    }
}

/// Looks up a session whose recording has completed.
fn completed_session(shared: &Arc<Shared>, id: u64) -> std::result::Result<Session, Response> {
    match shared.registry.get(id) {
        None => Err(Response::Error { message: format!("no session {id}") }),
        Some(s) if s.store_id == 0 => Err(Response::Error {
            message: format!("session {id} has no stored recording (state: {})", s.state.label()),
        }),
        Some(s) => Ok(s),
    }
}

fn submit_record(
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
    name: String,
    source: SessionSource,
    encoding: Encoding,
    order: quickrec_core::OrderMode,
) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error { message: "server is shutting down".into() };
    }
    let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    shared.registry.insert(Session {
        id,
        name,
        source,
        encoding,
        order,
        kind: JobKind::Record,
        state: JobState::Queued,
        fingerprint: 0,
        store_id: 0,
        stats: SessionStats::default(),
        query_cache: std::collections::VecDeque::new(),
    });
    let task_shared = Arc::clone(shared);
    let submitted =
        pool.try_submit(Box::new(move || run_job(&task_shared, id, JobKind::Record)));
    match submitted {
        Ok(()) => {
            shared.counters.accepted.fetch_add(1, Ordering::SeqCst);
            Response::Submitted { id }
        }
        Err((_task, queued)) => {
            shared.registry.remove(id);
            busy(shared, queued)
        }
    }
}

fn submit_followup(
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
    id: u64,
    kind: JobKind,
) -> Response {
    let session = match completed_session(shared, id) {
        Ok(session) => session,
        Err(resp) => return resp,
    };
    if matches!(session.state, JobState::Queued | JobState::Running) {
        return Response::Error { message: format!("session {id} already has a job in flight") };
    }
    // Mark the session queued *before* the worker can pick the job up.
    shared.registry.update(id, |s| {
        s.kind = kind;
        s.state = JobState::Queued;
    });
    let task_shared = Arc::clone(shared);
    let submitted = pool.try_submit(Box::new(move || run_job(&task_shared, id, kind)));
    match submitted {
        Ok(()) => Response::Queued,
        Err((_task, queued)) => {
            // Rejected: restore the session's pre-submission state.
            shared.registry.update(id, |s| {
                s.kind = session.kind;
                s.state = session.state.clone();
            });
            busy(shared, queued)
        }
    }
}

// ---- job execution ---------------------------------------------------

/// Rebuilds a session's program (and its core count).
fn build_program(source: &SessionSource) -> Result<(Program, usize)> {
    match source {
        SessionSource::Workload { workload, threads, scale } => {
            let spec = qr_workloads::find(workload).ok_or_else(|| QrError::Execution {
                detail: format!("unknown workload `{workload}`"),
            })?;
            let threads = *threads as usize;
            Ok(((spec.build)(threads, *scale)?, threads))
        }
        SessionSource::Program { source, cores } => {
            Ok((qr_isa::text::assemble("submitted", source)?, *cores as usize))
        }
    }
}

/// Runs one pool job to completion and folds its outcome — the
/// instructions it simulated, or its error — into the session and the
/// server counters.
fn run_job(shared: &Arc<Shared>, id: u64, kind: JobKind) {
    shared.registry.update(id, |s| s.state = JobState::Running);
    let Some(session) = shared.registry.get(id) else { return };
    let outcome = match kind {
        JobKind::Record => record_job(shared, &session),
        JobKind::Replay | JobKind::Races => replay_job(shared, &session, kind),
        JobKind::Verify => verify_job(shared, &session).map(|()| 0),
    };
    match outcome {
        Ok(instructions) => {
            shared.registry.update(id, |s| {
                s.state = JobState::Done;
                s.stats.instructions += instructions;
                *match kind {
                    JobKind::Record => &mut s.stats.records,
                    JobKind::Replay => &mut s.stats.replays,
                    JobKind::Verify => &mut s.stats.verifies,
                    JobKind::Races => &mut s.stats.races,
                } += 1;
            });
            shared.counters.completed.fetch_add(1, Ordering::SeqCst);
        }
        Err(e) => {
            shared.registry.update(id, |s| s.state = JobState::Failed(e.to_string()));
            shared.counters.failed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// RECORD: simulate, commit the recording to the store and point the
/// session at the entry.
fn record_job(shared: &Shared, session: &Session) -> Result<u64> {
    let (program, cores) = build_program(&session.source)?;
    let mut cfg = RecordingConfig::with_cores(cores);
    cfg.order = session.order;
    let recording = record(program.clone(), cfg)?;
    if let SessionSource::Workload { workload, threads, scale } = &session.source {
        // Suite workloads are self-validating: exit code == the
        // sequential mirror's checksum.
        if let Some(spec) = qr_workloads::find(workload) {
            let expected = (spec.expected)(*threads as usize, *scale);
            if recording.exit_code != expected {
                return Err(QrError::Execution {
                    detail: format!(
                        "{workload}: recorded checksum {:#x} != expected {expected:#x}",
                        recording.exit_code
                    ),
                });
            }
        }
    }
    let mut parts = recording.to_parts(session.encoding);
    // Persist the time-travel seek index next to the logs. A failed
    // build degrades to an index-less recording: queries still work,
    // every seek just replays from scratch.
    if let Ok(index) = qr_replay::CheckpointIndex::build(&program, &recording, CHECKPOINT_INTERVAL)
    {
        parts.attach_checkpoints(index.to_bytes())?;
    }
    let store_id =
        shared.store.put_parts(&session.name, &parts, session.encoding, recording.fingerprint)?;
    let manifest = shared.store.manifest(store_id)?;
    shared.registry.update(session.id, |s| {
        s.store_id = store_id;
        s.fingerprint = recording.fingerprint;
        s.stats.bytes_raw = manifest.uncompressed_bytes();
        s.stats.bytes_stored = manifest.compressed_bytes();
    });
    Ok(recording.instructions)
}

fn verify_job(shared: &Shared, session: &Session) -> Result<()> {
    let report = shared.store.verify(session.store_id)?;
    if !report.all_ok() {
        let first = report
            .files
            .iter()
            .find_map(|f| f.error.as_ref())
            .map_or_else(|| "unknown fault".to_string(), |e| e.to_string());
        return Err(QrError::Execution {
            detail: format!("store entry failed verification: {first}"),
        });
    }
    Ok(())
}

/// REPLAY and RACES: re-execute the stored recording and check it
/// against its recorded outcome; returns the instructions replayed.
fn replay_job(shared: &Shared, session: &Session, kind: JobKind) -> Result<u64> {
    let (program, _) = build_program(&session.source)?;
    let recording = shared.store.fetch(session.store_id)?;
    let outcome = if kind == JobKind::Races {
        qr_replay::replay_with_race_detection(&program, &recording)?.0
    } else if recording.order.is_some() {
        // Partial-order recordings replay under their recorded
        // happens-before edges; total-order ones by timestamp.
        qr_replay::replay_ordered_and_verify(&program, &recording, 1)?
    } else {
        qr_replay::replay_and_verify(&program, &recording)?
    };
    Ok(outcome.instructions)
}
