//! The `quickrecd` daemon: job execution, shutdown.
//!
//! One event loop ([`crate::event`]) owns the listener and every
//! connection: it multiplexes thousands of them over a `poll(2)`
//! readiness loop, speaking the wire protocol ([`crate::proto`])
//! through incremental per-connection state machines.
//! RECORD/REPLAY/VERIFY/RACES jobs (and offloaded QUERY requests) run on
//! the bounded worker pool (a full queue answers `Busy` — backpressure
//! instead of unbounded buffering); sessions live in the sharded
//! registry; recordings land in a `qr_store::RecordingStore`.
//!
//! Shutdown (a `SHUTDOWN` message or [`ServerHandle::shutdown`]) wakes
//! the loop through its mailbox; the loop closes the listener and
//! drains open connections, then the pool drains every queued job.
//! Because the store commits entries by staging + rename with the
//! manifest written last, there is no instant at which killing or
//! draining the server can leave a torn entry visible.

use crate::event::{self, Listener, Mailbox};
use crate::pool::WorkerPool;
use crate::proto::{Endpoint, JobState, Request, Response, SessionStats, StatsReport};
use crate::registry::{JobKind, Registry, Session, SessionSource, QUERY_CACHE_CAP};
use qr_capo::{record, Recording, RecordingConfig};
use qr_common::{QrError, Result};
use qr_isa::Program;
use qr_replay::{QueryEngine, ReplayQuery};
use qr_store::RecordingStore;
use quickrec_core::Encoding;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool threads executing jobs (and session-registry shards).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue answers `Busy`.
    pub queue_capacity: usize,
    /// Recording-store root directory.
    pub store_root: PathBuf,
    /// Open-connection cap; a connection accepted past it is answered
    /// with a best-effort `Busy` and dropped.
    pub max_connections: usize,
}

impl ServerConfig {
    /// A config with `workers` workers, storing under `store_root`.
    pub fn new(workers: usize, store_root: PathBuf) -> ServerConfig {
        ServerConfig { workers, queue_capacity: 64, store_root, max_connections: 4096 }
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
    /// Connections currently owned by the event loop; it increments on
    /// accept and decrements on close, and the overload-refusal path
    /// touches it not at all — every exit path balances.
    pub(crate) open_connections: AtomicUsize,
    /// Carries offloaded answers and shutdown to the event loop.
    pub(crate) mailbox: Mailbox,
    /// The bound endpoint, named in accept-error logs.
    pub(crate) endpoint: Endpoint,
    workers: usize,
    pub(crate) max_connections: usize,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `endpoint` and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Execution`] when the endpoint cannot be bound
    /// (a running daemon already serving the Unix socket included) or
    /// the store root cannot be opened.
    pub fn start(endpoint: &Endpoint, cfg: &ServerConfig) -> Result<ServerHandle> {
        // Bind first: a start refused because a live daemon serves the
        // socket must not sweep that daemon's store staging directories.
        let listener = Listener::bind(endpoint)?;
        let store = RecordingStore::open(&cfg.store_root)?;
        let bound = listener.local_endpoint(endpoint);
        let (mailbox, wake_rx) = Mailbox::new().map_err(|e| QrError::Execution {
            detail: format!("creating the event-loop wake pipe: {e}"),
        })?;
        let shared = Arc::new(Shared {
            registry: Registry::new(cfg.workers),
            store,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            open_connections: AtomicUsize::new(0),
            mailbox,
            endpoint: bound.clone(),
            workers: cfg.workers.max(1),
            max_connections: cfg.max_connections.max(1),
        });
        let pool = Arc::new(WorkerPool::new(cfg.workers, cfg.queue_capacity));
        let event = {
            let (shared, pool) = (Arc::clone(&shared), Arc::clone(&pool));
            std::thread::Builder::new()
                .name("qr-event".into())
                .spawn(move || event::run(listener, wake_rx, shared, pool))
                .map_err(|e| QrError::Execution {
                    detail: format!("spawning the event-loop thread: {e}"),
                })?
        };
        Ok(ServerHandle { shared, pool, event, endpoint: bound })
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::wait`] (a client
/// `SHUTDOWN` message triggers the same path).
pub struct ServerHandle {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    /// The event loop; it returns the instant draining began.
    event: std::thread::JoinHandle<Instant>,
    endpoint: Endpoint,
}

impl ServerHandle {
    /// The bound endpoint (with the real port when TCP port 0 was
    /// requested).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Connections currently owned by the event loop (must drain to
    /// zero once every client hangs up — the regression gate for gauge
    /// drift).
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent; returns immediately).
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Blocks until the event loop has drained its connections and
    /// every queued job has finished.
    pub fn wait(self) {
        // The loop flushes pending responses and waits for in-flight
        // offloaded queries (its own 30s deadline bounds peers stuck
        // mid-exchange), so it must finish before the pool drains.
        let drain_start = self.event.join().ok();
        self.pool.drain();
        crate::obs::drain_finished(drain_start);
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Sets the shutdown flag and wakes the event loop, which may be parked
/// in `poll`, through its mailbox. Idempotent.
pub(crate) fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.mailbox.wake();
}

/// Counts one backpressure refusal and builds its `Busy` answer.
pub(crate) fn busy(shared: &Shared, queued: usize) -> Response {
    shared.counters.rejected_busy.fetch_add(1, Ordering::SeqCst);
    crate::obs::busy_rejection();
    Response::Busy { queued: queued as u32 }
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
