//! The `quickrecd` daemon: the event loop's state, job execution, shutdown.
//!
//! One event loop ([`crate::event`]) owns the listener, every
//! connection and the [`LoopState`]: the session registry, the STATS
//! counters and the metrics registry METRICS renders, which no other
//! thread touches. It speaks the wire protocol
//! ([`crate::proto`]) through incremental per-connection state machines.
//! RECORD/REPLAY/VERIFY/RACES jobs (and QUERY cache misses) run on the
//! bounded worker pool (a full queue answers `Busy` — backpressure
//! instead of unbounded buffering). A job is handed what it needs at
//! submission and posts its transitions back through the loop's
//! mailbox, a finished one with what it counted; recordings land in a
//! `qr_store::RecordingStore`. A job or query that panics is answered
//! like one that failed.
//!
//! Shutdown (a `SHUTDOWN` message or [`ServerHandle::shutdown`]) wakes
//! the loop through its mailbox; the loop closes the listener and
//! drains open connections, then the pool drains every queued job.
//! Because the store commits entries by staging + rename with the
//! manifest written last, there is no instant at which killing or
//! draining the server can leave a torn entry visible.

use crate::event::{self, Listener, Mailbox, Post};
use crate::obs;
use crate::pool::WorkerPool;
use crate::proto::{Endpoint, JobState, Request, Response, SessionStats, StatsReport};
use crate::registry::{
    JobKind, Recorded, Registry, Session, SessionSource, Transition, QUERY_CACHE_CAP,
};
use qr_capo::{record, Recording, RecordingConfig};
use qr_common::{QrError, Result};
use qr_isa::Program;
use qr_obs::Registry as Metrics;
use qr_replay::{QueryEngine, ReplayQuery};
use qr_store::RecordingStore;
use quickrec_core::{Encoding, OrderMode};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool threads executing jobs.
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

/// What crosses threads: pool jobs use the store and the mailbox, and
/// [`ServerHandle`] the shutdown flag and the open-connection gauge.
pub(crate) struct Shared {
    pub(crate) store: RecordingStore,
    pub(crate) shutdown: AtomicBool,
    /// Connections currently owned by the event loop; it increments on
    /// accept and decrements on close, and the overload-refusal path
    /// touches it not at all — every exit path balances.
    pub(crate) open_connections: AtomicUsize,
    /// Carries job transitions, offloaded answers and shutdown to the loop.
    pub(crate) mailbox: Mailbox,
}

/// Everything the event loop owns besides its sockets. Only the
/// `qr-event` thread holds it, so handling a request and applying a
/// job's transition are each one step, with no lock.
pub(crate) struct LoopState {
    pub(crate) shared: Arc<Shared>,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) registry: Registry,
    /// What METRICS renders: the loop's own counts and those its jobs
    /// posted.
    pub(crate) metrics: Metrics,
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
            store,
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            mailbox,
        });
        let pool = Arc::new(WorkerPool::new(cfg.workers, cfg.queue_capacity));
        let state = LoopState {
            shared: Arc::clone(&shared),
            pool: Arc::clone(&pool),
            registry: Registry::new(),
            metrics: Metrics::new(),
            endpoint: bound.clone(),
            workers: cfg.workers.max(1),
            max_connections: cfg.max_connections.max(1),
        };
        let event = std::thread::Builder::new()
            .name("qr-event".into())
            .spawn(move || event::run(listener, wake_rx, state))
            .map_err(|e| QrError::Execution {
                detail: format!("spawning the event-loop thread: {e}"),
            })?;
        Ok(ServerHandle { shared, pool, event, endpoint: bound })
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::wait`] (a client
/// `SHUTDOWN` message triggers the same path).
pub struct ServerHandle {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    event: std::thread::JoinHandle<()>,
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
        let _ = self.event.join();
        self.pool.drain();
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

// ---- request handling ------------------------------------------------

impl LoopState {
    /// Answers a request from connection `conn`, or returns `None` when
    /// it went to the pool (a QUERY cache miss) and its answer will come
    /// back through the mailbox.
    pub(crate) fn handle_request(&mut self, conn: u64, request: Request) -> Option<Response> {
        Some(match request {
            Request::Ping => Response::Pong,
            Request::SubmitWorkload { name, workload, threads, scale, encoding, order } => {
                if qr_workloads::find(&workload).is_none() {
                    let message = format!("unknown workload `{workload}`");
                    return Some(Response::Error { message });
                }
                let source = SessionSource::Workload { workload, threads, scale };
                self.submit_record(name, source, encoding, order)
            }
            Request::SubmitProgram { name, source, cores, encoding, order } => {
                let source = SessionSource::Program { source, cores };
                self.submit_record(name, source, encoding, order)
            }
            Request::Jobs => Response::JobList(self.registry.jobs()),
            Request::Stats => {
                let c = self.registry.counters;
                Response::Stats(StatsReport {
                    accepted: c.accepted,
                    rejected_busy: obs::busy_rejections(&mut self.metrics).get(),
                    completed: c.completed,
                    failed: c.failed,
                    connections: obs::connections(&mut self.metrics).get(),
                    // One registry; the field stays for wire compatibility.
                    shards: 1,
                    workers: self.workers as u32,
                    sessions: self.registry.session_stats(),
                })
            }
            Request::Fetch { id } => match self.registry.completed(id) {
                Ok(session) => {
                    let fetching = Instant::now();
                    match self.shared.store.fetch_parts(session.store_id) {
                        Ok((manifest, parts)) => {
                            obs::fetched(&mut self.metrics, fetching);
                            Response::Fetched {
                                files: parts
                                    .files()
                                    .into_iter()
                                    .map(|(name, bytes)| (name.to_string(), bytes.to_vec()))
                                    .collect(),
                                fingerprint: manifest.fingerprint,
                            }
                        }
                        Err(e) => Response::Error { message: e.to_string() },
                    }
                }
                Err(resp) => resp,
            },
            Request::Replay { id } => self.submit_followup(id, JobKind::Replay),
            Request::Verify { id } => self.submit_followup(id, JobKind::Verify),
            Request::Races { id } => self.submit_followup(id, JobKind::Races),
            Request::Shutdown => Response::ShuttingDown,
            Request::Metrics => {
                let open = self.shared.open_connections.load(Ordering::SeqCst);
                Response::Metrics { text: obs::render(&mut self.metrics, self.pool.queued(), open) }
            }
            Request::Query { id, query, dry_run, max_events, replay_id } => {
                return self.query(conn, id, query, dry_run, max_events, replay_id)
            }
        })
    }

    /// Counts one backpressure refusal and builds its `Busy` answer.
    pub(crate) fn busy(&mut self, queued: usize) -> Response {
        obs::busy_rejections(&mut self.metrics).inc();
        Response::Busy { queued: queued as u32 }
    }

    /// Answers a QUERY from the session's idempotence cache, or offloads
    /// the replay that answers it: that re-executes instructions, far
    /// too slow for the loop. A full queue answers Busy, the same
    /// backpressure submissions get.
    fn query(
        &mut self,
        conn: u64,
        id: u64,
        query: ReplayQuery,
        dry_run: bool,
        max_events: u64,
        replay_id: u64,
    ) -> Option<Response> {
        let session = match self.registry.completed(id) {
            Ok(session) => session,
            Err(resp) => return Some(resp),
        };
        // Idempotence: a repeated replay id answers from the cache
        // without touching the store or re-executing anything. Dry runs
        // execute nothing, so they neither consult nor populate it (the
        // cache never holds id 0).
        let replay_id = if dry_run { 0 } else { replay_id };
        if let Some((_, payload)) = session.query_cache.iter().find(|(key, _)| *key == replay_id) {
            obs::query_answered(&mut self.metrics, true);
            return Some(Response::QueryAnswer { cached: true, payload: payload.clone() });
        }
        let (source, store_id) = (session.source.clone(), session.store_id);
        let shared = Arc::clone(&self.shared);
        let task = move || {
            let (outcome, counted) = contained(|counted| {
                let (program, _) = build_program(&source)?;
                let fetching = Instant::now();
                let (_, parts) = shared.store.fetch_parts(store_id)?;
                obs::fetched(counted, fetching);
                let recording = Recording::from_parts(&parts)?;
                let mut engine = QueryEngine::new(&program, &recording)?;
                // A torn sidecar silently degrades to from-scratch seeks.
                let attached =
                    parts.checkpoints.as_deref().is_none_or(|bytes| engine.attach_index_bytes(bytes));
                let answer = if dry_run {
                    engine.plan(query).map(|plan| plan.to_bytes())
                } else {
                    let limit = (max_events != 0).then_some(max_events);
                    engine.execute(query, limit).map(|result| result.to_bytes())
                };
                obs::sought(counted, attached, &engine.seek_stats());
                answer
            });
            shared.mailbox.post(Post::Answer { conn, id, replay_id, outcome, counted });
        };
        match self.pool.try_submit(Box::new(task)) {
            Ok(()) => None,
            Err((_task, queued)) => Some(self.busy(queued)),
        }
    }

    /// The response to an offloaded QUERY of session `id`; a successful
    /// answer is remembered under its replay id, and what the query
    /// counted is folded into the loop's metrics.
    pub(crate) fn answered(
        &mut self,
        id: u64,
        replay_id: u64,
        out: Result<Vec<u8>>,
        counted: Metrics,
    ) -> Response {
        self.metrics.merge(counted);
        let payload = match out {
            Ok(payload) => payload,
            Err(e) => return Response::Error { message: e.to_string() },
        };
        if replay_id != 0 {
            if let Ok(s) = self.registry.completed(id) {
                // Bounded: past the cap the oldest answer goes, and a
                // late retry of it simply re-executes.
                s.query_cache.push_back((replay_id, payload.clone()));
                if s.query_cache.len() > QUERY_CACHE_CAP {
                    s.query_cache.pop_front();
                }
            }
        }
        obs::query_answered(&mut self.metrics, false);
        Response::QueryAnswer { cached: false, payload }
    }

    /// Queues a record job and registers its session; a submission the
    /// pool refuses leaves no session behind.
    fn submit_record(
        &mut self,
        name: String,
        source: SessionSource,
        encoding: Encoding,
        order: OrderMode,
    ) -> Response {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Response::Error { message: "server is shutting down".into() };
        }
        // A submission refused `Busy` uses its id up too, so the ids a
        // client sees do not depend on load.
        let id = self.registry.next_id;
        self.registry.next_id += 1;
        let (job_name, job_source) = (name.clone(), source.clone());
        let job = move |store: &_, counted: &mut _| {
            record_job(store, counted, &job_name, &job_source, encoding, order)
        };
        if let Err(queued) = submit(&self.shared, &self.pool, id, job) {
            return self.busy(queued);
        }
        self.registry.insert(Session {
            id,
            name,
            source,
            order,
            kind: JobKind::Record,
            state: JobState::Queued,
            fingerprint: 0,
            store_id: 0,
            stats: SessionStats { id, ..SessionStats::default() },
            query_cache: VecDeque::new(),
        });
        self.registry.counters.accepted += 1;
        Response::Submitted { id }
    }

    /// Queues a REPLAY/VERIFY/RACES job against a recorded session.
    fn submit_followup(&mut self, id: u64, kind: JobKind) -> Response {
        let session = match self.registry.completed(id) {
            Ok(session) => session,
            Err(resp) => return resp,
        };
        if matches!(session.state, JobState::Queued | JobState::Running) {
            return Response::Error { message: format!("session {id} already has a job in flight") };
        }
        let (source, store_id) = (session.source.clone(), session.store_id);
        let job = move |store: &_, counted: &mut _| followup_job(store, counted, &source, store_id, kind);
        if let Err(queued) = submit(&self.shared, &self.pool, id, job) {
            return self.busy(queued);
        }
        // The job's `Running` is applied in a later loop step.
        session.kind = kind;
        session.state = JobState::Queued;
        Response::Queued
    }
}

// ---- job execution ---------------------------------------------------

/// What a job returns: the instructions it simulated and, for a record
/// job, the store entry it committed.
type JobOutcome = Result<(u64, Option<Recorded>)>;

/// Queues `job` for session `id` on the pool; a full queue hands back
/// its length. The job gets only what it captured at submission: it
/// posts `Running` and then its outcome and what it counted through the
/// mailbox, and never touches the registry.
fn submit(
    shared: &Arc<Shared>,
    pool: &WorkerPool,
    id: u64,
    job: impl FnOnce(&RecordingStore, &mut Metrics) -> JobOutcome + Send + 'static,
) -> std::result::Result<(), usize> {
    let shared = Arc::clone(shared);
    let task = move || {
        let post = |transition| shared.mailbox.post(Post::Job { id, transition });
        post(Transition::Running);
        let (outcome, counted) = contained(|counted| job(&shared.store, counted));
        post(match outcome {
            Ok((instructions, recorded)) => Transition::Completed { instructions, recorded, counted },
            Err(e) => Transition::Failed { reason: e.to_string(), counted },
        });
    };
    pool.try_submit(Box::new(task)).map_err(|(_task, queued)| queued)
}

/// Runs a pool task's `work` with a fresh registry for what it counts.
/// A panic is contained here and becomes the task's error (and a
/// counted worker panic), so the task still posts its answer: a job
/// that panicked fails its session instead of leaving it `Running`, and
/// a query's connection gets an error instead of waiting forever.
fn contained<T>(work: impl FnOnce(&mut Metrics) -> Result<T>) -> (Result<T>, Metrics) {
    let mut counted = Metrics::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| work(&mut counted))).unwrap_or_else(|panic| {
        obs::worker_panic(&mut counted);
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-string payload".into());
        Err(QrError::Execution { detail: format!("the job panicked: {what}") })
    });
    (outcome, counted)
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

/// RECORD: simulate and commit the recording to the store.
fn record_job(
    store: &RecordingStore,
    counted: &mut Metrics,
    name: &str,
    source: &SessionSource,
    encoding: Encoding,
    order: OrderMode,
) -> JobOutcome {
    let (program, cores) = build_program(source)?;
    let mut cfg = RecordingConfig::with_cores(cores);
    cfg.order = order;
    let recording = record(program.clone(), cfg)?;
    if let SessionSource::Workload { workload, threads, scale } = source {
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
    let mut parts = recording.to_parts(encoding);
    // Persist the time-travel seek index next to the logs. Building it
    // replays and verifies the recording, so one that does not replay
    // fails the session instead of being stored.
    let index = qr_replay::CheckpointIndex::build(&program, &recording, CHECKPOINT_INTERVAL)?;
    parts.attach_checkpoints(index.to_bytes())?;
    obs::recorded(counted, &recording, &parts, encoding);
    let putting = Instant::now();
    let store_id = store.put_parts(name, &parts, encoding, recording.fingerprint)?;
    let manifest = store.manifest(store_id)?;
    obs::stored(counted, &manifest, putting);
    let entry = Recorded {
        store_id,
        fingerprint: recording.fingerprint,
        bytes_raw: manifest.uncompressed_bytes(),
        bytes_stored: manifest.compressed_bytes(),
    };
    Ok((recording.instructions, Some(entry)))
}

/// VERIFY checks the stored entry's bytes; REPLAY and RACES re-execute
/// the stored recording and check it against its recorded outcome.
fn followup_job(
    store: &RecordingStore,
    counted: &mut Metrics,
    source: &SessionSource,
    store_id: u64,
    kind: JobKind,
) -> JobOutcome {
    if kind == JobKind::Verify {
        let report = store.verify(store_id)?;
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
        return Ok((0, None));
    }
    let (program, _) = build_program(source)?;
    let fetching = Instant::now();
    let recording = store.fetch(store_id)?;
    obs::fetched(counted, fetching);
    let (mode, outcome) = if kind == JobKind::Races {
        ("serial", qr_replay::replay_with_race_detection(&program, &recording)?.0)
    } else if recording.order.is_some() {
        // Partial-order recordings replay under their recorded
        // happens-before edges; total-order ones by timestamp.
        ("ordered", qr_replay::replay_ordered_and_verify(&program, &recording, 1)?)
    } else {
        ("serial", qr_replay::replay_and_verify(&program, &recording)?)
    };
    obs::replayed(counted, mode, &outcome);
    Ok((outcome.instructions, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_that_panics_fails_its_session_and_is_counted() {
        let dir = std::env::temp_dir().join(format!("qr-server-panic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (mailbox, _wake_rx) = Mailbox::new().expect("mailbox");
        let shared = Arc::new(Shared {
            store: RecordingStore::open(&dir).expect("store"),
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            mailbox,
        });
        let pool = WorkerPool::new(1, 4);
        let mut registry = Registry::new();
        let source = SessionSource::Program { source: String::new(), cores: 1 };
        registry.insert(Session {
            id: 1,
            name: "boom".into(),
            source,
            order: OrderMode::TotalOrder,
            kind: JobKind::Record,
            state: JobState::Queued,
            fingerprint: 0,
            store_id: 0,
            stats: SessionStats { id: 1, ..SessionStats::default() },
            query_cache: VecDeque::new(),
        });

        submit(&shared, &pool, 1, |_, _| panic!("job blew up")).expect("queued");
        pool.drain();
        let mut metrics = Metrics::new();
        for post in shared.mailbox.take() {
            let Post::Job { id, transition } = post else { panic!("a job posts transitions") };
            registry.apply(id, transition, &mut metrics);
        }

        let jobs = registry.jobs();
        assert!(
            matches!(&jobs[0].state, JobState::Failed(reason) if reason.contains("job blew up")),
            "{:?}",
            jobs[0].state
        );
        assert_eq!((registry.counters.completed, registry.counters.failed), (0, 1));
        assert_eq!(metrics.counter("qr_server_worker_panics_total", "", &[]).get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
