//! The session registry: plain data that only the event loop touches.
//!
//! The `qr-event` thread owns the [`Registry`] — every session in one
//! id-ordered map, the STATS counters and the next session id — and is
//! the only code that reads or writes it. Pool jobs never see it: each
//! is handed what it needs at submission and posts its [`Transition`]s
//! through the loop's mailbox, and the loop applies a transition, its
//! counter and what the job counted in one step, so JOBS, STATS and
//! METRICS always agree.

use crate::proto::{JobInfo, JobState, Response, SessionStats};
use qr_obs::Registry as Metrics;
use qr_workloads::Scale;
use quickrec_core::OrderMode;
use std::collections::{BTreeMap, VecDeque};

/// QUERY answers remembered per session for idempotent retries; past
/// it the oldest is evicted and a late retry simply re-executes.
pub const QUERY_CACHE_CAP: usize = 16;

/// What a session records (enough to rebuild its program for replay
/// jobs).
#[derive(Debug, Clone)]
pub enum SessionSource {
    /// A suite workload by name.
    Workload {
        /// Suite workload name.
        workload: String,
        /// Worker threads (= cores).
        threads: u32,
        /// Problem-size scale.
        scale: Scale,
    },
    /// A client-supplied PIA assembly program.
    Program {
        /// Assembly source text.
        source: String,
        /// Cores to run on.
        cores: u32,
    },
}

impl SessionSource {
    /// Workload column for JOBS output.
    pub fn label(&self) -> String {
        match self {
            SessionSource::Workload { workload, threads, .. } => format!("{workload}/{threads}t"),
            SessionSource::Program { cores, .. } => format!("program/{cores}c"),
        }
    }
}

/// What a session's current/last job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    Record,
    Replay,
    Verify,
    Races,
}

impl JobKind {
    /// The `kind` column of a JOBS row.
    fn label(self) -> &'static str {
        match self {
            JobKind::Record => "record",
            JobKind::Replay => "replay",
            JobKind::Verify => "verify",
            JobKind::Races => "races",
        }
    }
}

/// One step of a job's lifecycle, posted by the pool worker running it
/// and applied by the loop ([`Registry::apply`]). A job that ended
/// posts what it counted on the way.
pub(crate) enum Transition {
    /// A worker picked the job up.
    Running,
    /// The job finished, having simulated `instructions`; a record job
    /// also names the store entry it committed.
    Completed { instructions: u64, recorded: Option<Recorded>, counted: Metrics },
    /// The job failed (or panicked).
    Failed { reason: String, counted: Metrics },
}

/// The store entry a record job committed.
pub(crate) struct Recorded {
    pub(crate) store_id: u64,
    pub(crate) fingerprint: u64,
    pub(crate) bytes_raw: u64,
    pub(crate) bytes_stored: u64,
}

/// Server-wide job counters for STATS; its busy refusals and
/// connections are the metrics registry's counters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    pub(crate) accepted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
}

/// One session's registry record.
#[derive(Debug)]
pub struct Session {
    /// Session id (also the store entry id once recorded).
    pub id: u64,
    /// Client-supplied label.
    pub name: String,
    /// What to run.
    pub source: SessionSource,
    /// Ordering mode the recording job runs under (partial-order jobs
    /// persist an `order.qrp` sidecar alongside the logs).
    pub order: OrderMode,
    /// Current/last job kind.
    pub(crate) kind: JobKind,
    /// Job lifecycle state.
    pub state: JobState,
    /// Outcome fingerprint (0 until recorded).
    pub fingerprint: u64,
    /// Store entry id of the recording (0 until recorded).
    pub store_id: u64,
    /// Per-session operation counters.
    pub stats: SessionStats,
    /// Idempotence cache for QUERY: `(replay id, serialized answer)`,
    /// oldest first, at most [`QUERY_CACHE_CAP`]. A repeated non-zero
    /// replay id is served from here without re-executing.
    pub query_cache: VecDeque<(u64, Vec<u8>)>,
}

/// Every session by id, the STATS counters and the next session id.
pub(crate) struct Registry {
    sessions: BTreeMap<u64, Session>,
    pub(crate) counters: Counters,
    /// The id the next submission takes.
    pub(crate) next_id: u64,
}

impl Registry {
    /// An empty registry; the first session gets id 1.
    pub(crate) fn new() -> Registry {
        Registry { sessions: BTreeMap::new(), counters: Counters::default(), next_id: 1 }
    }

    /// Inserts a fresh session.
    pub(crate) fn insert(&mut self, session: Session) {
        self.sessions.insert(session.id, session);
    }

    /// Session `id` once its recording has completed, or the error
    /// answer naming why not.
    pub(crate) fn completed(&mut self, id: u64) -> Result<&mut Session, Response> {
        match self.sessions.get_mut(&id) {
            None => Err(Response::Error { message: format!("no session {id}") }),
            Some(s) if s.store_id == 0 => {
                let state = s.state.label();
                let message = format!("session {id} has no stored recording (state: {state})");
                Err(Response::Error { message })
            }
            Some(s) => Ok(s),
        }
    }

    /// Applies a job's transition to session `id` and, for a finished
    /// job, its STATS counter, folding what the job counted into
    /// `metrics`. A transition for an unknown id is ignored.
    pub(crate) fn apply(&mut self, id: u64, transition: Transition, metrics: &mut Metrics) {
        let Some(s) = self.sessions.get_mut(&id) else { return };
        match transition {
            Transition::Running => s.state = JobState::Running,
            Transition::Completed { instructions, recorded, counted } => {
                metrics.merge(counted);
                s.state = JobState::Done;
                s.stats.instructions += instructions;
                *match s.kind {
                    JobKind::Record => &mut s.stats.records,
                    JobKind::Replay => &mut s.stats.replays,
                    JobKind::Verify => &mut s.stats.verifies,
                    JobKind::Races => &mut s.stats.races,
                } += 1;
                if let Some(entry) = recorded {
                    s.store_id = entry.store_id;
                    s.fingerprint = entry.fingerprint;
                    s.stats.bytes_raw = entry.bytes_raw;
                    s.stats.bytes_stored = entry.bytes_stored;
                }
                self.counters.completed += 1;
            }
            Transition::Failed { reason, counted } => {
                metrics.merge(counted);
                s.state = JobState::Failed(reason);
                self.counters.failed += 1;
            }
        }
    }

    /// All sessions as JOBS rows, ordered by id.
    pub(crate) fn jobs(&self) -> Vec<JobInfo> {
        let row = |s: &Session| JobInfo {
            id: s.id,
            name: s.name.clone(),
            // Partial-order sessions are tagged so mixed-mode job lists
            // are distinguishable at a glance.
            workload: match s.order {
                OrderMode::PartialOrder => format!("{}+po", s.source.label()),
                OrderMode::TotalOrder => s.source.label(),
            },
            kind: s.kind.label().to_string(),
            state: s.state.clone(),
            fingerprint: s.fingerprint,
        };
        self.sessions.values().map(row).collect()
    }

    /// All per-session counters, ordered by id.
    pub(crate) fn session_stats(&self) -> Vec<SessionStats> {
        let stats = |s: &Session| SessionStats {
            partial_order: matches!(s.order, OrderMode::PartialOrder),
            ..s.stats
        };
        self.sessions.values().map(stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Registry {
        fn get(&self, id: u64) -> Option<&Session> {
            self.sessions.get(&id)
        }
    }

    fn session(id: u64) -> Session {
        Session {
            id,
            name: format!("s{id}"),
            source: SessionSource::Workload {
                workload: "fft".into(),
                threads: 2,
                scale: Scale::Test,
            },
            order: OrderMode::TotalOrder,
            kind: JobKind::Record,
            state: JobState::Queued,
            fingerprint: 0,
            store_id: 0,
            stats: SessionStats { id, ..SessionStats::default() },
            query_cache: VecDeque::new(),
        }
    }

    #[test]
    fn sessions_snapshot_in_id_order() {
        let mut reg = Registry::new();
        for id in (1..=12).rev() {
            reg.insert(session(id));
        }
        let jobs = reg.jobs();
        assert_eq!(jobs.len(), 12);
        assert!(jobs.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
        assert_eq!(reg.get(7).unwrap().name, "s7");
        assert!(reg.get(99).is_none());
    }

    #[test]
    fn a_transition_updates_state_stats_and_counters_in_one_call() {
        let mut reg = Registry::new();
        let mut metrics = Metrics::new();
        reg.insert(session(5));
        reg.apply(5, Transition::Running, &mut metrics);
        assert_eq!(reg.get(5).unwrap().state, JobState::Running);
        assert_eq!(reg.counters.completed, 0);

        let recorded =
            Recorded { store_id: 5, fingerprint: 0xfeed, bytes_raw: 900, bytes_stored: 300 };
        let mut counted = Metrics::new();
        counted.counter("t_jobs_total", "x", &[]).inc();
        let completed =
            Transition::Completed { instructions: 1234, recorded: Some(recorded), counted };
        reg.apply(5, completed, &mut metrics);
        let s = reg.get(5).unwrap();
        assert_eq!(s.state, JobState::Done);
        assert_eq!((s.store_id, s.fingerprint), (5, 0xfeed));
        let stats = reg.session_stats()[0];
        assert_eq!((stats.records, stats.instructions), (1, 1234));
        assert_eq!((stats.bytes_raw, stats.bytes_stored), (900, 300));
        assert_eq!((reg.counters.completed, reg.counters.failed), (1, 0));
        assert_eq!(metrics.counter("t_jobs_total", "x", &[]).get(), 1, "the job's count is folded");

        // An unknown id changes nothing, counters included.
        let counted = Metrics::new();
        reg.apply(6, Transition::Failed { reason: "gone".into(), counted }, &mut metrics);
        let counted = Metrics::new();
        reg.apply(6, Transition::Completed { instructions: 1, recorded: None, counted }, &mut metrics);
        assert!(reg.get(6).is_none());
        assert_eq!((reg.counters.completed, reg.counters.failed), (1, 0));
    }
}
