//! The sharded session registry.
//!
//! Sessions (one per submission) live in `shards` independent
//! mutex-protected maps; a session with id `i` lives in shard
//! `i % shards`, so concurrent job updates on different sessions
//! contend only when they hash to the same shard. Registry snapshots
//! (JOBS/STATS) lock shards one at a time and sort by id, so readers
//! never hold more than one shard lock.

use crate::proto::{JobInfo, JobState, SessionStats};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

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

/// One session's registry record.
#[derive(Debug, Clone)]
pub struct Session {
    /// Session id (also the store entry id once recorded).
    pub id: u64,
    /// Client-supplied label.
    pub name: String,
    /// What to run.
    pub source: SessionSource,
    /// Chunk-log encoding for the stored recording.
    pub encoding: Encoding,
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
    /// replay id is served from here without re-executing. Answers sit
    /// behind an `Arc` so the snapshots [`Registry::get`] clones for
    /// every FETCH and job share them instead of copying them.
    pub query_cache: VecDeque<(u64, Arc<[u8]>)>,
}

/// Sharded id → [`Session`] map.
pub struct Registry {
    shards: Vec<Mutex<HashMap<u64, Session>>>,
}

impl Registry {
    /// Creates a registry with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Registry {
        Registry {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The sharding rule: session `id` lives in shard `id % shards`.
    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Session>> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Inserts a fresh session.
    pub fn insert(&self, session: Session) {
        let mut stats = session.stats;
        stats.id = session.id;
        let mut shard = self.shard(session.id).lock().expect("registry shard");
        shard.insert(session.id, Session { stats, ..session });
    }

    /// Clones session `id`, if present.
    pub fn get(&self, id: u64) -> Option<Session> {
        self.shard(id).lock().expect("registry shard").get(&id).cloned()
    }

    /// Removes session `id` (a submission rejected by backpressure
    /// leaves no trace).
    pub fn remove(&self, id: u64) {
        self.shard(id).lock().expect("registry shard").remove(&id);
    }

    /// Applies `update` to session `id` under its shard lock; returns
    /// false when the session does not exist.
    pub fn update(&self, id: u64, update: impl FnOnce(&mut Session)) -> bool {
        let mut shard = self.shard(id).lock().expect("registry shard");
        match shard.get_mut(&id) {
            Some(session) => {
                update(session);
                true
            }
            None => false,
        }
    }

    /// All sessions as JOBS rows, ordered by id.
    pub fn jobs(&self) -> Vec<JobInfo> {
        let mut out: Vec<JobInfo> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard");
            out.extend(shard.values().map(|s| JobInfo {
                id: s.id,
                name: s.name.clone(),
                // Partial-order sessions are tagged so mixed-mode job
                // lists are distinguishable at a glance.
                workload: match s.order {
                    OrderMode::PartialOrder => format!("{}+po", s.source.label()),
                    OrderMode::TotalOrder => s.source.label(),
                },
                kind: s.kind.label().to_string(),
                state: s.state.clone(),
                fingerprint: s.fingerprint,
            }));
        }
        out.sort_by_key(|j| j.id);
        out
    }

    /// All per-session counters, ordered by id.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        let mut out: Vec<SessionStats> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard");
            out.extend(shard.values().map(|s| {
                let mut stats = s.stats;
                stats.partial_order = matches!(s.order, OrderMode::PartialOrder);
                stats
            }));
        }
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(id: u64) -> Session {
        Session {
            id,
            name: format!("s{id}"),
            source: SessionSource::Workload {
                workload: "fft".into(),
                threads: 2,
                scale: Scale::Test,
            },
            encoding: Encoding::Delta,
            order: OrderMode::TotalOrder,
            kind: JobKind::Record,
            state: JobState::Queued,
            fingerprint: 0,
            store_id: 0,
            stats: SessionStats::default(),
            query_cache: VecDeque::new(),
        }
    }

    #[test]
    fn sessions_distribute_across_shards_and_snapshot_sorted() {
        let reg = Registry::new(4);
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
    fn update_mutates_under_the_shard_lock() {
        let reg = Registry::new(2);
        reg.insert(session(5));
        assert!(reg.update(5, |s| {
            s.state = JobState::Done;
            s.stats.records += 1;
        }));
        assert_eq!(reg.get(5).unwrap().state, JobState::Done);
        assert_eq!(reg.session_stats()[0].records, 1);
        assert!(!reg.update(6, |_| {}));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = std::sync::Arc::new(Registry::new(4));
        for id in 1..=8 {
            reg.insert(session(id));
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    for round in 0..100 {
                        let id = round % 8 + 1;
                        reg.update(id, |s| s.stats.replays += 1);
                    }
                });
            }
        });
        let total: u64 = reg.session_stats().iter().map(|s| s.replays).sum();
        assert_eq!(total, 400);
    }
}
