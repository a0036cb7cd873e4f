//! `daemon_sessions`: an in-process `quickrecd` under two closed-loop
//! clients on a Unix socket.
//!
//! *Interactive* phase: each client runs whole sessions back to back —
//! submit a Test-scale, 2-thread suite workload (workload, encoding and
//! ordering mode drawn from a seeded permutation of all 24
//! combinations), wait for the recording, fetch it, load it and compare
//! its fingerprint with a local recording of the same program, run one
//! `ReverseStep` query and compare the answer with a local engine's,
//! queue a REPLAY job and wait for it. This gives latency and, as
//! sessions completed per second, the end-to-end rate. *Batch* phase
//! (traced runs only, a per-layer number): in rounds they start
//! together, each client submits its twelve shapes at once, waits for
//! all and fetches all; a round is over when both are done. This gives
//! capacity. A `Busy` answer counts as a failed operation.
//!
//! This is the only workload where `server` (wire format, event loop,
//! worker pool, registry, client polling) decides the result: the work
//! inside a session is a few milliseconds, the session is tens.

use crate::corpus::{self, Built};
use crate::report::Run;
use crate::spans::{self, Tracer};
use crate::{probes, stats, timed_setup, Clock, Config, Ctx};
use qr_capo::{record, Recording, RecordingConfig, RecordingParts};
use qr_common::{QrError, Result, SplitMix64};
use qr_replay::{CheckpointIndex, QueryEngine, QueryResult, ReplayQuery};
use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig, ServerHandle};
use qr_store::RecordingStore;
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const PROGRAMS: [&str; 4] = ["fft", "lu", "radix", "water"];
const ORDERS: [OrderMode; 2] = [OrderMode::TotalOrder, OrderMode::PartialOrder];
const THREADS: usize = 2;
const CLIENTS: usize = 2;
/// Sessions a client has in flight in the batch phase: its whole plan,
/// so that every round carries each of the 24 shapes exactly once and
/// does the same work whatever the seed dealt to which client.
const BATCH: usize = 12;
/// The interval `quickrecd` indexes its recordings at.
const INTERVAL: usize = 25;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One of the 24 session shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Combo {
    program: usize,
    encoding: Encoding,
    order: usize,
}

impl Combo {
    fn all() -> Vec<Combo> {
        let mut out = Vec::new();
        for program in 0..PROGRAMS.len() {
            for encoding in Encoding::ALL {
                for order in 0..ORDERS.len() {
                    out.push(Combo {
                        program,
                        encoding,
                        order,
                    });
                }
            }
        }
        out
    }

    fn label(self) -> String {
        format!(
            "{}/{}/{}",
            PROGRAMS[self.program],
            self.encoding.name(),
            ORDERS[self.order].name()
        )
    }

    fn request(self, tag: u64) -> Request {
        Request::SubmitWorkload {
            name: format!("e2e-{tag}"),
            workload: PROGRAMS[self.program].into(),
            threads: THREADS as u32,
            scale: Scale::Test,
            encoding: self.encoding,
            order: ORDERS[self.order],
        }
    }
}

/// What a correct session of one program and ordering mode returns,
/// from a local recording the daemon never saw.
struct Reference {
    recording: Recording,
    query: ReplayQuery,
    answer: Vec<u8>,
}

struct Local {
    programs: Vec<Built>,
    /// Indexed `[program][order]`.
    references: Vec<Vec<Reference>>,
    build_ms: f64,
}

impl Local {
    fn reference(&self, combo: Combo) -> &Reference {
        &self.references[combo.program][combo.order]
    }
}

/// The running daemon; shut down and joined on drop.
struct Daemon {
    handle: Option<ServerHandle>,
    endpoint: Endpoint,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.wait();
        }
    }
}

struct State {
    local: Local,
    /// Each client's seeded order over the 24 combinations.
    plans: Vec<Vec<Combo>>,
    /// Per combination: bytes a FETCH returns, first seen in warm-up.
    fetch_bytes: BTreeMap<String, u64>,
    /// Every session started so far: daemon id → its combination.
    sessions: Vec<(u64, Combo)>,
    // Clients hang up before the daemon is asked to stop.
    clients: Vec<Client>,
    daemon: Daemon,
}

/// What one client thread did, merged into the run afterwards.
struct Tally {
    checks: Run,
    sessions: Vec<(u64, Combo)>,
    fetch_bytes: Vec<(String, u64)>,
    submissions: u64,
    busy: u64,
}

impl Tally {
    fn new(cfg: &Config) -> Tally {
        Tally {
            checks: Run::new(cfg),
            sessions: Vec::new(),
            fetch_bytes: Vec::new(),
            submissions: 0,
            busy: 0,
        }
    }

    fn merge_into(self, ctx: &mut Ctx<'_>, state: &mut State) {
        ctx.run.absorb(self.checks);
        state.sessions.extend(self.sessions);
        for (label, bytes) in self.fetch_bytes {
            let first = *state.fetch_bytes.entry(label.clone()).or_insert(bytes);
            if first != bytes {
                ctx.run.check(false, || format!("exact metric drifted: FETCH of {label} returned {bytes} bytes, earlier {first}"));
            }
        }
    }
}

fn build_local(ctx: &mut Ctx<'_>) -> Result<Local> {
    let started = Instant::now();
    let programs = corpus::build_all(&PROGRAMS, THREADS, Scale::Test)?;
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut references = Vec::new();
    for built in &programs {
        let mut by_order = Vec::new();
        for order in ORDERS {
            // The daemon records with the default kernel configuration;
            // so does its reference.
            let mut cfg = RecordingConfig::with_cores(THREADS);
            cfg.order = order;
            let recording = record(built.program.clone(), cfg)?;
            ctx.run.check(corpus::exit_ok(built, &recording), || {
                format!(
                    "setup: {} exited with {:#x}",
                    built.spec.name, recording.exit_code
                )
            });
            let engine = QueryEngine::new(&built.program, &recording)?;
            let query = ReplayQuery::ReverseStep {
                events: (engine.timeline_len() as u64 / 3).max(1),
            };
            let answer = engine.execute(query, None)?.to_bytes();
            by_order.push(Reference {
                recording,
                query,
                answer,
            });
        }
        references.push(by_order);
    }
    Ok(Local {
        programs,
        references,
        build_ms,
    })
}

fn setup(ctx: &mut Ctx<'_>) -> Result<State> {
    let local = build_local(ctx)?;
    let dir = ctx.scratch.fresh("daemon");
    std::fs::create_dir_all(&dir).map_err(|e| QrError::Execution {
        detail: format!("creating {}: {e}", dir.display()),
    })?;
    let endpoint = Endpoint::Unix(dir.join("qd.sock"));
    let handle = Server::start(&endpoint, &ServerConfig::new(2, dir.join("store")))?;
    let daemon = Daemon {
        handle: Some(handle),
        endpoint: endpoint.clone(),
    };
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect_with_retry(
            &endpoint,
            Duration::from_secs(10),
        )?);
    }
    // One permutation of the 24 combinations, dealt round-robin: the
    // two clients' first twelve sessions cover every combination once.
    let mut deck = Combo::all();
    corpus::shuffle(&mut deck, &mut SplitMix64::new(ctx.cfg.seed));
    let plans = (0..CLIENTS)
        .map(|c| deck.iter().copied().skip(c).step_by(CLIENTS).collect())
        .collect();
    let mut state = State {
        local,
        plans,
        fetch_bytes: BTreeMap::new(),
        sessions: Vec::new(),
        clients,
        daemon,
    };
    // Warm-up: every combination once, which also fixes the exact
    // per-combination byte counts later sessions are compared with.
    let per_client = if ctx.cfg.quick {
        2
    } else {
        Combo::all().len() / CLIENTS
    };
    interactive(ctx, &mut state, Stop::After(per_client), false);
    Ok(state)
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many sessions per client.
    After(usize),
    /// At this instant (sessions in flight finish).
    At(Instant),
}

impl Stop {
    fn reached(self, done: usize) -> bool {
        match self {
            Stop::After(count) => done >= count,
            Stop::At(deadline) => Instant::now() >= deadline,
        }
    }
}

/// One interactive session's latencies, milliseconds.
#[derive(Debug, Clone, Copy)]
struct SessionMs {
    total: f64,
    write: f64,
    read: f64,
}

fn expect_done(tally: &mut Tally, job: Result<qr_server::proto::JobInfo>, what: &str) -> bool {
    match tally.checks.ok(job, || what.to_string()) {
        Some(job) => tally.checks.check(job.state == JobState::Done, || {
            format!("{what}: job ended {:?}", job.state)
        }),
        None => false,
    }
}

/// Runs one whole session on `client`; `None` when it could not finish.
fn session(
    client: &mut Client,
    tr: &Tracer,
    local: &Local,
    combo: Combo,
    tag: u64,
    tally: &mut Tally,
) -> Option<SessionMs> {
    let _root = tr.span(spans::ROOT_SESSION, tag);
    let label = combo.label();
    let reference = local.reference(combo);
    let t0 = Instant::now();
    tally.submissions += 1;
    let submitted = tr.call("server.submit", tag, || client.call(&combo.request(tag)));
    let id = match tally
        .checks
        .ok(submitted, || format!("session {tag} ({label}): submit"))?
    {
        Response::Submitted { id } => id,
        Response::Busy { queued } => {
            tally.busy += 1;
            tally.checks.check(false, || {
                format!("session {tag} ({label}): Busy with {queued} queued")
            });
            return None;
        }
        other => {
            tally.checks.check(false, || {
                format!("session {tag} ({label}): submit answered {other:?}")
            });
            return None;
        }
    };
    tally.sessions.push((id, combo));
    let job = tr.call("server.wait", tag, || client.wait_for(id, JOB_TIMEOUT));
    let write = t0.elapsed().as_secs_f64() * 1e3;
    if !expect_done(tally, job, &format!("session {tag} ({label}): record job")) {
        return None;
    }

    let t1 = Instant::now();
    let fetched = tr.call("server.fetch", tag, || client.call(&Request::Fetch { id }));
    let Response::Fetched { files, fingerprint } = tally
        .checks
        .ok(fetched, || format!("session {tag} ({label}): fetch"))?
    else {
        tally
            .checks
            .check(false, || format!("session {tag} ({label}): fetch refused"));
        return None;
    };
    tally
        .checks
        .check(fingerprint == reference.recording.fingerprint, || {
            format!(
                "session {tag} ({label}): daemon fingerprint {fingerprint:#x} != local {:#x}",
                reference.recording.fingerprint
            )
        });
    tally.fetch_bytes.push((
        label.clone(),
        files.iter().map(|(_, b)| b.len() as u64).sum(),
    ));
    let loaded = tr.call("capo.from_parts", tag, || {
        RecordingParts::from_files(&files).and_then(|parts| Recording::from_parts(&parts))
    });
    if let Some(loaded) = tally.checks.ok(loaded, || {
        format!("session {tag} ({label}): load fetched files")
    }) {
        tally.checks.check(
            loaded.fingerprint == reference.recording.fingerprint
                && loaded.instructions == reference.recording.instructions,
            || format!("session {tag} ({label}): fetched recording differs from the local one"),
        );
    }
    let answer = tr.call("server.query", tag, || {
        client.query(id, reference.query, false, 0, 0)
    });
    if let Some((_, payload)) = tally
        .checks
        .ok(answer, || format!("session {tag} ({label}): query"))
    {
        let parsed = QueryResult::from_bytes(&payload).is_ok();
        tally
            .checks
            .check(parsed && payload == reference.answer, || {
                format!(
                    "session {tag} ({label}): {} answered differently from a local engine",
                    reference.query
                )
            });
    }
    let replayed = tr.call("server.replay_job", tag, || {
        match client.call(&Request::Replay { id })? {
            Response::Queued => client.wait_for(id, JOB_TIMEOUT),
            other => Err(QrError::Execution {
                detail: format!("REPLAY answered {other:?}"),
            }),
        }
    });
    let done = expect_done(
        tally,
        replayed,
        &format!("session {tag} ({label}): replay job"),
    );
    let read = t1.elapsed().as_secs_f64() * 1e3;
    done.then(|| SessionMs {
        total: t0.elapsed().as_secs_f64() * 1e3,
        write,
        read,
    })
}

/// Both clients run sessions back to back until `stop`.
fn interactive(ctx: &mut Ctx<'_>, state: &mut State, stop: Stop, traced: bool) -> Vec<SessionMs> {
    ctx.tracer.set_enabled(traced);
    let (tracer, cfg) = (ctx.tracer, ctx.cfg);
    let started_at = state.sessions.len() as u64;
    let results: Vec<(Vec<SessionMs>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&state.plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                let local = &state.local;
                scope.spawn(move || {
                    let mut tally = Tally::new(cfg);
                    let mut done = Vec::new();
                    for n in 0.. {
                        if stop.reached(n) {
                            break;
                        }
                        // Offset by the sessions already run, so a later
                        // phase continues through the plan.
                        let combo = plan[(started_at as usize / CLIENTS + n) % plan.len()];
                        let tag = 1 + (started_at + n as u64) * CLIENTS as u64 + c as u64;
                        done.extend(session(client, tracer, local, combo, tag, &mut tally));
                    }
                    (done, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    ctx.tracer.set_enabled(false);
    let mut all = Vec::new();
    for (done, tally) in results {
        all.extend(done);
        tally.merge_into(ctx, state);
    }
    all
}

/// Both clients submit `BATCH` sessions, wait for all and fetch all, in
/// rounds they start together; a round lasts until the slower client is
/// done. Between rounds, with the daemon idle, client 0 runs a
/// calibration slice; a round's time is divided by the host slowdown
/// measured on either side of it (capacity is CPU-bound: two pool
/// workers on two cores). Returns every complete round's normalised
/// seconds, and the submissions made and refused.
fn batch(ctx: &mut Ctx<'_>, state: &mut State, stop: Stop) -> (Vec<f64>, u64, u64) {
    let cfg = ctx.cfg;
    let started_at = state.sessions.len() as u64;
    let barrier = Barrier::new(CLIENTS);
    let finished = AtomicBool::new(false);
    let mut kernels = vec![Some(&mut ctx.kernel)];
    kernels.resize_with(CLIENTS, || None);
    type Outcome = (Vec<(usize, f64)>, Vec<f64>, Tally);
    let results: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&state.plans)
            .zip(kernels)
            .enumerate()
            .map(|(c, ((client, plan), mut kernel))| {
                let (local, barrier, finished) = (&state.local, &barrier, &finished);
                scope.spawn(move || {
                    let mut tally = Tally::new(cfg);
                    let (mut rounds, mut slices) = (Vec::new(), Vec::new());
                    for round in 0.. {
                        // Everyone idle: calibrate, and let client 0
                        // decide for both whether another round starts.
                        barrier.wait();
                        if let Some(kernel) = kernel.as_deref_mut() {
                            slices.push(kernel.slice());
                            finished.store(stop.reached(round), Ordering::SeqCst);
                        }
                        barrier.wait();
                        if finished.load(Ordering::SeqCst) {
                            break;
                        }
                        let t0 = Instant::now();
                        let mut ids = Vec::new();
                        for k in 0..BATCH {
                            let combo = plan[k % plan.len()];
                            let tag = 1_000_000 + started_at + ((round * BATCH + k) * CLIENTS + c) as u64;
                            tally.submissions += 1;
                            match tally.checks.ok(client.call(&combo.request(tag)), || format!("batch {tag}: submit")) {
                                Some(Response::Submitted { id }) => ids.push((id, combo)),
                                Some(Response::Busy { queued }) => {
                                    tally.busy += 1;
                                    tally.checks.check(false, || format!("batch {tag}: Busy with {queued} queued"));
                                }
                                Some(other) => {
                                    tally.checks.check(false, || format!("batch {tag}: submit answered {other:?}"));
                                }
                                None => {}
                            }
                        }
                        let mut complete = ids.len() == BATCH;
                        for &(id, combo) in &ids {
                            complete &= expect_done(&mut tally, client.wait_for(id, JOB_TIMEOUT), &format!("batch session {id} ({})", combo.label()));
                        }
                        for &(id, combo) in &ids {
                            let reference = local.reference(combo);
                            match tally.checks.ok(client.call(&Request::Fetch { id }), || format!("batch session {id}: fetch")) {
                                Some(Response::Fetched { files, fingerprint }) => {
                                    complete &= tally.checks.check(fingerprint == reference.recording.fingerprint, || {
                                        format!("batch session {id} ({}): daemon fingerprint differs from local", combo.label())
                                    });
                                    tally.fetch_bytes.push((combo.label(), files.iter().map(|(_, b)| b.len() as u64).sum()));
                                }
                                _ => complete = false,
                            }
                        }
                        tally.sessions.extend(ids);
                        if complete {
                            rounds.push((round, t0.elapsed().as_secs_f64()));
                        }
                    }
                    (rounds, slices, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // Slice r was taken before round r, slice r+1 after it.
    let slices = results.first().map(|r| r.1.clone()).unwrap_or_default();
    let slowdown =
        |round: usize| (slices[round] + slices[round + 1]) / 2.0 / crate::calib::NOMINAL_SLICE_S;
    let mut per_round: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut submissions, mut busy) = (0, 0);
    for (r, _, tally) in results {
        for (round, seconds) in r {
            per_round.entry(round).or_default().push(seconds);
        }
        submissions += tally.submissions;
        busy += tally.busy;
        tally.merge_into(ctx, state);
    }
    // A round counts when every client completed its part of it.
    let complete = per_round
        .iter()
        .filter(|(_, clients)| clients.len() == CLIENTS);
    let wall: Vec<(usize, f64)> = complete
        .map(|(round, clients)| (*round, clients.iter().copied().fold(0.0, f64::max)))
        .collect();
    ctx.run.timing(
        "batch round (wall)",
        &wall.iter().map(|w| w.1).collect::<Vec<_>>(),
        "s",
    );
    let rounds = wall
        .iter()
        .map(|(round, seconds)| seconds / slowdown(*round))
        .collect();
    (rounds, submissions, busy)
}

/// Stored bytes per combination from the daemon's STATS, checked to be
/// the same for every session of one combination; returns the totals
/// over the 24 combinations as `(stored, raw)`.
fn stored_bytes(ctx: &mut Ctx<'_>, state: &mut State) -> (u64, u64) {
    let stats = state.clients[0].call(&Request::Stats);
    let Some(Response::Stats(report)) = ctx.run.ok(stats, || "STATS".into()) else {
        return (0, 0);
    };
    let combos: BTreeMap<u64, Combo> = state.sessions.iter().copied().collect();
    let mut basis: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in &report.sessions {
        let Some(combo) = combos.get(&s.id) else {
            continue;
        };
        let first = *basis
            .entry(combo.label())
            .or_insert((s.bytes_stored, s.bytes_raw));
        if first != (s.bytes_stored, s.bytes_raw) {
            ctx.run.check(false, || {
                format!(
                    "exact metric drifted: session {} ({}) stored {} bytes, earlier {}",
                    s.id,
                    combo.label(),
                    s.bytes_stored,
                    first.0
                )
            });
        }
    }
    ctx.run
        .check(basis.len() == Combo::all().len() || ctx.cfg.quick, || {
            format!("only {} of 24 session shapes were seen", basis.len())
        });
    basis
        .values()
        .fold((0, 0), |(a, b), (stored, raw)| (a + stored, b + raw))
}

/// The work of one session done in-process — build, record, index,
/// put, fetch, load, query, replay — in milliseconds, per combination.
fn local_equivalent(ctx: &mut Ctx<'_>, state: &State) -> Result<Vec<f64>> {
    let store = RecordingStore::open(&ctx.scratch.fresh("local-equiv"))?;
    let mut out = Vec::new();
    for combo in Combo::all() {
        let reference = state.local.reference(combo);
        let t0 = Instant::now();
        let built = corpus::build(PROGRAMS[combo.program], THREADS, Scale::Test)?;
        let mut cfg = RecordingConfig::with_cores(THREADS);
        cfg.order = ORDERS[combo.order];
        let recording = record(built.program.clone(), cfg)?;
        let mut parts = recording.to_parts(combo.encoding);
        parts.attach_checkpoints(
            CheckpointIndex::build(&built.program, &recording, INTERVAL)?.to_bytes(),
        )?;
        let id = store.put_parts("local", &parts, combo.encoding, recording.fingerprint)?;
        let (_, back) = store.fetch_parts(id)?;
        let loaded = Recording::from_parts(&back)?;
        let mut engine = QueryEngine::new(&built.program, &loaded)?;
        engine.attach_index_bytes(back.checkpoints.as_deref().unwrap_or_default());
        let answer = engine.execute(reference.query, None)?.to_bytes();
        let outcome = if loaded.order.is_some() {
            qr_replay::replay_ordered_and_verify(&built.program, &loaded, 1)?
        } else {
            qr_replay::replay_and_verify(&built.program, &loaded)?
        };
        out.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.run.check(
            answer == reference.answer && outcome.fingerprint == reference.recording.fingerprint,
            || {
                format!(
                    "local equivalent of {} disagrees with its reference",
                    combo.label()
                )
            },
        );
    }
    Ok(out)
}

fn connection_probes(ctx: &mut Ctx<'_>, state: &mut State) {
    let endpoint = state.daemon.endpoint.clone();
    let mut connects = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let client = Client::connect(&endpoint);
        connects.push(t0.elapsed().as_secs_f64() * 1e6);
        ctx.run.ok(client, || "probe: connect".into());
    }
    ctx.run.set("server.connect_us", stats::median(&connects));
    let mut pings = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        let pong = state.clients[0].ping();
        pings.push(t0.elapsed().as_secs_f64() * 1e6);
        ctx.run.ok(pong, || "probe: ping".into());
    }
    ctx.run.timing("server.ping_rtt", &pings, "us");
    ctx.run.set("server.ping_rtt_us", stats::median(&pings));
}

/// The interactive sessions of one phase, as columns of milliseconds.
struct Latencies {
    total: Vec<f64>,
    write: Vec<f64>,
    read: Vec<f64>,
}

impl Latencies {
    fn of(ctx: &mut Ctx<'_>, sessions: &[SessionMs]) -> Latencies {
        let col = |f: fn(&SessionMs) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
        let l = Latencies {
            total: col(|s| s.total),
            write: col(|s| s.write),
            read: col(|s| s.read),
        };
        ctx.run.timing("session (interactive)", &l.total, "ms");
        ctx.run
            .timing("session write half: submit..recorded", &l.write, "ms");
        ctx.run
            .timing("session read half: fetch..replayed", &l.read, "ms");
        ctx.run.check(!l.total.is_empty(), || {
            "no interactive session completed".into()
        });
        l
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure; failures inside sessions are counted.
pub fn run(ctx: &mut Ctx<'_>) -> Result<()> {
    // Set-up is a daemon start plus 24 poll-bound warm-up sessions.
    let mut state = timed_setup(ctx, Clock::Wall, setup)?;
    let cfg = ctx.cfg;
    let references: Vec<&Reference> = Combo::all()
        .into_iter()
        .map(|c| state.local.reference(c))
        .collect();
    let instructions: u64 = references.iter().map(|r| r.recording.instructions).sum();
    let cycles: u64 = references.iter().map(|r| r.recording.cycles).sum();
    let software: u64 = references
        .iter()
        .map(|r| r.recording.overhead.software_total())
        .sum();
    let shapes = references.len() as f64;
    let after = |seconds: f64| Instant::now() + Duration::from_secs_f64(seconds);

    if !cfg.trace {
        // The untraced run is all interactive: the batch phase's
        // capacity number repeats too poorly on a shared two-core host
        // (a fifth between runs) to carry a bound, so it is a per-layer
        // metric of the traced run.
        let stop = if cfg.quick {
            Stop::After(2)
        } else {
            Stop::At(after(cfg.seconds))
        };
        let started = Instant::now();
        let sessions = interactive(ctx, &mut state, stop, false);
        let elapsed = started.elapsed().as_secs_f64();
        let l = Latencies::of(ctx, &sessions);
        let (stored, _) = stored_bytes(ctx, &mut state);
        let per_s = |ms: &[f64]| CLIENTS as f64 * 1e3 / stats::median(ms).max(f64::MIN_POSITIVE);
        ctx.run.set("ops_per_s", sessions.len() as f64 / elapsed);
        ctx.run.set("write_ops_per_s", per_s(&l.write));
        ctx.run.set("read_ops_per_s", per_s(&l.read));
        ctx.run.set("latency_p50_ms", stats::median(&l.total));
        ctx.run.set(
            "stored_bytes_per_kinstr",
            stored as f64 / (instructions as f64 / 1e3),
        );
        ctx.run.set(
            "modelled_overhead_pct",
            100.0 * software as f64 / cycles as f64,
        );
        ctx.run.set("peak_rss_mb", crate::peak_rss_mb());
        return Ok(());
    }

    // Traced run: interactive sessions traced, then untraced (the two
    // medians give the tracing overhead), then the batch phase.
    let share = cfg.seconds / 2.0;
    let (traced, untraced, batch_stop) = if cfg.quick {
        (
            interactive(ctx, &mut state, Stop::After(2), true),
            Vec::new(),
            Stop::After(1),
        )
    } else {
        let traced = interactive(ctx, &mut state, Stop::At(after(share * 0.35)), true);
        let untraced = interactive(ctx, &mut state, Stop::At(after(share * 0.35)), false);
        (traced, untraced, Stop::At(after(share * 0.3)))
    };
    let l = Latencies::of(ctx, &traced);
    let p50 = stats::median(&l.total);
    let (rounds, submissions, busy) = batch(ctx, &mut state, batch_stop);
    ctx.run.timing("batch round (24 sessions)", &rounds, "s");
    ctx.run
        .check(!rounds.is_empty(), || "no batch round completed".into());
    let (stored, raw) = stored_bytes(ctx, &mut state);

    let table = ctx.span_table();
    spans::layer_metrics(&table, &[spans::ROOT_SESSION], &mut ctx.run);
    spans::coverage_gate(ctx);
    ctx.run.set("workloads.build_ms", state.local.build_ms);
    ctx.run.set(
        "server.session_p95_ms",
        stats::supported_percentile(&l.total, 95.0),
    );
    ctx.run.set(
        "server.batch_sessions_per_s",
        (CLIENTS * BATCH) as f64 / stats::median(&rounds).max(f64::MIN_POSITIVE),
    );
    ctx.run.set(
        "server.busy_share",
        100.0 * busy as f64 / submissions.max(1) as f64,
    );
    let fetched: Vec<f64> = state.fetch_bytes.values().map(|b| *b as f64).collect();
    ctx.run.set("server.fetch_bytes", stats::mean(&fetched));
    ctx.run
        .set("store.ratio", raw as f64 / stored.max(1) as f64);
    if !untraced.is_empty() {
        let base = stats::median(&untraced.iter().map(|s| s.total).collect::<Vec<_>>());
        ctx.run
            .set("obs.trace_overhead_pct", 100.0 * (p50 - base) / base);
    }
    ctx.run.set("trace.write_half_ms", stats::median(&l.write));
    ctx.run.set("trace.read_half_ms", stats::median(&l.read));
    // A daemon "sweep" is one session of average shape.
    ctx.run.set("work.ops_per_sweep", 1.0);
    ctx.run.set("work.sweeps", l.total.len() as f64);
    ctx.run
        .set("work.minstr_per_sweep", instructions as f64 / 1e6 / shapes);
    ctx.run
        .set("work.stored_mb_per_sweep", stored as f64 / 1e6 / shapes);
    ctx.run
        .set("work.raw_mb_per_sweep", raw as f64 / 1e6 / shapes);
    ctx.run.set(
        "work.tail_percentile",
        stats::tail_percentile(l.total.len()).unwrap_or(50.0),
    );
    let local = local_equivalent(ctx, &state);
    if let Some(local) = ctx.run.ok(local, || "local equivalent of a session".into()) {
        ctx.run.timing("server.local_equiv", &local, "ms");
        let local_p50 = stats::median(&local);
        ctx.run.set("server.local_equiv_ms", local_p50);
        ctx.run.set("server.session_overhead_ms", p50 - local_p50);
    }
    connection_probes(ctx, &mut state);
    let pairs: Vec<(&Built, &Recording)> = state
        .local
        .programs
        .iter()
        .zip(&state.local.references)
        .map(|(b, r)| (b, &r[1].recording))
        .collect();
    probes::program_probes(ctx, &pairs);
    probes::micro_probes(ctx);
    Ok(())
}
