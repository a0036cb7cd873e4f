//! `time_travel`: the checkpoint index as a write beside the seeks that
//! read it.
//!
//! Set-up records lu, radix and fft and walks each recording once from
//! scratch, noting the instruction and console counts at every timeline
//! position and the state fingerprint at every position a check will
//! need — the reference indexed seeks are compared with. A sweep then,
//! per recording, builds the index at the daemon's shipped interval,
//! serialises it and attaches it to the recording's file images
//! (write); parses it back and attaches it to a fresh query engine
//! (reload); and runs 300 seeded-uniform seeks plus a Range / Window /
//! ReverseStep query mix (read). Every seek's counts and every query's
//! answer are checked against the from-scratch walk; every tenth seek's
//! state fingerprint is too (hashing guest memory costs more than the
//! seek it checks), and every hundredth seek is repeated on an
//! index-less engine and compared state for state.
//!
//! A denser or delta-encoded index trades index bytes and build speed
//! against seek speed; only this workload shows all three at once.

use crate::corpus::{self, Built};
use crate::{drive_sweeps, probes, timed_setup, Clock, Ctx, Sweep};
use qr_capo::{record, Recording, RecordingParts};
use qr_common::{Result, SplitMix64};
use qr_replay::{CheckpointIndex, QueryEngine, QueryResult, ReplayQuery, Replayer};
use quickrec_core::{Encoding, OrderMode};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const THREADS: usize = 4;
const PROGRAMS: [&str; 3] = ["lu", "radix", "fft"];
/// Timeline events between checkpoints: the value `quickrecd` ships
/// (`CHECKPOINT_INTERVAL` in `qr-server`, which is private).
const INTERVAL: usize = 25;
/// Seeks per recording per sweep.
const SEEKS: usize = 300;
/// Every this-many-th seek's state fingerprint is checked.
const FINGERPRINT_EVERY: usize = 10;
/// Every this-many-th seek is repeated from scratch and compared.
const SCRATCH_EVERY: usize = 100;
/// Seeks between host-speed calibration slices.
const CALIBRATE_EVERY: usize = 50;

/// The cheap part of a replayer's state at one timeline position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    instructions: u64,
    console_len: usize,
}

impl Counts {
    fn of(rp: &Replayer<'_>) -> Counts {
        Counts {
            instructions: rp.instructions_so_far(),
            console_len: rp.console_so_far().len(),
        }
    }
}

/// What one uninterrupted from-scratch replay saw.
struct Reference {
    /// Counts at every position `0..=timeline_len`.
    counts: Vec<Counts>,
    /// State fingerprint at the positions the checks look at.
    fingerprints: BTreeMap<usize, u64>,
}

struct Subject {
    built: Built,
    recording: Recording,
    parts: RecordingParts,
    reference: Reference,
    targets: Vec<usize>,
    queries: Vec<ReplayQuery>,
}

struct State {
    subjects: Vec<Subject>,
    build_ms: f64,
}

fn reference_walk(
    built: &Built,
    recording: &Recording,
    wanted: &BTreeSet<usize>,
) -> Result<Reference> {
    let mut rp = Replayer::new(&built.program, recording)?;
    let mut reference = Reference {
        counts: Vec::new(),
        fingerprints: BTreeMap::new(),
    };
    loop {
        if wanted.contains(&rp.position()) {
            reference
                .fingerprints
                .insert(rp.position(), rp.partial_fingerprint());
        }
        reference.counts.push(Counts::of(&rp));
        if !rp.step_timeline()? {
            return Ok(reference);
        }
    }
}

fn setup(ctx: &mut Ctx<'_>) -> Result<State> {
    let started = Instant::now();
    let programs = corpus::build_all(&PROGRAMS, THREADS, ctx.cfg.scale())?;
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut rng = SplitMix64::new(ctx.cfg.seed);
    let seeks = if ctx.cfg.quick { SEEKS / 10 } else { SEEKS };
    let mut subjects = Vec::new();
    for built in programs {
        ctx.calibrate();
        let recording = record(
            built.program.clone(),
            corpus::rec_cfg(THREADS, OrderMode::TotalOrder, ctx.cfg.seed),
        )?;
        ctx.run.check(corpus::exit_ok(&built, &recording), || {
            format!(
                "setup: {} exited with {:#x}",
                built.spec.name, recording.exit_code
            )
        });
        let planner = QueryEngine::new(&built.program, &recording)?;
        let len = planner.timeline_len();
        let chunks = recording.chunks.len() as u64;
        let targets: Vec<usize> = (0..seeks)
            .map(|_| rng.below(len as u64 + 1) as usize)
            .collect();
        let mut queries = Vec::new();
        for _ in 0..2 {
            let start = rng.below(chunks.saturating_sub(8).max(1));
            queries.push(ReplayQuery::Range {
                start,
                end: (start + 8).min(chunks),
            });
            let from = rng.below(recording.instructions.saturating_sub(20_000).max(1));
            queries.push(ReplayQuery::Window {
                start: from,
                end: (from + 20_000).min(recording.instructions),
            });
            queries.push(ReplayQuery::ReverseStep {
                events: 1 + rng.below(len as u64),
            });
        }
        // Fingerprints are needed where a checked seek lands and where
        // a query's span ends.
        let mut wanted: BTreeSet<usize> =
            targets.iter().copied().step_by(FINGERPRINT_EVERY).collect();
        for query in &queries {
            wanted.insert(planner.plan(*query)?.end as usize);
        }
        let reference = reference_walk(&built, &recording, &wanted)?;
        drop(planner);
        let parts = recording.to_parts(Encoding::Delta);
        subjects.push(Subject {
            built,
            recording,
            parts,
            reference,
            targets,
            queries,
        });
    }
    let mut state = State { subjects, build_ms };
    sweep(&mut state, ctx, 0);
    Ok(state)
}

/// Whether a query's answer agrees with the from-scratch walk.
fn query_ok(result: &QueryResult, reference: &Reference) -> bool {
    let (start, end) = (result.start as usize, result.end as usize);
    let counts = &reference.counts;
    start <= end
        && end < counts.len()
        && result.diverged.is_none()
        && result.events.len() == end - start
        && reference.fingerprints.get(&end) == Some(&result.fingerprint)
        && result.instructions == counts[end].instructions - counts[start].instructions
        && result.console.len() == counts[end].console_len - counts[start].console_len
}

fn sweep(state: &mut State, ctx: &mut Ctx<'_>, id: u64) -> Sweep {
    let tr = ctx.tracer;
    let mut s = Sweep::default();
    let (mut index_bytes, mut instructions, mut cycles, mut software, mut reexec, mut seen) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for subject in &state.subjects {
        let name = subject.built.spec.name;
        let (program, recording) = (&subject.built.program, &subject.recording);
        ctx.calibrate();

        // Write: build, serialise, attach to the file images.
        let t0 = Instant::now();
        let built = tr.call("replay.index_build", id, || {
            CheckpointIndex::build(program, recording, INTERVAL)
        });
        let Some(index) = ctx
            .run
            .ok(built, || format!("sweep {id}: index build for {name}"))
        else {
            continue;
        };
        let bytes = tr.call("replay.index_to_bytes", id, || index.to_bytes());
        let mut parts = subject.parts.clone();
        let len_bytes = bytes.len() as u64;
        let attached = tr.call("capo.attach_checkpoints", id, || {
            parts.attach_checkpoints(bytes)
        });
        s.write_s += t0.elapsed().as_secs_f64();
        ctx.run
            .ok(attached, || format!("sweep {id}: attach index to {name}"));
        s.write_ops += 1;

        // Reload: parse the sidecar back and hang it on a fresh engine.
        let t1 = Instant::now();
        let sidecar = parts.checkpoints.as_deref().unwrap_or_default();
        let parsed = tr.call("replay.index_from_bytes", id, || {
            CheckpointIndex::from_bytes(sidecar)
        });
        let engine = tr.call("replay.engine_new", id, || {
            QueryEngine::new(program, recording)
        });
        let reload_s = t1.elapsed().as_secs_f64();
        let Some(parsed) = ctx
            .run
            .ok(parsed, || format!("sweep {id}: parse index of {name}"))
        else {
            continue;
        };
        ctx.run.check(parsed == index, || {
            format!("sweep {id}: {name}: index changed across to_bytes/from_bytes")
        });
        let Some(mut engine) = ctx
            .run
            .ok(engine, || format!("sweep {id}: query engine for {name}"))
        else {
            continue;
        };
        let scratch = QueryEngine::new(program, recording).ok();
        let positions: Vec<u64> = parsed.keys.iter().map(|k| k.position).collect();
        let t2 = Instant::now();
        let attached = tr.call("replay.attach_index", id, || engine.attach_index(parsed));
        s.read_s += reload_s + t2.elapsed().as_secs_f64();
        ctx.run
            .ok(attached, || format!("sweep {id}: attach index for {name}"));
        s.read_ops += 1;

        // Read: seeded seeks, each checked against the reference walk.
        for (k, &target) in subject.targets.iter().enumerate() {
            if k % CALIBRATE_EVERY == 0 {
                ctx.calibrate();
            }
            let t = Instant::now();
            let sought = tr.call("replay.seek", id, || engine.seek(target));
            let took = t.elapsed().as_secs_f64();
            s.read_s += took;
            s.unit_ms.push(took * 1e3);
            s.read_ops += 1;
            let Some(rp) = ctx
                .run
                .ok(sought, || format!("sweep {id}: seek {name}@{target}"))
            else {
                continue;
            };
            let at = Counts::of(&rp);
            let mut same = rp.position() == target && at == subject.reference.counts[target];
            if k % FINGERPRINT_EVERY == 0 {
                let fingerprint =
                    tr.call("replay.state_fingerprint", id, || rp.partial_fingerprint());
                same &= subject.reference.fingerprints.get(&target) == Some(&fingerprint);
                seen ^= fingerprint.rotate_left(k as u32);
            }
            ctx.run.check(same, || format!("sweep {id}: indexed seek {name}@{target} differs from the from-scratch walk ({at:?})"));
            let floor = positions
                .iter()
                .take_while(|p| **p <= target as u64)
                .last()
                .copied()
                .unwrap_or(0);
            reexec += target as u64 - floor;
            if k % SCRATCH_EVERY == 0 {
                if let Some(scratch) = &scratch {
                    let again = tr.call("replay.scratch_seek", id, || scratch.seek(target));
                    if let Some(again) = ctx.run.ok(again, || {
                        format!("sweep {id}: from-scratch seek {name}@{target}")
                    }) {
                        let same = Counts::of(&again) == at
                            && again.console_so_far() == rp.console_so_far()
                            && tr.call("replay.state_fingerprint", id, || {
                                again.partial_fingerprint() == rp.partial_fingerprint()
                            });
                        ctx.run.check(same, || format!("sweep {id}: {name}@{target}: indexed and index-less seeks disagree"));
                    }
                }
            }
        }
        for query in &subject.queries {
            let span = match query {
                ReplayQuery::Range { .. } => "replay.query.range",
                ReplayQuery::Window { .. } => "replay.query.window",
                _ => "replay.query.reverse_step",
            };
            let t = Instant::now();
            let answer = tr.call(span, id, || engine.execute(*query, None));
            s.read_s += t.elapsed().as_secs_f64();
            s.read_ops += 1;
            if let Some(answer) = ctx
                .run
                .ok(answer, || format!("sweep {id}: {name}: {query}"))
            {
                ctx.run.check(query_ok(&answer, &subject.reference), || {
                    format!("sweep {id}: {name}: {query} disagrees with the from-scratch walk")
                });
                seen ^= answer.fingerprint;
            }
        }
        ctx.calibrate();
        index_bytes += len_bytes;
        instructions += recording.instructions;
        cycles += recording.cycles;
        software += recording.overhead.software_total();
    }
    s.exact = vec![
        ("stored_bytes", index_bytes),
        ("raw_bytes", index_bytes),
        ("index_bytes", index_bytes),
        ("instructions", instructions),
        ("cycles", cycles),
        ("software_overhead_cycles", software),
        ("seek_reexec_events", reexec),
        ("fingerprints", seen),
    ];
    s
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure; failures inside sweeps are counted.
pub fn run(ctx: &mut Ctx<'_>) -> Result<()> {
    let mut state = timed_setup(ctx, Clock::HostNormalised, setup)?;
    let sweeps = drive_sweeps(ctx, |ctx, id| sweep(&mut state, ctx, id));
    sweeps.report(ctx);
    if ctx.cfg.trace {
        ctx.run.set("workloads.build_ms", state.build_ms);
        let seeks: usize = state.subjects.iter().map(|s| s.targets.len()).sum();
        if let Some(first) = sweeps.all.first() {
            let reexec = first
                .exact
                .iter()
                .find(|e| e.0 == "seek_reexec_events")
                .map_or(0, |e| e.1);
            ctx.run.set(
                "replay.seek_reexec_events",
                reexec as f64 / seeks.max(1) as f64,
            );
        }
        let pairs: Vec<(&Built, &Recording)> = state
            .subjects
            .iter()
            .map(|s| (&s.built, &s.recording))
            .collect();
        probes::program_probes(ctx, &pairs);
        probes::micro_probes(ctx);
    }
    Ok(())
}
