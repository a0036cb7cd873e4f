//! `pipeline_compute` and `pipeline_sharing`: the whole in-process path
//! — record, serialise, store, fetch, load, replay — over two program
//! mixes that use the same code in opposite ways.
//!
//! Compute (fft, lu, ocean, volrend; Delta; total order) is bound by
//! the simulator: long chunks, private data, logs of a few tens of KB.
//! Sharing (cholesky, radiosity, radix, raytrace; Raw; partial order)
//! ends chunks early on coherence conflicts: thousands of short chunks,
//! logs ten to thirty times larger, happens-before derivation at record
//! time and an ordered (DAG-constrained) replay. A change that helps one
//! mix at the other's cost shows as a regression on the other.

use crate::corpus::{self, Built};
use crate::{drive_sweeps, probes, timed_setup, Clock, Ctx, Sweep};
use qr_capo::{record, Recording};
use qr_common::Result;
use qr_store::RecordingStore;
use quickrec_core::{Encoding, OrderMode};
use std::time::Instant;

/// Which program mix runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Simulator-bound mix, total order, serial replay.
    Compute,
    /// Coherence-bound mix, partial order, ordered replay.
    Sharing,
}

impl Flavor {
    fn programs(self) -> [&'static str; 4] {
        match self {
            Flavor::Compute => ["fft", "lu", "ocean", "volrend"],
            Flavor::Sharing => ["cholesky", "radiosity", "radix", "raytrace"],
        }
    }

    fn encoding(self) -> Encoding {
        match self {
            Flavor::Compute => Encoding::Delta,
            Flavor::Sharing => Encoding::Raw,
        }
    }

    fn order(self) -> OrderMode {
        match self {
            Flavor::Compute => OrderMode::TotalOrder,
            Flavor::Sharing => OrderMode::PartialOrder,
        }
    }
}

/// Guest threads (= simulated cores) of every program.
const THREADS: usize = 4;

struct State {
    flavor: Flavor,
    programs: Vec<Built>,
    build_ms: f64,
    store: RecordingStore,
    /// The last sweep's recordings: what the traced run's probes reuse.
    last: Vec<Recording>,
}

fn setup(ctx: &mut Ctx<'_>, flavor: Flavor) -> Result<State> {
    let started = Instant::now();
    let programs = corpus::build_all(&flavor.programs(), THREADS, ctx.cfg.scale())?;
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let store = RecordingStore::open(&ctx.scratch.fresh("store"))?;
    let mut state = State {
        flavor,
        programs,
        build_ms,
        store,
        last: Vec::new(),
    };
    // Warm-up: one untimed sweep, so the timed ones start with warm
    // caches, a grown heap and a populated store directory.
    sweep(&mut state, ctx, 0);
    Ok(state)
}

fn sweep(state: &mut State, ctx: &mut Ctx<'_>, id: u64) -> Sweep {
    let tr = ctx.tracer;
    let seed = ctx.cfg.seed;
    let flavor = state.flavor;
    let encoding = flavor.encoding();
    let mut s = Sweep::default();
    let (mut stored, mut raw, mut instructions, mut cycles, mut software, mut fingerprints) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    state.last.clear();
    for built in &state.programs {
        let name = built.spec.name;
        ctx.calibrate();
        // Write half: simulate under the recorder, serialise, commit.
        let t0 = Instant::now();
        let cfg = corpus::rec_cfg(built.threads, flavor.order(), seed);
        let recorded = tr.call("capo.record", id, || record(built.program.clone(), cfg));
        let Some(recording) = ctx
            .run
            .ok(recorded, || format!("sweep {id}: record {name}"))
        else {
            continue;
        };
        let parts = tr.call("capo.to_parts", id, || recording.to_parts(encoding));
        let put = tr.call("store.put_parts", id, || {
            state
                .store
                .put_parts(name, &parts, encoding, recording.fingerprint)
        });
        s.write_s += t0.elapsed().as_secs_f64();
        ctx.run.check(corpus::exit_ok(built, &recording), || {
            format!(
                "sweep {id}: {name} exited with {:#x}, expected {:#x}",
                recording.exit_code, built.expected
            )
        });
        let Some(entry) = ctx.run.ok(put, || format!("sweep {id}: put {name}")) else {
            continue;
        };
        s.write_ops += 2;
        ctx.calibrate();

        // Read half: fetch every block back, load, replay, verify.
        let t1 = Instant::now();
        let fetched = tr.call("store.fetch_parts", id, || state.store.fetch_parts(entry));
        let Some((manifest, back)) = ctx.run.ok(fetched, || format!("sweep {id}: fetch {name}"))
        else {
            continue;
        };
        let same_bytes = back == parts;
        let loaded = tr.call("capo.from_parts", id, || Recording::from_parts(&back));
        let replayed = loaded.and_then(|loaded| match flavor {
            Flavor::Compute => tr.call("replay.serial", id, || {
                qr_replay::replay_and_verify(&built.program, &loaded)
            }),
            Flavor::Sharing => tr.call("replay.ordered_j1", id, || {
                qr_replay::replay_ordered_and_verify(&built.program, &loaded, 1)
            }),
        });
        s.read_s += t1.elapsed().as_secs_f64();
        ctx.run.check(same_bytes, || {
            format!("sweep {id}: {name}: fetched bytes differ from the bytes put")
        });
        if let Some(outcome) = ctx
            .run
            .ok(replayed, || format!("sweep {id}: replay {name}"))
        {
            ctx.run
                .check(outcome.fingerprint == recording.fingerprint, || {
                    format!(
                        "sweep {id}: {name}: replay fingerprint {:#x} != recorded {:#x}",
                        outcome.fingerprint, recording.fingerprint
                    )
                });
        }
        s.read_ops += 2;

        stored += manifest.compressed_bytes();
        raw += manifest.uncompressed_bytes();
        instructions += recording.instructions;
        cycles += recording.cycles;
        software += recording.overhead.software_total();
        fingerprints ^= recording.fingerprint.rotate_left(state.last.len() as u32);
        state.last.push(recording);
    }
    ctx.calibrate();
    s.exact = vec![
        ("stored_bytes", stored),
        ("raw_bytes", raw),
        ("instructions", instructions),
        ("cycles", cycles),
        ("software_overhead_cycles", software),
        ("fingerprints", fingerprints),
    ];
    s
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up failure; failures inside sweeps are counted.
pub fn run(ctx: &mut Ctx<'_>, flavor: Flavor) -> Result<()> {
    let mut state = timed_setup(ctx, Clock::HostNormalised, |ctx| setup(ctx, flavor))?;
    let sweeps = drive_sweeps(ctx, |ctx, id| sweep(&mut state, ctx, id));
    sweeps.report(ctx);
    if ctx.cfg.trace {
        ctx.run.set("workloads.build_ms", state.build_ms);
        let pairs: Vec<(&Built, &Recording)> = state.programs.iter().zip(&state.last).collect();
        probes::program_probes(ctx, &pairs);
        probes::micro_probes(ctx);
    }
    Ok(())
}
