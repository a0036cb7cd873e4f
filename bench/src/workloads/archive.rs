//! `archive_churn`: the store and the codecs with no simulation in the
//! timed region.
//!
//! Set-up records the eleven-workload suite under both ordering modes.
//! A sweep then pushes every recording, in each of the three chunk
//! encodings, through serialise → put → fetch → compare → load →
//! consistency check → store verify, and finishes with a read-only pass
//! that fetches every entry twice more, so reads run beside writes in
//! the same store. Each sweep works in a fresh store root, removed
//! outside the timed region.
//!
//! This is the only workload where `core` encodings, `common`
//! CRC/framing and `store` LZ/blocks/rename-commit do most of the work:
//! a compressor change that speeds puts but slows fetches shows in the
//! two halves.

use crate::corpus::{self, Built};
use crate::{drive_sweeps, probes, timed_setup, Clock, Ctx, Sweep};
use qr_capo::{record, Recording};
use qr_common::{Result, SplitMix64};
use qr_store::RecordingStore;
use quickrec_core::{Encoding, OrderMode};
use std::time::Instant;

const THREADS: usize = 4;
/// Programs the traced run's simulator probes use: four small ones, so
/// the probes stay a fraction of the run.
const PROBED: [&str; 4] = ["fft", "lu", "radix", "water"];

struct Item {
    built: usize,
    recording: Recording,
}

struct State {
    programs: Vec<Built>,
    build_ms: f64,
    /// Every recording of the corpus, in seeded order.
    corpus: Vec<Item>,
}

fn setup(ctx: &mut Ctx<'_>) -> Result<State> {
    let started = Instant::now();
    let names: Vec<&str> = qr_workloads::suite().iter().map(|w| w.name).collect();
    let programs = corpus::build_all(&names, THREADS, ctx.cfg.scale())?;
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut corpus = Vec::new();
    for (i, built) in programs.iter().enumerate() {
        ctx.calibrate();
        for order in [OrderMode::TotalOrder, OrderMode::PartialOrder] {
            let recording = record(
                built.program.clone(),
                corpus::rec_cfg(THREADS, order, ctx.cfg.seed),
            )?;
            ctx.run.check(corpus::exit_ok(built, &recording), || {
                format!(
                    "setup: {} exited with {:#x}",
                    built.spec.name, recording.exit_code
                )
            });
            corpus.push(Item {
                built: i,
                recording,
            });
        }
    }
    corpus::shuffle(&mut corpus, &mut SplitMix64::new(ctx.cfg.seed));
    let mut state = State {
        programs,
        build_ms,
        corpus,
    };
    sweep(&mut state, ctx, 0);
    Ok(state)
}

fn sweep(state: &mut State, ctx: &mut Ctx<'_>, id: u64) -> Sweep {
    let tr = ctx.tracer;
    let mut s = Sweep::default();
    let root = ctx.scratch.fresh("archive");
    let opened = tr.call("store.open", id, || RecordingStore::open(&root));
    let Some(store) = ctx.run.ok(opened, || format!("sweep {id}: open store")) else {
        return s;
    };
    let (mut stored, mut raw, mut instructions, mut cycles, mut software) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut entries = Vec::new();
    for item in &state.corpus {
        let recording = &item.recording;
        let name = state.programs[item.built].spec.name;
        ctx.calibrate();
        for encoding in Encoding::ALL {
            let what = |op: &str| {
                format!(
                    "sweep {id}: {op} {name}/{}/{}",
                    encoding.name(),
                    recording.order_mode().name()
                )
            };
            let t0 = Instant::now();
            let parts = tr.call("capo.to_parts", id, || recording.to_parts(encoding));
            let put = tr.call("store.put_parts", id, || {
                store.put_parts(name, &parts, encoding, recording.fingerprint)
            });
            s.write_s += t0.elapsed().as_secs_f64();
            let Some(entry) = ctx.run.ok(put, || what("put")) else {
                continue;
            };
            s.write_ops += 1;

            let t1 = Instant::now();
            let fetched = tr.call("store.fetch_parts", id, || store.fetch_parts(entry));
            let Some((manifest, back)) = ctx.run.ok(fetched, || what("fetch")) else {
                continue;
            };
            let same_bytes = back == parts;
            let loaded = tr.call("capo.from_parts", id, || Recording::from_parts(&back));
            let consistent = loaded.and_then(|loaded| {
                tr.call("capo.check_consistency", id, || loaded.check_consistency())?;
                Ok(loaded.fingerprint)
            });
            let verified = tr.call("store.verify", id, || store.verify(entry));
            s.read_s += t1.elapsed().as_secs_f64();
            ctx.run.check(same_bytes, || {
                format!(
                    "{}: fetched bytes differ from the bytes put",
                    what("compare")
                )
            });
            if let Some(fingerprint) = ctx.run.ok(consistent, || what("load")) {
                ctx.run.check(fingerprint == recording.fingerprint, || {
                    format!("{}: fingerprint changed in the store", what("load"))
                });
            }
            if let Some(report) = ctx.run.ok(verified, || what("verify")) {
                ctx.run.check(report.all_ok(), || {
                    format!("{}: store entry failed verification", what("verify"))
                });
            }
            s.read_ops += 2;

            stored += manifest.compressed_bytes();
            raw += manifest.uncompressed_bytes();
            instructions += recording.instructions;
            cycles += recording.cycles;
            software += recording.overhead.software_total();
            entries.push((entry, manifest.uncompressed_bytes()));
        }
    }
    // Read-only pass over a store that now holds every entry.
    ctx.calibrate();
    let t2 = Instant::now();
    for _ in 0..2 {
        for &(entry, bytes) in &entries {
            let fetched = tr.call("store.fetch_parts", id, || store.fetch_parts(entry));
            if let Some((_, parts)) = ctx
                .run
                .ok(fetched, || format!("sweep {id}: re-fetch entry {entry}"))
            {
                ctx.run.check(corpus::image_bytes(&parts) == bytes, || {
                    format!("sweep {id}: re-fetched entry {entry} changed size")
                });
            }
            s.read_ops += 1;
        }
    }
    s.read_s += t2.elapsed().as_secs_f64();
    ctx.calibrate();
    s.exact = vec![
        ("stored_bytes", stored),
        ("raw_bytes", raw),
        ("instructions", instructions),
        ("cycles", cycles),
        ("software_overhead_cycles", software),
    ];
    // Removing the sweep's store is not part of the sweep.
    s.cleanup = Some(root);
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
        let pairs: Vec<(&Built, &Recording)> = PROBED
            .iter()
            .filter_map(|name| {
                state
                    .corpus
                    .iter()
                    .find(|item| {
                        state.programs[item.built].spec.name == *name
                            && item.recording.order.is_some()
                    })
                    .map(|item| (&state.programs[item.built], &item.recording))
            })
            .collect();
        probes::program_probes(ctx, &pairs);
        probes::micro_probes(ctx);
    }
    Ok(())
}
