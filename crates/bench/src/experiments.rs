//! The experiment catalog: every table and figure of the QuickRec
//! evaluation, expressed as declarative job lists for the parallel
//! executor (see `runner`).
//!
//! Each experiment contributes one [`Job`] per (workload, configuration)
//! tuple. Jobs run in any order on worker threads; rendering consumes
//! their outputs in submission order, so the printed report is identical
//! whichever execution mode produced it.

use crate::runner::{run_jobs, BuildCache, ExecMode, Job, JobOutput};
use crate::{hw_cfg, overhead_pct, pct, record_workload_with, run_native_workload_with, Table,
            CORE_HZ};
use qr_capo::{InputEvent, RecordingConfig};
use qr_common::QrError;
use qr_mem::TsoMode;
use qr_workloads::{suite, Scale, WorkloadSpec};
use quickrec_core::{Encoding, MrrConfig, OrderMode, TerminationReason};

/// Every experiment `repro all` runs, in report order. Each prints only
/// seed-deterministic numbers, so the whole report is byte-identical
/// run to run and across execution modes.
pub const ALL_IDS: [&str; 24] = [
    "t1", "t2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e9b", "e10", "e11", "e12",
    "e14", "e15", "a1", "a2", "a3", "a5", "a6", "r1", "v1",
];

/// Experiments that must be named explicitly. E16 prints deterministic
/// bytes like the rest, but it needs ≈2 200 file descriptors (or a live
/// daemon behind `QR_E16_SOCKET`), which `repro all` should not demand
/// of every host.
pub const EXPLICIT_ONLY_IDS: [&str; 1] = ["e16"];

/// What an experiment prints after its table.
enum Footer {
    /// Nothing.
    None,
    /// A fixed line.
    Static(&'static str),
    /// A line computed from the mean of the jobs' footer statistics.
    MeanStat(fn(f64) -> String),
    /// A line computed from the sum of the jobs' footer statistics.
    SumStat(fn(f64) -> String),
}

/// One experiment: identity, table shape, and its job list.
pub struct Experiment {
    /// Report id (`e5`, `a1`, …).
    pub id: &'static str,
    title: &'static str,
    note: &'static str,
    header: Vec<String>,
    jobs: Vec<Job>,
    footer: Footer,
}

fn full_cfg(threads: usize) -> RecordingConfig {
    crate::full_cfg(threads)
}

/// Builds the experiment with the given id, or `None` for unknown ids.
pub fn plan(id: &str) -> Option<Experiment> {
    Some(match id {
        "t1" => t1(),
        "t2" => t2(),
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e9b" => e9b(),
        "e10" => e10(),
        "e11" => e11(),
        "e12" => e12(),
        "e14" => e14(),
        "e15" => e15(),
        "e16" => e16(),
        "a1" => a1(),
        "a2" => a2(),
        "a3" => a3(),
        "a5" => a5(),
        "a6" => a6(),
        "r1" => r1(),
        "v1" => v1(),
        _ => return None,
    })
}

/// Renders the named experiments, executing all of their jobs under
/// `mode` with one shared build cache.
///
/// Returns the rendered report up to the first failure; on failure the
/// offending experiment id and error are returned alongside the partial
/// output (matching the serial harness, which stops at the first failing
/// experiment).
///
/// # Panics
///
/// Panics on unknown experiment ids — the CLI validates ids first.
pub fn render_experiments(
    ids: &[&str],
    mode: ExecMode,
) -> (String, Option<(&'static str, QrError)>) {
    let mut experiments: Vec<Experiment> =
        ids.iter().map(|id| plan(id).unwrap_or_else(|| panic!("unknown experiment `{id}`"))).collect();
    let mut all_jobs: Vec<Job> = Vec::new();
    let mut job_counts = Vec::with_capacity(experiments.len());
    for exp in &mut experiments {
        job_counts.push(exp.jobs.len());
        all_jobs.append(&mut exp.jobs);
    }
    let cache = BuildCache::new();
    let mut results = run_jobs(all_jobs, &cache, mode).into_iter();

    let mut out = String::new();
    for (exp, count) in experiments.iter().zip(job_counts) {
        out.push_str(&format!("\n=== {}: {} ===\n", exp.id.to_uppercase(), exp.title));
        if !exp.note.is_empty() {
            out.push_str(&format!("({})\n\n", exp.note));
        }
        let mut table = Table::new(exp.header.clone());
        let mut stats = Vec::new();
        for _ in 0..count {
            match results.next().expect("one result per job") {
                Ok(output) => {
                    for row in output.rows {
                        table.row(row);
                    }
                    if let Some(stat) = output.stat {
                        stats.push(stat);
                    }
                }
                Err(err) => return (out, Some((exp.id, err))),
            }
        }
        out.push_str(&table.render());
        match exp.footer {
            Footer::None => {}
            Footer::Static(line) => {
                out.push_str(line);
                out.push('\n');
            }
            Footer::MeanStat(fmt) => {
                let mean = stats.iter().sum::<f64>() / stats.len() as f64;
                out.push_str(&fmt(mean));
                out.push('\n');
            }
            Footer::SumStat(fmt) => {
                out.push_str(&fmt(stats.iter().sum()));
                out.push('\n');
            }
        }
    }
    (out, None)
}

/// One job per suite workload, in canonical order.
fn per_workload(f: impl Fn(WorkloadSpec) -> Job) -> Vec<Job> {
    suite().into_iter().map(f).collect()
}

/// T1 — platform configuration (the paper's system-parameters table).
fn t1() -> Experiment {
    let job: Job = Box::new(|_cache| {
        let cfg = RecordingConfig::with_cores(4);
        let mut rows = JobOutput::default();
        let mut row = |k: &str, v: String| rows.rows.push(vec![k.to_string(), v]);
        row("cores", format!("{}", cfg.cpu.num_cores));
        row("ISA", "PIA (32-bit IA-like, 8-byte fixed encoding)".to_string());
        row("memory model", "TSO (store buffers with forwarding)".to_string());
        row("L1 per core", format!("{} KiB ({} sets x {} ways x 64 B), MESI",
            cfg.cpu.mem.l1_bytes() / 1024, cfg.cpu.mem.l1_sets, cfg.cpu.mem.l1_ways));
        row("store buffer", format!("{} entries, background drain 1/{} instrs",
            cfg.cpu.mem.store_buffer_entries, cfg.cpu.drain_interval));
        row("miss penalty", format!("{} cycles (+{} dirty intervention)",
            cfg.cpu.mem.miss_penalty, cfg.cpu.mem.intervention_penalty));
        row("read signature", format!("{} bits, {} hashes", cfg.mrr.read_sig_bits, cfg.mrr.sig_hashes));
        row("write signature", format!("{} bits, {} hashes", cfg.mrr.write_sig_bits, cfg.mrr.sig_hashes));
        row("sig saturation limit", format!("{}%", cfg.mrr.sig_saturation_permille / 10));
        row("max chunk size", format!("{} instructions", cfg.mrr.max_chunk_icount));
        row("CBUF", format!("{} packets, DMA 1 packet/{} cycles", cfg.mrr.cbuf_entries, cfg.mrr.cbuf_drain_cycles));
        row("CMEM", format!("{} KiB, interrupt at {} KiB",
            cfg.mrr.cmem_capacity / 1024, cfg.mrr.cmem_interrupt_threshold / 1024));
        row("log encoding", cfg.mrr.encoding.name().to_string());
        row("OS quantum", format!("{} cycles", cfg.os.quantum_cycles));
        row("RSM syscall intercept", format!("{} cycles", cfg.overhead.syscall_intercept_cycles));
        row("RSM drain interrupt", format!("{} + {}/byte cycles",
            cfg.overhead.drain_base_cycles, cfg.overhead.drain_cycles_per_byte));
        Ok(rows)
    });
    Experiment {
        id: "t1",
        title: "QuickRec-RS platform configuration",
        note: "paper analog: QuickIA system parameters table",
        header: vec!["parameter".into(), "value".into()],
        jobs: vec![job],
        footer: Footer::None,
    }
}

/// T2 — the workload suite (the paper's benchmarks table).
fn t2() -> Experiment {
    Experiment {
        id: "t2",
        title: "workload suite (SPLASH-2 analogs)",
        note: "reference-scale sizes, 4 threads",
        header: vec!["workload".into(), "instructions".into(), "sync pattern".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let out = run_native_workload_with(cache, &spec, 4, Scale::Reference)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    format!("{}", out.instructions),
                    spec.description.to_string(),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E1 — memory-log generation rate (abstract claim: "insignificant").
fn e1() -> Experiment {
    Experiment {
        id: "e1",
        title: "memory-log generation rate",
        note: "paper: the rate of memory log generation is insignificant; \
         expect ~1-5 B/kilo-instruction for regular kernels, more for irregular ones",
        header: vec!["workload".into(), "chunks".into(), "log bytes".into(),
            "B/kilo-instr".into(), "KB/s @60MHz".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let bytes = r.chunks.to_bytes(Encoding::Delta).len();
                let bpki = r.log_bytes_per_kilo_instruction(Encoding::Delta);
                let kbs = bytes as f64 / (r.cycles as f64 / CORE_HZ) / 1024.0;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.len().to_string(),
                    bytes.to_string(),
                    format!("{bpki:.2}"),
                    format!("{kbs:.1}"),
                ])
                .with_stat(bpki))
            })
        }),
        footer: Footer::MeanStat(|mean| format!("mean: {mean:.2} B/kilo-instruction")),
    }
}

/// E2 — chunk-size distribution.
fn e2() -> Experiment {
    Experiment {
        id: "e2",
        title: "chunk-size distribution (instructions per chunk)",
        note: "paper analog: chunk-size characterization",
        header: vec!["workload".into(), "p10".into(), "p50".into(), "p90".into(),
            "p99".into(), "max".into(), "mean".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.chunk_size_percentile(10).to_string(),
                    r.chunks.chunk_size_percentile(50).to_string(),
                    r.chunks.chunk_size_percentile(90).to_string(),
                    r.chunks.chunk_size_percentile(99).to_string(),
                    r.chunks.chunk_size_percentile(100).to_string(),
                    format!("{:.0}", r.recorder_stats.mean_chunk_size()),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E3 — chunk-termination reason breakdown.
fn e3() -> Experiment {
    let mut header = vec!["workload".to_string()];
    header.extend(TerminationReason::ALL.iter().map(|r| r.label().to_string()));
    Experiment {
        id: "e3",
        title: "why chunks terminate (% of chunks)",
        note: "paper analog: chunk-termination breakdown",
        header,
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let total = r.chunks.len() as u64;
                let mut row = vec![spec.name.to_string()];
                for reason in TerminationReason::ALL {
                    let count = r.recorder_stats.chunks_by_reason[reason.code() as usize];
                    row.push(pct(count, total));
                }
                Ok(JobOutput::row(row))
            })
        }),
        footer: Footer::None,
    }
}

/// E4 — packet-encoding comparison.
fn e4() -> Experiment {
    Experiment {
        id: "e4",
        title: "log size by packet encoding (B/kilo-instruction)",
        note: "paper analog: log compression comparison; expect raw > packed > delta",
        header: vec!["workload".into(), "raw".into(), "packed".into(), "delta".into(),
            "delta vs raw".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let sizes: Vec<f64> =
                    Encoding::ALL.iter().map(|&e| r.log_bytes_per_kilo_instruction(e)).collect();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    format!("{:.2}", sizes[0]),
                    format!("{:.2}", sizes[1]),
                    format!("{:.2}", sizes[2]),
                    format!("{:.1}x", sizes[0] / sizes[2].max(1e-9)),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E5 — recording overhead (abstract claims: hardware negligible,
/// software ~13% mean).
fn e5() -> Experiment {
    Experiment {
        id: "e5",
        title: "recording overhead vs native execution",
        note: "paper: recording hardware has negligible overhead; the software stack costs ~13% on average",
        header: vec!["workload".into(), "native cycles".into(), "hw-only".into(),
            "full stack".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let native = run_native_workload_with(cache, &spec, 4, Scale::Reference)?;
                let hw = record_workload_with(cache, &spec, 4, Scale::Reference, hw_cfg(4))?;
                let full = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let full_pct = overhead_pct(full.cycles, native.cycles);
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    native.cycles.to_string(),
                    format!("{:.2}%", overhead_pct(hw.cycles, native.cycles)),
                    format!("{full_pct:.2}%"),
                ])
                .with_stat(full_pct))
            })
        }),
        footer: Footer::MeanStat(|mean| {
            format!("mean full-stack overhead: {mean:.1}%  (paper: ~13%)")
        }),
    }
}

/// E6 — software overhead breakdown.
fn e6() -> Experiment {
    Experiment {
        id: "e6",
        title: "where the software overhead goes (% of overhead cycles)",
        note: "paper analog: RSM cost breakdown",
        header: vec!["workload".into(), "syscall".into(), "log-copy".into(),
            "cmem-drain".into(), "mrr-switch".into(), "signal".into(), "hw-stall".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let o = &r.overhead;
                let total = o.total();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    pct(o.syscall_cycles, total),
                    pct(o.copy_cycles, total),
                    pct(o.drain_cycles, total),
                    pct(o.switch_cycles, total),
                    pct(o.signal_cycles, total),
                    pct(o.hw_stall_cycles, total),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E7 — scaling with thread count.
fn e7() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for spec in suite().into_iter().filter(|s| ["fft", "lu", "radix", "ocean", "water"].contains(&s.name)) {
        for threads in [1usize, 2, 4] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let native = run_native_workload_with(cache, &spec, threads, Scale::Reference)?;
                let full = record_workload_with(
                    cache, &spec, threads, Scale::Reference, full_cfg(threads))?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    threads.to_string(),
                    full.instructions.to_string(),
                    format!("{:.2}%", overhead_pct(full.cycles, native.cycles)),
                    format!("{:.2}", full.log_bytes_per_kilo_instruction(Encoding::Delta)),
                ]))
            }));
        }
    }
    Experiment {
        id: "e7",
        title: "scaling with thread count (1/2/4)",
        note: "overhead and log rate per thread count, reference scale",
        header: vec!["workload".into(), "t".into(), "instructions".into(),
            "overhead".into(), "B/kilo-instr".into()],
        jobs,
        footer: Footer::Static("(log rate grows with threads: more cross-thread conflicts per instruction)"),
    }
}

/// E8 — TSO reordered-store-window statistics.
fn e8() -> Experiment {
    Experiment {
        id: "e8",
        title: "TSO effects: reordered store windows (Rsw mode)",
        note: "chunks that terminated with stores still in the store buffer; the RSW field makes them replayable",
        header: vec!["workload".into(), "chunks".into(), "rsw>0 chunks".into(),
            "% with rsw".into(), "mean rsw".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = TsoMode::Rsw;
                cfg.cpu.drain_interval = 8;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let s = &r.recorder_stats;
                let mean_rsw = if s.chunks_with_rsw == 0 {
                    0.0
                } else {
                    s.rsw_sum as f64 / s.chunks_with_rsw as f64
                };
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.len().to_string(),
                    s.chunks_with_rsw.to_string(),
                    pct(s.chunks_with_rsw, r.chunks.len() as u64),
                    format!("{mean_rsw:.2}"),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E9 — replay speed relative to recording.
fn e9() -> Experiment {
    Experiment {
        id: "e9",
        title: "replay cost (serialized replay cycles / parallel recording cycles)",
        note: "chunk-ordered replay serializes the execution; ratios near or above 1x on 4 cores show the cost",
        header: vec!["workload".into(), "record cycles".into(), "replay cycles".into(),
            "ratio".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let outcome = qr_replay::replay(&program, &r)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.cycles.to_string(),
                    outcome.cycles.to_string(),
                    format!("{:.2}x", outcome.slowdown_vs(&r)),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E9b — parallel replay speedup from the conflict-dependency scheduler.
fn e9b() -> Experiment {
    Experiment {
        id: "e9b",
        title: "parallel replay speedup (conflict-dependency scheduler, 4 jobs)",
        note: "chunks with non-conflicting footprints replay concurrently; fingerprints must stay \
               byte-identical to serial replay (compute-dense workloads approach recording \
               parallelism, lock-dense ones stay near serial)",
        header: vec!["workload".into(), "serial cycles".into(), "parallel cycles".into(),
            "speedup".into(), "nodes".into(), "edges".into(), "fingerprint".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let serial = qr_replay::replay(&program, &r)?;
                let replayer = qr_replay::ParallelReplayer::new(&program, &r, 4)?;
                if let Some(reason) = replayer.fallback_reason() {
                    return Err(QrError::Execution {
                        detail: format!("{}: parallel replay fell back to serial: {reason}", spec.name),
                    });
                }
                let (nodes, edges) = (replayer.node_count(), replayer.edge_count());
                let parallel = replayer.run()?;
                parallel.verify_against(&r)?;
                if parallel.fingerprint != serial.fingerprint {
                    return Err(QrError::Execution {
                        detail: format!("{}: parallel fingerprint diverged from serial", spec.name),
                    });
                }
                let speedup = serial.cycles as f64 / parallel.cycles.max(1) as f64;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    serial.cycles.to_string(),
                    parallel.cycles.to_string(),
                    format!("{speedup:.2}x"),
                    nodes.to_string(),
                    edges.to_string(),
                    format!("{:016x}", parallel.fingerprint),
                ])
                .with_stat(speedup.ln()))
            })
        }),
        footer: Footer::MeanStat(|mean| format!("geomean speedup at 4 jobs: {:.2}x", mean.exp())),
    }
}

/// E10 — recording-store compression ratio per chunk-log encoding.
fn e10() -> Experiment {
    Experiment {
        id: "e10",
        title: "recording-store compression by chunk-log encoding",
        note: "block-compressed store entries (32 KiB blocks, per-block CRC); \
         ratio = compressed/uncompressed of the framed chunk log",
        header: vec!["workload".into(), "raw B".into(), "raw z".into(), "packed B".into(),
            "packed z".into(), "delta B".into(), "delta z".into(), "entry ratio".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let mut cells = vec![spec.name.to_string()];
                for encoding in Encoding::ALL {
                    let parts = r.to_parts(encoding);
                    let compressed = qr_store::block::compress(&parts.chunks);
                    cells.push(parts.chunks.len().to_string());
                    cells.push(format!(
                        "{} ({})",
                        compressed.len(),
                        pct(compressed.len() as u64, parts.chunks.len() as u64)
                    ));
                }
                // Whole-entry ratio as the store would commit it
                // (meta + chunks + inputs + footprints, delta chunks).
                let parts = r.to_parts(Encoding::Delta);
                let (mut raw, mut stored) = (0usize, 0usize);
                for (_, bytes) in parts.files() {
                    raw += bytes.len();
                    stored += qr_store::block::compress(bytes).len();
                }
                let ratio = stored as f64 / raw as f64;
                cells.push(format!("{:.2}", ratio));
                Ok(JobOutput::row(cells).with_stat(ratio))
            })
        }),
        footer: Footer::MeanStat(|mean| {
            format!("mean whole-entry stored/raw ratio (delta encoding): {mean:.2}")
        }),
    }
}

/// V1 — determinism validation across the suite.
fn v1() -> Experiment {
    Experiment {
        id: "v1",
        title: "deterministic replay validation",
        note: "replay must reproduce memory, console and exit codes exactly",
        header: vec!["workload".into(), "chunks".into(), "inputs".into(),
            "fingerprint".into(), "verdict".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let outcome = qr_replay::replay_and_verify(&program, &r)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    outcome.chunks_replayed.to_string(),
                    outcome.inputs_injected.to_string(),
                    format!("{:016x}", outcome.fingerprint),
                    "PASS".to_string(),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E11 — input-log characterization.
fn e11() -> Experiment {
    Experiment {
        id: "e11",
        title: "input-log volume and composition",
        note: "the Capo3 side of the log: syscall results, copy_to_user payloads, nondet values",
        header: vec!["workload".into(), "events".into(), "payload bytes".into(),
            "nondet vals".into(), "log bytes".into(), "B/kilo-instr".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let payload: usize = r
                    .inputs
                    .events()
                    .iter()
                    .map(|e| match e {
                        InputEvent::Syscall { record, .. } => {
                            record.writes.iter().map(|(_, d)| d.len()).sum()
                        }
                        InputEvent::Signal { .. } => 0,
                    })
                    .sum();
                let bytes = r.inputs.byte_size();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.inputs.events().len().to_string(),
                    payload.to_string(),
                    r.inputs.nondet_count().to_string(),
                    bytes.to_string(),
                    format!("{:.3}", bytes as f64 * 1000.0 / r.instructions as f64),
                ]))
            })
        }),
        footer: Footer::Static("(the input log is far smaller than the memory log for compute-bound workloads)"),
    }
}

/// E12 — observability is free of observer effects: recordings are
/// byte-identical with metrics on and off, and so are the checkpoint
/// sidecar built from them and a query answered through it (checked,
/// not tabulated: a difference fails the experiment).
///
/// One job runs every comparison serially because the `qr-obs` enabled
/// flag is process-global: toggling it from concurrent jobs would only
/// perturb *metric contents* (never outputs), but serializing keeps the
/// flag state simple to reason about. The flag is restored afterwards.
fn e12() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        let workloads = ["fft", "lu", "radix", "water"];
        let mut out = JobOutput::default();
        let was_enabled = qr_obs::enabled();
        let result = (|| {
            for name in workloads {
                let spec = qr_workloads::suite::find(name).expect("suite member");
                qr_obs::set_enabled(true);
                let observed = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                qr_obs::set_enabled(false);
                let blind = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                if observed.fingerprint != blind.fingerprint {
                    return Err(QrError::Execution {
                        detail: format!("{name}: fingerprint changed with metrics enabled"),
                    });
                }
                let mut identical = true;
                let mut log_bytes = 0usize;
                for encoding in Encoding::ALL {
                    let on = observed.chunks.to_bytes(encoding);
                    let off = blind.chunks.to_bytes(encoding);
                    identical &= on == off;
                    if encoding == Encoding::Delta {
                        log_bytes = on.len();
                    }
                }
                if !identical {
                    return Err(QrError::Execution {
                        detail: format!("{name}: serialized chunk log changed with metrics enabled"),
                    });
                }
                // The same rule one layer up: the seek sidecar built from
                // the recording and an answer served through it.
                let program = cache.program(&spec, 4, Scale::Small)?;
                let seek_layer = |observe: bool| -> qr_common::Result<(Vec<u8>, Vec<u8>)> {
                    use qr_replay::{CheckpointIndex, QueryEngine, ReplayQuery};
                    qr_obs::set_enabled(observe);
                    let sidecar = CheckpointIndex::build(&program, &observed, 25)?.to_bytes();
                    let mut engine = QueryEngine::new(&program, &observed)?;
                    engine.attach_index_bytes(&sidecar);
                    let answer = engine.execute(ReplayQuery::ReverseStep { events: 3 }, None)?;
                    Ok((sidecar, answer.to_bytes()))
                };
                if seek_layer(true)? != seek_layer(false)? {
                    return Err(QrError::Execution {
                        detail: format!("{name}: checkpoint sidecar or query answer changed with metrics enabled"),
                    });
                }
                out.rows.push(vec![
                    name.to_string(),
                    observed.chunks.len().to_string(),
                    log_bytes.to_string(),
                    format!("{:016x}", observed.fingerprint),
                    "identical".to_string(),
                ]);
            }
            Ok(())
        })();
        qr_obs::set_enabled(was_enabled);
        result?;
        Ok(out)
    });
    Experiment {
        id: "e12",
        title: "observability overhead accounting: metrics on vs off",
        note: "qr-obs is observational only — fingerprints and serialized logs must be \
         byte-identical with the metrics registry enabled and disabled",
        header: vec!["workload".into(), "chunks".into(), "delta log B".into(),
            "fingerprint".into(), "on vs off".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(wall-clock metric values are excluded from every deterministic report; \
             only their absence of side effects is asserted here)",
        ),
    }
}

/// E14 — the time-travel index is exact at every checkpoint interval,
/// and what each interval costs: checkpoints persisted, `checkpoints.qrc`
/// bytes, and the events a seek re-executes past its checkpoint.
///
/// Every indexed seek and query must match the from-scratch engine; the
/// first one that does not fails the experiment. Seek *latency* per
/// interval is `replay.seek_us_p50/p95` on the `time_travel` workload of
/// `BENCHMARK.json`.
fn e14() -> Experiment {
    use qr_replay::{CheckpointIndex, QueryEngine, ReplayQuery};
    const THREADS: usize = 3;
    let jobs = ["fft", "lu", "radix"]
        .into_iter()
        .map(|name| {
            Box::new(move |cache: &BuildCache| {
                let spec = qr_workloads::suite::find(name).expect("suite member");
                let program = cache.program(&spec, THREADS, Scale::Test)?;
                let recording =
                    record_workload_with(cache, &spec, THREADS, Scale::Test, full_cfg(THREADS))?;
                let scratch = QueryEngine::new(&program, &recording)?;
                let len = scratch.timeline_len();
                // Seek targets: the boundary positions plus a seeded spread.
                let mut rng = qr_common::SplitMix64::new(0x5EEC_0DE);
                let mut targets = vec![0, len / 2, len.saturating_sub(1)];
                targets.extend((0..8).map(|_| rng.below(len as u64) as usize));
                let query = ReplayQuery::ReverseStep { events: (len as u64 / 3).max(1) };
                // What an answer must agree on, and the from-scratch
                // answers every interval is held to.
                let landing = |r: &qr_replay::Replayer| {
                    (r.partial_fingerprint(), r.instructions_so_far(), r.console_so_far().to_vec())
                };
                let mut expected = Vec::with_capacity(targets.len());
                for &target in &targets {
                    expected.push(landing(&scratch.seek(target)?));
                }
                let expected_answer = scratch.execute(query, None)?.to_bytes();
                let drift = |interval: usize, what: String| QrError::Execution {
                    detail: format!("{name}/interval {interval}: {what} diverged from scratch"),
                };

                let mut out = JobOutput::default();
                for interval in [4usize, 8, 16, 32] {
                    let index = CheckpointIndex::build(&program, &recording, interval)?;
                    let checkpoints = index.keys.len();
                    let index_bytes = index.to_bytes().len();
                    // An indexed seek re-executes the gap back to the
                    // nearest checkpoint at or before its target.
                    let reexec: u64 = targets
                        .iter()
                        .map(|&target| {
                            let floor = index
                                .keys
                                .iter()
                                .take_while(|k| k.position <= target as u64)
                                .last()
                                .map_or(0, |k| k.position);
                            target as u64 - floor
                        })
                        .sum();
                    let mut indexed = QueryEngine::new(&program, &recording)?;
                    indexed.attach_index(index)?;
                    for (&target, expected) in targets.iter().zip(&expected) {
                        if landing(&indexed.seek(target)?) != *expected {
                            return Err(drift(interval, format!("seek {target}")));
                        }
                    }
                    if indexed.execute(query, None)?.to_bytes() != expected_answer {
                        return Err(drift(interval, query.to_string()));
                    }
                    out.rows.push(vec![
                        name.to_string(),
                        interval.to_string(),
                        checkpoints.to_string(),
                        index_bytes.to_string(),
                        format!("{:.2}", reexec as f64 / targets.len() as f64),
                    ]);
                }
                let cases = out.rows.len() * (targets.len() + 1);
                Ok(out.with_stat(cases as f64))
            }) as Job
        })
        .collect();
    Experiment {
        id: "e14",
        title: "time-travel index: exactness and cost per checkpoint interval",
        note: "3 threads, test scale; behind every row, 11 seeded seeks and one reverse-step \
         query answered through the persisted index matched the from-scratch engine",
        header: vec!["workload".into(), "interval".into(), "checkpoints".into(),
            "index bytes".into(), "mean reexec events".into()],
        jobs,
        footer: Footer::SumStat(|cases| {
            format!(
                "differential: {cases:.0} cases, 0 drift (the interval trades sidecar bytes for \
                 re-executed events: see DESIGN.md, decision 12)"
            )
        }),
    }
}

/// E15 — ordering-log cost versus core count: the bytes each ordering
/// authority needs per recorded instruction as the same 16-thread
/// workloads run on a machine growing from 2 to 16 cores. Total order
/// serializes the global chunk timestamps (delta-varint over the
/// replay schedule, the minimal encoding of that authority); partial
/// order serializes `order.qrp` — explicit happens-before edges only.
/// More cores mean more concurrency and therefore more chunk splits —
/// every one of which needs a timestamp — while the edge set tracks
/// the program's actual communication, which core count does not
/// change.
///
/// Fails on either deterministic gate: a partial-order replay
/// fingerprint diverging from the total-order replay of the same seeded
/// execution, or the partial-order bytes/instr growing 2→16 cores at
/// least as fast as the total-order bytes/instr. What deriving the
/// order costs in host time is `core.po_derive_ms` on the
/// `pipeline_sharing` workload of `BENCHMARK.json`.
fn e15() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_common::varint;

        let threads = 16usize;
        struct Point {
            cores: usize,
            instructions: u64,
            total_bytes: usize,
            partial_bytes: usize,
            edges: usize,
        }
        let mut points = Vec::new();

        for cores in [2usize, 4, 8, 16] {
            let mut point =
                Point { cores, instructions: 0, total_bytes: 0, partial_bytes: 0, edges: 0 };
            for name in ["fft", "lu", "radix"] {
                let spec = qr_workloads::suite::find(name).expect("suite member");
                let program = cache.program(&spec, threads, Scale::Small)?;
                let total = record_workload_with(
                    cache, &spec, threads, Scale::Small, RecordingConfig::with_cores(cores))?;
                let mut cfg = RecordingConfig::with_cores(cores);
                cfg.order = OrderMode::PartialOrder;
                let partial = record_workload_with(cache, &spec, threads, Scale::Small, cfg)?;

                // Total-order ordering bytes: the global timestamps in
                // schedule order, delta-varint coded.
                let mut ts_bytes = Vec::new();
                let mut prev = 0u64;
                for packet in total.chunks.replay_schedule()? {
                    varint::write_u64(&mut ts_bytes, packet.timestamp.0 - prev);
                    prev = packet.timestamp.0;
                }
                let order = partial.order.as_ref().expect("partial-order recording");
                point.instructions += total.instructions;
                point.total_bytes += ts_bytes.len();
                point.partial_bytes += order.byte_size();
                point.edges += order.edges().len();

                // Drift gate: the partial-order replay must land on the
                // total-order fingerprint of the same seeded execution.
                let serial = qr_replay::replay(&program, &total)?;
                let ordered = qr_replay::replay_ordered_and_verify(&program, &partial, 2)?;
                if ordered.fingerprint != serial.fingerprint {
                    return Err(QrError::Execution {
                        detail: format!(
                            "{name}@{cores}c: ordered fingerprint {:#018x} != total {:#018x}",
                            ordered.fingerprint, serial.fingerprint
                        ),
                    });
                }
            }
            points.push(point);
        }

        // Growth gate: scaling 2→16 cores must cost partial order
        // strictly less relative byte growth than total order.
        let per_kinstr = |bytes: usize, instr: u64| 1e3 * bytes as f64 / instr.max(1) as f64;
        let growth = |bytes: fn(&Point) -> usize| {
            let lo = &points[0];
            let hi = &points[points.len() - 1];
            per_kinstr(bytes(hi), hi.instructions) / per_kinstr(bytes(lo), lo.instructions)
        };
        let total_growth = growth(|p| p.total_bytes);
        let partial_growth = growth(|p| p.partial_bytes);
        if partial_growth >= total_growth {
            return Err(QrError::Execution {
                detail: format!(
                    "partial-order bytes/instr grew {partial_growth:.2}x from 2 to 16 cores, \
                     total order only {total_growth:.2}x"
                ),
            });
        }

        let mut out = JobOutput::default();
        for p in &points {
            out.rows.push(vec![
                p.cores.to_string(),
                format!("{} ({:.2})", p.total_bytes, per_kinstr(p.total_bytes, p.instructions)),
                format!("{} ({:.2})", p.partial_bytes, per_kinstr(p.partial_bytes, p.instructions)),
                p.edges.to_string(),
                format!("{:.2}x", p.partial_bytes as f64 / p.total_bytes.max(1) as f64),
                "PASS".into(),
            ]);
        }
        out.rows.push(vec![
            "growth 2→16".into(),
            format!("{total_growth:.2}x"),
            format!("{partial_growth:.2}x"),
            "-".into(),
            "-".into(),
            "PASS".into(),
        ]);
        Ok(out)
    });
    Experiment {
        id: "e15",
        title: "ordering-log bytes vs core count: total order vs partial order",
        note: "fft, lu and radix at 16 threads, small scale; bytes columns show total \
         (bytes/kinstr); the gate column is fingerprint drift per core count (3 ordered \
         replays each) and, on the last row, partial order growing slower than total order",
        header: vec!["cores".into(), "total-order B".into(), "partial-order B".into(),
            "edges".into(), "partial/total".into(), "gate".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(total order serializes every chunk's global timestamp; partial order only the \
             happens-before edges that constrain replay, so its cost tracks actual sharing, \
             not core count)",
        ),
    }
}

/// E16 — daemon concurrency: one `quickrecd` multiplexing a thousand
/// live connections on one event loop, with Busy
/// backpressure under saturation and fetch results byte-identical to a
/// sequential local recording.
///
/// Every row is a gate that either holds or fails the experiment, so
/// the table reads the same on every run; how *fast* the daemon connects,
/// answers and drains is `server.*` on the `daemon_sessions` workload of
/// `BENCHMARK.json`.
fn e16() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_server::proto::{Endpoint, Request, Response};
        use qr_server::Client;

        let env_count = |name: &str, default: usize| {
            std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        let conns = env_count("QR_BENCH_CONNS", 1100).max(4);
        let jobs = env_count("QR_BENCH_JOBS", 64).clamp(1, conns);
        // An external daemon (spawned by verify.sh / CI) owns its own
        // lifecycle and configuration; in-process we pick a queue the
        // default burst must overflow so the Busy path is exercised.
        let external = std::env::var("QR_E16_SOCKET").ok();
        let queue_capacity = 16usize;
        let workers = 2usize;

        let dir = std::env::temp_dir().join(format!("qr-e16-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| QrError::Execution {
            detail: format!("scratch dir: {e}"),
        })?;
        let (endpoint, handle) = match &external {
            Some(path) => (Endpoint::Unix(path.into()), None),
            None => {
                let endpoint = Endpoint::Unix(dir.join("qd.sock"));
                let config = qr_server::ServerConfig {
                    workers,
                    queue_capacity,
                    store_root: dir.join("store"),
                    // Exactly the fleet size: every connection beyond
                    // the fleet must be refused with Busy at accept.
                    max_connections: conns,
                };
                let handle = qr_server::Server::start(&endpoint, &config)?;
                (endpoint, Some(handle))
            }
        };

        // Phase 1: open the whole fleet and keep every stream alive.
        let mut clients = Vec::with_capacity(conns);
        clients.push(Client::connect_with_retry(&endpoint, std::time::Duration::from_secs(10))?);
        for _ in 1..conns {
            clients.push(Client::connect(&endpoint)?);
        }

        // Phase 2: one PING round trip on every open connection — each
        // must answer while all the others stay connected.
        for (i, client) in clients.iter_mut().enumerate() {
            client.ping().map_err(|e| QrError::Execution {
                detail: format!("ping on connection {i} of {conns}: {e}"),
            })?;
        }

        // Phase 3: burst RECORD submissions over distinct connections.
        // Every one gets a framed answer: Submitted or a clean Busy.
        let mut accepted = Vec::new();
        let mut busy = 0usize;
        for i in 0..jobs {
            let client = &mut clients[i % conns];
            match client.call(&Request::SubmitWorkload {
                name: format!("e16-{i}"),
                workload: "fft".into(),
                threads: 2,
                scale: Scale::Test,
                encoding: Encoding::Delta,
                order: OrderMode::TotalOrder,
            })? {
                Response::Submitted { id } => accepted.push(id),
                Response::Busy { .. } => busy += 1,
                other => {
                    return Err(QrError::Execution {
                        detail: format!("submission {i}: unexpected response {other:?}"),
                    })
                }
            }
        }
        if accepted.len() + busy != jobs || accepted.is_empty() {
            return Err(QrError::Execution {
                detail: format!(
                    "burst of {jobs} answered {} Submitted + {busy} Busy",
                    accepted.len()
                ),
            });
        }
        let busy_required = external.is_none() && jobs > queue_capacity + workers;
        if busy_required && busy == 0 {
            return Err(QrError::Execution {
                detail: format!(
                    "a {jobs}-burst against a {queue_capacity}-deep queue never saw Busy"
                ),
            });
        }
        for &id in &accepted {
            clients[0].wait_for(id, std::time::Duration::from_secs(600))?;
        }

        // Phase 4: fidelity gate. A sample of the daemon's recordings
        // must be byte-identical to one sequential local recording of
        // the same seeded workload (the daemon adds its checkpoint
        // sidecar on top; every file the local run produces must match).
        let spec = suite::find("fft").expect("suite member");
        let reference =
            record_workload_with(cache, &spec, 2, Scale::Test, RecordingConfig::with_cores(2))?;
        let ref_dir = dir.join("reference");
        std::fs::create_dir_all(&ref_dir).map_err(|e| QrError::Execution {
            detail: format!("reference dir: {e}"),
        })?;
        reference.save(&ref_dir, Encoding::Delta)?;
        let mut ref_files = Vec::new();
        for entry in std::fs::read_dir(&ref_dir).map_err(|e| QrError::Execution {
            detail: format!("reference dir: {e}"),
        })? {
            let entry = entry.map_err(|e| QrError::Execution { detail: e.to_string() })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path())
                .map_err(|e| QrError::Execution { detail: format!("{name}: {e}") })?;
            ref_files.push((name, bytes));
        }

        let drift = |id: u64, what: String| QrError::Execution {
            detail: format!("fetch drift: session {id}: {what}"),
        };
        let sample = &accepted[..accepted.len().min(8)];
        for &id in sample {
            let Response::Fetched { files, fingerprint } =
                clients[0].call(&Request::Fetch { id })?
            else {
                return Err(drift(id, "fetch refused".into()));
            };
            if fingerprint != reference.fingerprint {
                return Err(drift(
                    id,
                    format!("fingerprint {fingerprint:#018x} != local {:#018x}", reference.fingerprint),
                ));
            }
            for (name, bytes) in &ref_files {
                let Some((_, fetched)) = files.iter().find(|(n, _)| n == name) else {
                    return Err(drift(id, format!("{name} missing")));
                };
                // The daemon legitimately rewrites the format manifest
                // to list its checkpoint sidecar; every other file must
                // be byte-identical to the local recording.
                if name == "format.qrv" {
                    use qr_common::frame::PayloadKind;
                    let mut expected = qr_capo::FormatManifest::from_bytes(bytes)?;
                    if !expected.payloads.contains(&PayloadKind::CheckpointIndex) {
                        expected.payloads.push(PayloadKind::CheckpointIndex);
                        expected.payloads.sort_by_key(|k| k.code());
                    }
                    if fetched != &expected.to_bytes() && fetched != bytes {
                        return Err(drift(id, format!("{name} differs beyond the sidecar entry")));
                    }
                } else if fetched != bytes {
                    return Err(drift(id, format!("{name} differs from the local bytes")));
                }
            }
        }

        // Phase 5 (in-process only): the accept path refuses connection
        // number max_connections+1 with a framed Busy, never a hang.
        let mut refused = 0usize;
        if external.is_none() {
            for i in 0..8 {
                match Client::connect(&endpoint) {
                    Err(_) => refused += 1,
                    Ok(mut extra) => match extra.ping() {
                        Err(_) => refused += 1,
                        Ok(()) => {
                            return Err(QrError::Execution {
                                detail: format!(
                                    "overload probe {i} was served with {conns} \
                                     connections already open (max_connections={conns})"
                                ),
                            })
                        }
                    },
                }
            }
        }

        // Phase 6: the event loop's own instrumentation is live.
        let metrics = clients[0].metrics()?;
        for family in ["qr_server_event_loop_wakeups_total", "qr_server_open_connections"] {
            if !metrics.contains(family) {
                return Err(QrError::Execution {
                    detail: format!("metrics exposition is missing `{family}`"),
                });
            }
        }

        // Phase 7 (in-process only): hang up everywhere; the gauge must
        // drain to exactly zero, then shut the daemon down.
        drop(clients);
        if let Some(handle) = handle {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while handle.open_connections() != 0 {
                if std::time::Instant::now() >= deadline {
                    return Err(QrError::Execution {
                        detail: format!(
                            "open-connections gauge stuck at {} after the fleet hung up",
                            handle.open_connections()
                        ),
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            handle.shutdown();
            handle.wait();
        }

        std::fs::remove_dir_all(&dir).ok();

        let mut out = JobOutput::default();
        out.rows.push(vec![
            "connections".into(),
            conns.to_string(),
            "held open concurrently on one daemon".into(),
        ]);
        out.rows.push(vec![
            "ping sweep".into(),
            conns.to_string(),
            "every connection answered while all the others stayed open".into(),
        ]);
        // How the burst splits into Submitted and Busy depends on how
        // fast the pool drains, so only what every schedule shares is
        // printed: each submission was answered in a frame, and Busy was
        // among the answers where the queue is sized to overflow.
        let answered = accepted.len() + busy;
        out.rows.push(vec![
            "submissions".into(),
            jobs.to_string(),
            if busy_required {
                format!("{answered} answered, all framed; Busy seen past the \
                         {queue_capacity}-deep queue")
            } else {
                format!("{answered} answered, all framed (Submitted or Busy)")
            },
        ]);
        out.rows.push(vec![
            "overload probe".into(),
            refused.to_string(),
            if external.is_some() {
                "skipped (external daemon)".into()
            } else {
                format!("refused past max_connections={conns}")
            },
        ]);
        out.rows.push(vec![
            "fidelity".into(),
            format!("{} sessions", sample.len()),
            "PASS (byte-identical to local)".into(),
        ]);
        Ok(out)
    });
    Experiment {
        id: "e16",
        title: "daemon concurrency: multiplexed sessions on the event-driven listener",
        note: "QR_BENCH_CONNS connections (default 1100) and QR_BENCH_JOBS submissions \
         (default 64) against one daemon, in-process unless QR_E16_SOCKET points at a \
         live one; every row is a gate — a row that does not hold fails the experiment",
        header: vec!["metric".into(), "value".into(), "detail".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(one event loop multiplexes the listener and every connection with poll(2); \
             the bounded worker pool still runs the CPU-bound jobs, so saturation shows \
             up as clean Busy answers, not stalled connections)",
        ),
    }
}

/// A1 — signature-size ablation.
fn a1() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["radix", "ocean"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for bits in [256u32, 512, 1024, 2048, 8192] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.mrr = MrrConfig {
                    read_sig_bits: bits,
                    write_sig_bits: bits / 2,
                    track_exact_sets: true,
                    ..MrrConfig::default()
                };
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                Ok(JobOutput::row([
                    name.to_string(),
                    bits.to_string(),
                    r.chunks.len().to_string(),
                    format!("{:.0}", r.recorder_stats.mean_chunk_size()),
                    r.recorder_stats.conflict_chunks().to_string(),
                    r.recorder_stats.false_positive_conflicts.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a1",
        title: "ablation: signature size vs chunk length and false positives",
        note: "smaller signatures saturate earlier and alias more; expect chunk sizes to grow with bits",
        header: vec!["workload".into(), "sig bits".into(), "chunks".into(),
            "mean chunk".into(), "conflict chunks".into(), "false-pos conflicts".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A2 — CBUF-capacity ablation.
fn a2() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["radix", "fft"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for (entries, drain) in [(1usize, 512u64), (2, 256), (4, 64), (64, 16)] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let native = run_native_workload_with(cache, &spec, 4, Scale::Small)?;
                let mut cfg = hw_cfg(4);
                cfg.mrr.cbuf_entries = entries;
                cfg.mrr.cbuf_drain_cycles = drain;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                Ok(JobOutput::row([
                    name.to_string(),
                    entries.to_string(),
                    drain.to_string(),
                    r.overhead.hw_stall_cycles.to_string(),
                    format!("{:.3}%", overhead_pct(r.cycles, native.cycles)),
                ]))
            }));
        }
    }
    Experiment {
        id: "a2",
        title: "ablation: CBUF capacity vs hardware stalls",
        note: "the only hardware overhead source; stalls appear only when the buffer is starved",
        header: vec!["workload".into(), "cbuf entries".into(), "drain cyc/pkt".into(),
            "stall cycles".into(), "hw overhead".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A3 — TSO-mode ablation.
fn a3() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["fft", "water", "radiosity"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for mode in [TsoMode::DrainAtChunk, TsoMode::Rsw] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = mode;
                cfg.cpu.drain_interval = 8;
                // A small chunk-size cap forces hardware (ic-overflow) chunk
                // closings, where the two modes actually differ.
                cfg.mrr.max_chunk_icount = 400;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                Ok(JobOutput::row([
                    name.to_string(),
                    format!("{mode:?}"),
                    r.chunks.len().to_string(),
                    r.recorder_stats.chunks_with_rsw.to_string(),
                    r.chunks.to_bytes(Encoding::Delta).len().to_string(),
                    verdict.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a3",
        title: "ablation: DrainAtChunk vs Rsw",
        note: "draining at hardware chunk boundaries removes RSW at a small cost; both modes replay exactly",
        header: vec!["workload".into(), "mode".into(), "chunks".into(), "rsw>0".into(),
            "log bytes".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A5 — store-buffer drain-interval ablation.
fn a5() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["fft", "water"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for interval in [1u64, 4, 16, 64] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = TsoMode::Rsw;
                cfg.cpu.drain_interval = interval;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                Ok(JobOutput::row([
                    name.to_string(),
                    interval.to_string(),
                    r.chunks.len().to_string(),
                    r.recorder_stats.chunks_with_rsw.to_string(),
                    pct(r.recorder_stats.chunks_with_rsw, r.chunks.len() as u64),
                    verdict.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a5",
        title: "ablation: background drain interval vs TSO reordering",
        note: "slower drains leave more stores pending at chunk boundaries (larger RSW footprint)",
        header: vec!["workload".into(), "drain 1/N".into(), "chunks".into(), "rsw>0".into(),
            "% with rsw".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A6 — scheduling-quantum ablation.
fn a6() -> Experiment {
    let spec = qr_workloads::suite::find("lu").expect("suite member");
    let jobs: Vec<Job> = [1_000u64, 5_000, 20_000, 100_000]
        .into_iter()
        .map(|quantum| {
            Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(2); // 4 threads on 2 cores
                cfg.os.quantum_cycles = quantum;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                let ctx = r.recorder_stats.chunks_by_reason
                    [TerminationReason::ContextSwitch.code() as usize];
                Ok(JobOutput::row([
                    quantum.to_string(),
                    ctx.to_string(),
                    r.chunks.len().to_string(),
                    r.overhead.total().to_string(),
                    verdict.to_string(),
                ]))
            }) as Job
        })
        .collect();
    Experiment {
        id: "a6",
        title: "ablation: scheduling quantum vs context-switch chunks and overhead",
        note: "threads > cores: shorter quanta force more recorder save/restores",
        header: vec!["quantum".into(), "ctx-switch chunks".into(), "chunks".into(),
            "overhead cycles".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// R1 — log fault injection (the robustness contract of the framed
/// format and salvage replay).
fn r1() -> Experiment {
    use crate::fault::{self, Mutator};
    let workloads = ["fft", "water", "radix", "lu"];
    let combos: Vec<(WorkloadSpec, Encoding, Mutator)> = workloads
        .iter()
        .map(|name| qr_workloads::suite::find(name).expect("suite member"))
        .flat_map(|spec| {
            Encoding::ALL.iter().flat_map(move |&encoding| {
                Mutator::ALL.iter().map(move |&mutator| (spec, encoding, mutator))
            })
        })
        .collect();
    // The case budget is captured at plan time (the CLI sets it before
    // planning); each job then owns a fixed share, keyed RNG and all.
    let total = fault::fuzz_cases();
    let n_jobs = combos.len();
    let jobs: Vec<Job> = combos
        .into_iter()
        .enumerate()
        .map(|(i, (spec, encoding, mutator))| {
            let cases = total / n_jobs + usize::from(i < total % n_jobs);
            Box::new(move |cache: &BuildCache| {
                fault::fuzz_job(cache, &spec, encoding, mutator, cases)
            }) as Job
        })
        .collect();
    Experiment {
        id: "r1",
        title: "log fault injection: mutated recordings never panic, always salvage a true prefix",
        note: "per-job SplitMix64 streams keyed by (workload, encoding, mutator); every case asserts \
         strict decode rejects or the salvaged replay prefix-matches the clean run",
        header: vec!["workload".into(), "encoding".into(), "mutator".into(), "cases".into(),
            "rejected".into(), "decoded".into(), "mean salvaged".into()],
        jobs,
        footer: Footer::MeanStat(|mean| {
            format!("mean salvaged-timeline fraction: {:.1}% (0 panics, all prefixes verified)",
                100.0 * mean)
        }),
    }
}
