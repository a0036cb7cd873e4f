//! `qr-e2e` — the repository's end-to-end benchmark.
//!
//! Five workloads drive the public functions of the QuickRec-RS crates
//! from outside (record → store → wire → replay → seek), check every
//! output, and report the end-to-end metrics of `BENCHMARK.json`; a
//! second, traced run of a workload attributes its time to the layers.
//! The benchmark claims no gain: it is the ruler later changes are
//! measured with. See `bench/README.md`.

#![warn(missing_docs)]

pub mod calib;
pub mod corpus;
pub mod probes;
pub mod report;
pub mod scratch;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use report::Run;
use scratch::Scratch;
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// The only input: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One sweep at `Scale::Test`: a smoke run that still makes every
    /// correctness check.
    pub quick: bool,
    /// Where scratch space, the span journal and the result line go.
    pub out: PathBuf,
}

impl Config {
    /// Problem size of the programs the workload simulates.
    pub fn scale(&self) -> qr_workloads::Scale {
        if self.quick {
            qr_workloads::Scale::Test
        } else {
            qr_workloads::Scale::Reference
        }
    }

    /// How often set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Everything a workload needs while it runs.
pub struct Ctx<'a> {
    /// The invocation's parameters.
    pub cfg: &'a Config,
    /// Span recorder; enabled only inside traced sweeps.
    pub tracer: &'a Tracer,
    /// Scratch directory guard.
    pub scratch: &'a Scratch,
    /// Result accumulator.
    pub run: Run,
    /// Every span event drained from the tracer so far.
    pub events: Vec<qr_obs::trace::TraceEvent>,
    /// The host-speed calibration kernel.
    pub kernel: calib::Kernel,
    /// Calibration slices taken since the last [`Ctx::take_host`].
    pub host: calib::HostSpeed,
}

impl Ctx<'_> {
    /// Runs one calibration slice. Workloads call this between timed
    /// operations, never inside one.
    pub fn calibrate(&mut self) {
        let _span = self.tracer.span(spans::CALIBRATE, 0);
        let seconds = self.kernel.slice();
        self.host.push(seconds);
    }

    /// Hands over the slices taken since the last call.
    pub fn take_host(&mut self) -> calib::HostSpeed {
        std::mem::take(&mut self.host)
    }

    /// The self-time table of every span recorded so far.
    pub fn span_table(&mut self) -> spans::SpanTable {
        self.events.extend(self.tracer.drain());
        spans::self_times(&self.events)
    }
}

/// Whether a phase's time is divided by the host's measured slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// CPU-bound: seconds on the reference host (see [`calib`]).
    HostNormalised,
    /// Mostly sleeping: wall seconds as they passed.
    Wall,
}

/// Runs set-up `cfg.setup_reps()` times, records the median as
/// `setup_s`, and hands back the last state built. Calibration slices
/// taken inside `setup` are not counted as set-up time.
pub fn timed_setup<S>(
    ctx: &mut Ctx<'_>,
    clock: Clock,
    mut setup: impl FnMut(&mut Ctx<'_>) -> qr_common::Result<S>,
) -> qr_common::Result<S> {
    let (mut raw, mut times) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..ctx.cfg.setup_reps() {
        // The previous repetition's state (stores, daemons) is torn
        // down before the next one is timed.
        drop(state.take());
        ctx.take_host();
        let started = Instant::now();
        ctx.calibrate();
        state = Some(setup(ctx)?);
        ctx.calibrate();
        let elapsed = started.elapsed().as_secs_f64();
        let host = ctx.take_host();
        raw.push(elapsed - host.spent());
        times.push(match clock {
            Clock::HostNormalised => (elapsed - host.spent()) / host.slowdown(),
            Clock::Wall => elapsed - host.spent(),
        });
    }
    ctx.run.timing("setup (wall)", &raw, "s");
    ctx.run.timing("setup", &times, "s");
    ctx.run.set("setup_s", stats::median(&times));
    Ok(state.expect("setup_reps is at least 1"))
}

/// One sweep's timings, as the workload measured them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    /// Whole sweep, seconds.
    pub total_s: f64,
    /// Its write half (making state durable), seconds.
    pub write_s: f64,
    /// Its read half (reading it back, verified), seconds.
    pub read_s: f64,
    /// Verified operations attempted in the write half.
    pub write_ops: u64,
    /// Verified operations attempted in the read half.
    pub read_ops: u64,
    /// Latencies of the workload's sample unit inside this sweep, ms
    /// (empty when the unit is the sweep itself).
    pub unit_ms: Vec<f64>,
    /// Simulated quantities, which must be identical in every sweep.
    pub exact: Vec<(&'static str, u64)>,
    /// A directory the sweep filled, removed after the sweep's clock
    /// has stopped.
    pub cleanup: Option<PathBuf>,
    /// How many times slower than the reference host the machine was
    /// during this sweep (set by [`drive_sweeps`]).
    pub host: f64,
    /// Whether the tracer was on (set by [`drive_sweeps`]).
    pub traced: bool,
}

impl Sweep {
    /// Verified operations attempted in the whole sweep.
    pub fn ops(&self) -> u64 {
        self.write_ops + self.read_ops
    }
}

/// The sweeps of one run.
#[derive(Debug, Default)]
pub struct Sweeps {
    /// Every timed sweep, in order.
    pub all: Vec<Sweep>,
    /// `VmHWM` once set-up and [`RSS_SWEEPS`] timed sweeps had run.
    pub peak_rss_mb: f64,
}

/// Timed sweeps after which peak memory is read. A fixed amount of
/// work: the heap creeps up with every further sweep (allocator
/// fragmentation around the large index buffers), so reading it at the
/// end would make a host that fits more sweeps into the run look like
/// a bigger process.
pub const RSS_SWEEPS: usize = 3;

/// Runs `sweep` until the timed region is used up: the whole of
/// `--seconds` untraced, or half of it in a traced run, where every
/// other sweep runs with the tracer off so that the two medians give
/// the tracing overhead. At least three sweeps run (one with `--quick`).
pub fn drive_sweeps(
    ctx: &mut Ctx<'_>,
    mut sweep: impl FnMut(&mut Ctx<'_>, u64) -> Sweep,
) -> Sweeps {
    let cfg = ctx.cfg;
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let min_sweeps = if cfg.quick {
        1
    } else if cfg.trace {
        4
    } else {
        3
    };
    let mut out = Sweeps::default();
    let started = Instant::now();
    let mut id = 1u64;
    loop {
        let traced = cfg.trace && id % 2 == 1;
        ctx.tracer.set_enabled(traced);
        ctx.take_host();
        let t0 = Instant::now();
        let mut s = {
            let _root = ctx.tracer.span(spans::ROOT_SWEEP, id);
            sweep(ctx, id)
        };
        let elapsed = t0.elapsed().as_secs_f64();
        ctx.tracer.set_enabled(false);
        let host = ctx.take_host();
        s.total_s = elapsed - host.spent();
        s.host = host.slowdown();
        s.traced = traced;
        if let Some(dir) = s.cleanup.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Some(first) = out.all.first() {
            if first.exact != s.exact {
                let what = first
                    .exact
                    .iter()
                    .zip(&s.exact)
                    .find(|(a, b)| a != b)
                    .map_or_else(
                        || "length".to_string(),
                        |(a, b)| format!("{} {} != {}", a.0, a.1, b.1),
                    );
                ctx.run.check(false, || {
                    format!("sweep {id}: exact metric drifted from sweep 1: {what}")
                });
            }
        }
        out.all.push(s);
        id += 1;
        let done = out.all.len();
        if done == RSS_SWEEPS.min(min_sweeps) {
            out.peak_rss_mb = peak_rss_mb();
        }
        if cfg.quick || (done >= min_sweeps && started.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    out
}

impl Sweeps {
    fn exact(&self, name: &str) -> f64 {
        self.all
            .first()
            .and_then(|s| s.exact.iter().find(|e| e.0 == name))
            .map_or(0.0, |e| e.1 as f64)
    }

    /// Turns the sweeps into metrics: the end-to-end ones after an
    /// untraced run, the span-derived per-layer ones after a traced run.
    /// Every time is first divided by its sweep's host slowdown; rates
    /// then divide the operations of one sweep by the *median* sweep (or
    /// half-sweep) time, so a disturbed sweep does not move them.
    pub fn report(&self, ctx: &mut Ctx<'_>) {
        let Some(first) = self.all.first() else {
            return;
        };
        let col = |f: fn(&Sweep) -> f64| -> Vec<f64> { self.all.iter().map(f).collect() };
        ctx.run.timing("sweep (wall)", &col(|s| s.total_s), "s");
        ctx.run.timing("host slowdown", &col(|s| s.host), "x");
        let (total, write, read) = (
            col(|s| s.total_s / s.host),
            col(|s| s.write_s / s.host),
            col(|s| s.read_s / s.host),
        );
        let units: Vec<f64> = self
            .all
            .iter()
            .flat_map(|s| s.unit_ms.iter().map(|ms| ms / s.host))
            .collect();
        ctx.run.timing("sweep", &total, "s");
        ctx.run.timing("sweep write half", &write, "s");
        ctx.run.timing("sweep read half", &read, "s");
        if !units.is_empty() {
            ctx.run.timing("unit latency", &units, "ms");
        }
        let per_s =
            |ops: u64, secs: &[f64]| ops as f64 / stats::median(secs).max(f64::MIN_POSITIVE);
        let kinstr = self.exact("instructions") / 1e3;
        if !ctx.cfg.trace {
            ctx.run.set("ops_per_s", per_s(first.ops(), &total));
            ctx.run
                .set("write_ops_per_s", per_s(first.write_ops, &write));
            ctx.run.set("read_ops_per_s", per_s(first.read_ops, &read));
            let latency = if units.is_empty() {
                stats::median(&total) * 1e3
            } else {
                stats::median(&units)
            };
            ctx.run.set("latency_p50_ms", latency);
            ctx.run.set(
                "stored_bytes_per_kinstr",
                self.exact("stored_bytes") / kinstr,
            );
            ctx.run.set(
                "modelled_overhead_pct",
                100.0 * self.exact("software_overhead_cycles") / self.exact("cycles"),
            );
            ctx.run.set("peak_rss_mb", self.peak_rss_mb);
            return;
        }
        let table = ctx.span_table();
        spans::layer_metrics(&table, &[spans::ROOT_SWEEP], &mut ctx.run);
        spans::coverage_gate(ctx);
        let pick = |want: bool| -> Vec<f64> {
            self.all
                .iter()
                .filter(|s| s.traced == want)
                .map(|s| s.total_s / s.host)
                .collect()
        };
        let (on, off) = (pick(true), pick(false));
        if !on.is_empty() && !off.is_empty() {
            let base = stats::median(&off);
            ctx.run.set(
                "obs.trace_overhead_pct",
                100.0 * (stats::median(&on) - base) / base,
            );
        }
        ctx.run
            .set("trace.write_half_ms", stats::median(&write) * 1e3);
        ctx.run
            .set("trace.read_half_ms", stats::median(&read) * 1e3);
        ctx.run.set(
            "store.ratio",
            self.exact("raw_bytes") / self.exact("stored_bytes").max(1.0),
        );
        ctx.run.set("work.ops_per_sweep", first.ops() as f64);
        ctx.run.set("work.sweeps", self.all.len() as f64);
        ctx.run.set("work.minstr_per_sweep", kinstr / 1e3);
        ctx.run
            .set("work.stored_mb_per_sweep", self.exact("stored_bytes") / 1e6);
        ctx.run
            .set("work.raw_mb_per_sweep", self.exact("raw_bytes") / 1e6);
        ctx.run
            .set("work.index_mb_per_sweep", self.exact("index_bytes") / 1e6);
        let samples = if units.is_empty() {
            total.len()
        } else {
            units.len()
        };
        ctx.run.set(
            "work.tail_percentile",
            stats::tail_percentile(samples).unwrap_or(50.0),
        );
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and returns what it measured.
///
/// # Errors
///
/// Returns the I/O error when the scratch directory cannot be made, or
/// a set-up failure that leaves nothing to measure; failed operations
/// inside the timed region are counted in the [`Run`], not returned.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let spec = spec::workload(&cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let scratch = Scratch::new(&cfg.out)
        .map_err(|e| format!("creating scratch under {}: {e}", cfg.out.display()))?;
    let tracer = Tracer::new();
    let mut ctx = Ctx {
        cfg,
        tracer: &tracer,
        scratch: &scratch,
        run: Run::new(cfg),
        events: Vec::new(),
        kernel: calib::Kernel::new(),
        host: calib::HostSpeed::default(),
    };
    let outcome = match spec.name {
        "pipeline_compute" => {
            workloads::pipeline::run(&mut ctx, workloads::pipeline::Flavor::Compute)
        }
        "pipeline_sharing" => {
            workloads::pipeline::run(&mut ctx, workloads::pipeline::Flavor::Sharing)
        }
        "archive_churn" => workloads::archive::run(&mut ctx),
        "daemon_sessions" => workloads::daemon::run(&mut ctx),
        "time_travel" => workloads::timetravel::run(&mut ctx),
        other => unreachable!("spec::workload returned unknown `{other}`"),
    };
    if let Err(e) = outcome {
        ctx.run.check(false, || format!("workload aborted: {e}"));
    }
    if cfg.trace {
        ctx.events.extend(tracer.drain());
        report::write_trace(cfg, &ctx.events)
            .map_err(|e| format!("writing the span journal: {e}"))?;
    }
    Ok(ctx.run)
}
