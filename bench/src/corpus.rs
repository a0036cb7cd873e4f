//! Programs and recordings the workloads are built from.

use qr_capo::{Recording, RecordingConfig};
use qr_common::{QrError, Result, SplitMix64};
use qr_isa::Program;
use qr_workloads::{Scale, WorkloadSpec};
use quickrec_core::OrderMode;

/// A suite program ready to run, with the checksum it must exit with.
#[derive(Debug, Clone)]
pub struct Built {
    /// The suite entry it was built from.
    pub spec: WorkloadSpec,
    /// Guest threads (= simulated cores).
    pub threads: usize,
    /// The program image.
    pub program: Program,
    /// The exit code a correct run produces.
    pub expected: u32,
}

/// Builds suite workload `name` for `threads` threads at `scale`.
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] for an unknown name, or the
/// builder's error.
pub fn build(name: &str, threads: usize, scale: Scale) -> Result<Built> {
    let spec = qr_workloads::find(name)
        .ok_or_else(|| QrError::InvalidConfig(format!("no suite workload `{name}`")))?;
    Ok(Built {
        spec,
        threads,
        program: (spec.build)(threads, scale)?,
        expected: (spec.expected)(threads, scale),
    })
}

/// Builds several suite workloads with the same shape.
///
/// # Errors
///
/// See [`build`].
pub fn build_all(names: &[&str], threads: usize, scale: Scale) -> Result<Vec<Built>> {
    names
        .iter()
        .map(|name| build(name, threads, scale))
        .collect()
}

/// The recording configuration every workload uses: `threads` cores,
/// the given ordering mode, and the benchmark seed as the kernel's
/// input seed (the only generated input a guest program receives).
pub fn rec_cfg(threads: usize, order: OrderMode, seed: u64) -> RecordingConfig {
    let mut cfg = RecordingConfig::with_cores(threads);
    cfg.order = order;
    cfg.os.input_seed = seed;
    cfg
}

/// Whether `recording` is a correct run of `built`: the guest's own
/// checksum matches the sequential mirror's.
pub fn exit_ok(built: &Built, recording: &Recording) -> bool {
    recording.exit_code == built.expected
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Total bytes of a recording's file images.
pub fn image_bytes(parts: &qr_capo::RecordingParts) -> u64 {
    parts
        .files()
        .iter()
        .map(|(_, bytes)| bytes.len() as u64)
        .sum()
}
