//! Deterministic fault injection for recording logs (experiment R1).
//!
//! A crash-consistent log format is only trustworthy if *arbitrary*
//! damage is handled, not just the tears we thought of. This module
//! mutates serialized chunk and input logs with five deterministic,
//! SplitMix64-driven mutators and checks the robustness contract on
//! every case:
//!
//! 1. decoding mutated bytes never panics,
//! 2. strict decode either succeeds or returns a structured
//!    [`QrError`], and
//! 3. salvage replay of the mutated log reproduces a *prefix* of the
//!    clean execution — console output, replayed chunk count and
//!    instruction count never exceed (or diverge from) the clean run,
//!    and the salvaged prefix is internally consistent.
//!
//! Every random stream is keyed by the job's stable identity
//! (workload, encoding, mutator), never by shared mutable state, so a
//! fuzz campaign is reproducible case-for-case regardless of how the
//! parallel executor schedules the jobs.

use crate::runner::{BuildCache, JobOutput};
use crate::{full_cfg, record_workload_with};
use qr_capo::{InputLog, InputSalvage, Recording, RecoveryInfo};
use qr_common::{frame, Fingerprint, QrError, Result, SplitMix64};
use qr_isa::Program;
use qr_workloads::{Scale, WorkloadSpec};
use quickrec_core::{ChunkLog, Encoding, OrderLog, OrderMode, SalvagedPackets};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default total mutated-recording cases for a full `repro r1` run.
pub const DEFAULT_FUZZ_CASES: usize = 12_000;

static FUZZ_CASES: AtomicUsize = AtomicUsize::new(DEFAULT_FUZZ_CASES);

/// Sets the total case budget for experiment R1 (divided across its
/// jobs). Called by the CLI (`--fuzz-iters`) before planning; the plan
/// captures the value, so jobs themselves read no shared state.
pub fn set_fuzz_cases(total: usize) {
    FUZZ_CASES.store(total.max(1), Ordering::SeqCst);
}

/// The current total case budget for experiment R1.
pub fn fuzz_cases() -> usize {
    FUZZ_CASES.load(Ordering::SeqCst)
}

/// One way of damaging a serialized log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// Cut the byte stream at a random offset (a torn write).
    Truncate,
    /// Flip one random bit (media or transport corruption).
    BitFlip,
    /// Duplicate one whole frame record in place (a replayed write).
    DuplicateRecord,
    /// Swap two whole frame records (reordered writeback).
    ReorderRecords,
    /// Overwrite a random span (up to 64 bytes) with zeroes (an
    /// unwritten page backing part of the file).
    ZeroFill,
}

impl Mutator {
    /// All mutators, in report order.
    pub const ALL: [Mutator; 5] = [
        Mutator::Truncate,
        Mutator::BitFlip,
        Mutator::DuplicateRecord,
        Mutator::ReorderRecords,
        Mutator::ZeroFill,
    ];

    /// Stable name used in reports and seed derivation.
    pub fn name(self) -> &'static str {
        match self {
            Mutator::Truncate => "truncate",
            Mutator::BitFlip => "bit-flip",
            Mutator::DuplicateRecord => "duplicate",
            Mutator::ReorderRecords => "reorder",
            Mutator::ZeroFill => "zero-fill",
        }
    }

    /// Applies the mutation to a copy of `original`, drawing all
    /// randomness from `rng`. Structural mutators that need frame
    /// records fall back to a mid-stream tear when the container has
    /// too few records (possible only for degenerate inputs); `Reorder`
    /// on identical records may be a byte-level no-op, which the
    /// harness tolerates.
    pub fn apply(self, original: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
        let mut bytes = original.to_vec();
        let len = bytes.len();
        if len == 0 {
            return bytes;
        }
        match self {
            Mutator::Truncate => {
                bytes.truncate(rng.below(len as u64) as usize);
            }
            Mutator::BitFlip => {
                let pos = rng.below(len as u64) as usize;
                bytes[pos] ^= 1 << rng.below(8);
            }
            Mutator::DuplicateRecord => {
                let spans = frame::record_spans(&bytes);
                if spans.is_empty() {
                    bytes.truncate(len / 2);
                } else {
                    let span = spans[rng.below(spans.len() as u64) as usize].clone();
                    let copy = bytes[span.clone()].to_vec();
                    let mut out = Vec::with_capacity(len + copy.len());
                    out.extend_from_slice(&bytes[..span.end]);
                    out.extend_from_slice(&copy);
                    out.extend_from_slice(&bytes[span.end..]);
                    bytes = out;
                }
            }
            Mutator::ReorderRecords => {
                let spans = frame::record_spans(&bytes);
                if spans.len() < 2 {
                    bytes.truncate(len / 2);
                } else {
                    let i = rng.below(spans.len() as u64 - 1) as usize;
                    let j = i + 1 + rng.below((spans.len() - 1 - i) as u64) as usize;
                    let (a, b) = (spans[i].clone(), spans[j].clone());
                    let mut out = Vec::with_capacity(len);
                    out.extend_from_slice(&bytes[..a.start]);
                    out.extend_from_slice(&bytes[b.clone()]);
                    out.extend_from_slice(&bytes[a.end..b.start]);
                    out.extend_from_slice(&bytes[a.clone()]);
                    out.extend_from_slice(&bytes[b.end..]);
                    bytes = out;
                }
            }
            Mutator::ZeroFill => {
                let start = rng.below(len as u64) as usize;
                let span = rng.below((len - start).min(64) as u64) as usize + 1;
                bytes[start..start + span].fill(0);
            }
        }
        bytes
    }
}

/// Derives a job's RNG seed from its stable identity so fuzz streams
/// are independent of scheduling and submission order.
pub fn job_seed(parts: &[&str]) -> u64 {
    let mut fp = Fingerprint::new();
    for part in parts {
        fp.field("part", part.as_bytes());
    }
    fp.digest()
}

/// Which serialized log a fuzz case damages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Chunks,
    Inputs,
    Order,
}

impl Target {
    fn label(self) -> &'static str {
        match self {
            Target::Chunks => "chunk",
            Target::Inputs => "input",
            Target::Order => "order",
        }
    }
}

/// What the clean (unmutated) execution produced — the reference every
/// salvaged prefix is checked against.
struct CleanBaseline {
    console: Vec<u8>,
    instructions: u64,
    chunks: usize,
}

/// Per-case verdict: how the mutated bytes were handled (all contract
/// violations are reported as errors, not verdicts).
struct CaseOutcome {
    /// Strict decode returned a structured error.
    rejected: bool,
    /// Fraction of the salvaged timeline that replayed (0 when the
    /// replay could not start).
    salvaged_fraction: f64,
}

/// An intact [`SalvagedPackets`] for the log that was *not* mutated.
fn clean_chunk_salvage() -> SalvagedPackets {
    SalvagedPackets { packets: Vec::new(), expected: None, bytes_dropped: 0, corruption: None }
}

/// An intact [`InputSalvage`] for the log that was *not* mutated.
fn clean_input_salvage() -> InputSalvage {
    InputSalvage {
        expected_events: None,
        expected_threads: None,
        bytes_dropped: 0,
        corruption: None,
    }
}

/// Runs one fuzz case: strict-decodes the mutated bytes, then replays
/// the salvaged recording and checks the prefix contract.
///
/// # Errors
///
/// Any contract violation — a salvaged replay whose console is not a
/// prefix of the clean run's, counters exceeding the clean run's, an
/// internally inconsistent prefix, strict decode disagreeing with
/// salvage, or an accepted mutant whose full
/// replay neither verifies exactly nor errors structurally — is an
/// error. Panics inside decode or replay propagate and fail the
/// harness, which is the "never panics" half of the contract.
/// Runs one fuzz case against the `order.qrp` sidecar: strict decode
/// must reject or accept structurally, salvage must recover a clean
/// *prefix* of the recorded edge set, and an ordered replay under the
/// (possibly weaker) salvaged constraints must either verify exactly or
/// refuse with a structured error — never panic, never silently
/// diverge.
fn check_order_case(
    program: &Program,
    recording: &Recording,
    mutated: &[u8],
    original: &[u8],
) -> Result<CaseOutcome> {
    let violation = |detail: String| QrError::Execution { detail };
    let clean = recording.order.as_ref().expect("order campaign needs a partial-order recording");

    // Strict decode: must fail structurally or succeed — panics abort.
    let strict = OrderLog::from_bytes(mutated);
    let rejected = strict.is_err();

    // Salvage: never fails, and strict/salvage verdicts always agree.
    let (salvaged, info) = OrderLog::salvage_from_bytes(mutated);
    if rejected != info.corruption.is_some() {
        return Err(violation(format!(
            "strict decode ({}) and salvage ({}) disagree",
            if rejected { "rejected" } else { "accepted" },
            if info.corruption.is_some() { "corrupt" } else { "intact" },
        )));
    }

    // Prefix contract: salvage may only drop edges from the tail, never
    // invent or reorder them, and a surviving header matches the clean
    // thread map exactly.
    if !clean.edges().starts_with(salvaged.edges()) {
        return Err(violation(format!(
            "salvaged {} edge(s) are not a prefix of the clean {}",
            salvaged.edges().len(),
            clean.edges().len()
        )));
    }
    if !salvaged.threads().is_empty() && salvaged.threads() != clean.threads() {
        return Err(violation("salvaged thread map differs from the clean header".into()));
    }
    if !rejected && mutated == original && salvaged.edges() != clean.edges() {
        return Err(violation("no-op mutation lost edges".into()));
    }

    // Replay contract: ordered replay under the salvaged constraint set
    // either reproduces the recorded outcome exactly or errors
    // structurally (a dropped binding edge surfaces as a divergence).
    let mut damaged = recording.clone();
    damaged.order = Some(salvaged.clone());
    let replayed_exact =
        match qr_replay::replay_ordered(program, &damaged, 2).map(|o| o.verify_against(recording)) {
            Ok(Ok(())) => true,
            Ok(Err(_)) | Err(_) => false,
        };
    if !rejected && mutated == original && !replayed_exact {
        return Err(violation("no-op mutation did not replay exactly".into()));
    }

    let salvaged_fraction = if clean.edges().is_empty() {
        1.0
    } else {
        salvaged.edges().len() as f64 / clean.edges().len() as f64
    };
    Ok(CaseOutcome { rejected, salvaged_fraction })
}

fn check_case(
    program: &Program,
    recording: &Recording,
    clean: &CleanBaseline,
    target: Target,
    mutated: &[u8],
    original: &[u8],
) -> Result<CaseOutcome> {
    if target == Target::Order {
        return check_order_case(program, recording, mutated, original);
    }
    let target_chunks = target == Target::Chunks;
    let violation = |detail: String| QrError::Execution { detail };

    // Strict decode: must fail structurally or succeed — panics abort.
    let (strict_chunks, strict_inputs) = if target_chunks {
        (Some(ChunkLog::from_bytes(mutated)), None)
    } else {
        (None, Some(InputLog::from_bytes(mutated)))
    };
    let rejected = strict_chunks.as_ref().map_or(false, |r| r.is_err())
        || strict_inputs.as_ref().map_or(false, |r| r.is_err());

    // Salvage path: substitute the mutated log, replay the prefix.
    let mut damaged = recording.clone();
    let recovery = if target_chunks {
        let (chunks, info) = ChunkLog::salvage_from_bytes(mutated);
        damaged.chunks = chunks;
        RecoveryInfo { chunks: info, inputs: clean_input_salvage(), order: None }
    } else {
        let (inputs, info) = InputLog::salvage_from_bytes(mutated);
        damaged.inputs = inputs;
        RecoveryInfo { chunks: clean_chunk_salvage(), inputs: info, order: None }
    };
    // Strict decode is the salvage walk failing on corruption, for every
    // byte string: the two verdicts always agree.
    let flagged = recovery.chunks.corruption.is_some() || recovery.inputs.corruption.is_some();
    if rejected != flagged {
        return Err(violation(format!(
            "strict decode ({}) and salvage ({}) disagree",
            if rejected { "rejected" } else { "accepted" },
            if flagged { "corrupt" } else { "intact" },
        )));
    }

    // Whatever strict decode *accepted* must not mis-replay: a full
    // verified replay of the accepted content either errors structurally
    // or reproduces the clean outcome exactly (benign mutations like
    // swapped same-timestamp records land here).
    if !rejected && mutated != original {
        let mut accepted = recording.clone();
        if let Some(Ok(chunks)) = strict_chunks {
            accepted.chunks = chunks;
        }
        if let Some(Ok(inputs)) = strict_inputs {
            accepted.inputs = inputs;
        }
        // Ok here means the replay reproduced the recorded fingerprint,
        // console and exit codes; Err is a structured rejection at
        // replay time. Both satisfy the contract — only panics, which
        // abort the harness, violate it.
        drop(qr_replay::replay_and_verify(program, &accepted));
    }

    let report = qr_replay::salvage_replay(program, &damaged, &recovery);
    if !clean.console.starts_with(&report.console) {
        return Err(violation(format!(
            "salvaged console ({} bytes) is not a prefix of the clean console ({} bytes)",
            report.console.len(),
            clean.console.len()
        )));
    }
    if report.instructions > clean.instructions {
        return Err(violation(format!(
            "salvaged replay ran {} instructions, clean run had {}",
            report.instructions, clean.instructions
        )));
    }
    if report.chunks_replayed > clean.chunks {
        return Err(violation(format!(
            "salvaged replay consumed {} chunks, clean log had {}",
            report.chunks_replayed, clean.chunks
        )));
    }
    if report.fingerprint.is_some() && !report.fingerprint_consistent {
        return Err(violation("salvaged prefix fingerprint is not reproducible".into()));
    }
    if !rejected && mutated == original && !report.is_complete() {
        return Err(violation(format!(
            "no-op mutation did not replay completely: {}",
            report.summary()
        )));
    }

    let salvaged_fraction = if report.timeline_len == 0 {
        0.0
    } else {
        report.events_replayed as f64 / report.timeline_len as f64
    };
    Ok(CaseOutcome { rejected, salvaged_fraction })
}

/// One R1 job: records `spec` once, then runs `cases` deterministic
/// mutations of one of its serialized logs through [`check_case`].
///
/// Returns one table row: workload, encoding, mutator, case count, how
/// many mutants the strict decoder rejected vs accepted, and the mean
/// fraction of the salvaged timeline that replayed (also the job's
/// footer statistic).
///
/// # Errors
///
/// Fails on the first contract violation, naming the case index and
/// seed so the exact mutant can be replayed.
pub fn fuzz_job(
    cache: &BuildCache,
    spec: &WorkloadSpec,
    encoding: Encoding,
    mutator: Mutator,
    cases: usize,
) -> Result<JobOutput> {
    let threads = 2;
    let program = cache.program(spec, threads, Scale::Test)?;
    // Record in partial-order mode so the campaign covers all three
    // serialized logs; the chunk and input bytes are unaffected by the
    // mode (the equivalence battery pins that).
    let mut cfg = full_cfg(threads);
    cfg.order = OrderMode::PartialOrder;
    let recording = record_workload_with(cache, spec, threads, Scale::Test, cfg)?;
    let clean = CleanBaseline {
        console: recording.console.clone(),
        instructions: recording.instructions,
        chunks: recording.chunks.len(),
    };
    let chunk_bytes = recording.chunks.to_bytes(encoding);
    let input_bytes = recording.inputs.to_bytes();
    let order_bytes = recording.order.as_ref().expect("partial-order recording").to_bytes();

    let seed = job_seed(&["r1", spec.name, encoding.name(), mutator.name()]);
    let mut rng = SplitMix64::new(seed);
    let mut rejected = 0usize;
    let mut fraction_sum = 0.0f64;
    for case in 0..cases {
        let target = match rng.below(3) {
            0 => Target::Chunks,
            1 => Target::Inputs,
            _ => Target::Order,
        };
        let original = match target {
            Target::Chunks => &chunk_bytes,
            Target::Inputs => &input_bytes,
            Target::Order => &order_bytes,
        };
        let mutated = mutator.apply(original, &mut rng);
        let outcome = check_case(&program, &recording, &clean, target, &mutated, original)
            .map_err(|e| QrError::Execution {
                detail: format!(
                    "{}/{}/{} case {case}/{cases} (seed {seed:#018x}, {} log): {e}",
                    spec.name,
                    encoding.name(),
                    mutator.name(),
                    target.label(),
                ),
            })?;
        rejected += outcome.rejected as usize;
        fraction_sum += outcome.salvaged_fraction;
    }
    let mean_fraction = if cases == 0 { 0.0 } else { fraction_sum / cases as f64 };
    Ok(JobOutput::row([
        spec.name.to_string(),
        encoding.name().to_string(),
        mutator.name().to_string(),
        cases.to_string(),
        rejected.to_string(),
        (cases - rejected).to_string(),
        format!("{:.1}%", 100.0 * mean_fraction),
    ])
    .with_stat(mean_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::frame::{PayloadKind, Writer};

    fn container(records: &[&[u8]]) -> Vec<u8> {
        let mut w = Writer::new(PayloadKind::ChunkLog);
        for r in records {
            w.record(r);
        }
        w.finish()
    }

    #[test]
    fn mutators_are_deterministic() {
        let buf = container(&[b"header", b"payload-one", b"payload-two"]);
        for m in Mutator::ALL {
            let mut a = SplitMix64::new(7);
            let mut b = SplitMix64::new(7);
            assert_eq!(m.apply(&buf, &mut a), m.apply(&buf, &mut b), "{}", m.name());
        }
    }

    #[test]
    fn mutators_have_their_advertised_shape() {
        let buf = container(&[b"header", b"payload-one", b"payload-two"]);
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let t = Mutator::Truncate.apply(&buf, &mut rng);
            assert!(t.len() < buf.len());

            let f = Mutator::BitFlip.apply(&buf, &mut rng);
            assert_eq!(f.len(), buf.len());
            let flipped: u32 =
                f.iter().zip(&buf).map(|(a, b)| (a ^ b).count_ones()).sum();
            assert_eq!(flipped, 1);

            let d = Mutator::DuplicateRecord.apply(&buf, &mut rng);
            assert!(d.len() > buf.len());

            let r = Mutator::ReorderRecords.apply(&buf, &mut rng);
            assert_eq!(r.len(), buf.len());

            let z = Mutator::ZeroFill.apply(&buf, &mut rng);
            assert_eq!(z.len(), buf.len());
        }
    }

    #[test]
    fn reorder_swaps_whole_records() {
        let buf = container(&[b"header", b"payload-one", b"payload-two"]);
        let spans = frame::record_spans(&buf);
        // Wait for a draw that swaps the last two records and check the
        // swap is exact (records 1 and 2 have equal lengths here).
        let mut rng = SplitMix64::new(3);
        loop {
            let out = Mutator::ReorderRecords.apply(&buf, &mut rng);
            if out != buf && out[spans[0].clone()] == buf[spans[0].clone()] {
                assert_eq!(out.len(), buf.len());
                assert_eq!(out[spans[0].clone()], buf[spans[0].clone()]);
                assert_eq!(out[spans[1].clone()], buf[spans[2].clone()]);
                assert_eq!(out[spans[2].clone()], buf[spans[1].clone()]);
                break;
            }
        }
    }

    #[test]
    fn job_seed_is_stable_and_identity_sensitive() {
        let a = job_seed(&["r1", "fft", "delta", "bit-flip"]);
        assert_eq!(a, job_seed(&["r1", "fft", "delta", "bit-flip"]));
        assert_ne!(a, job_seed(&["r1", "fft", "delta", "truncate"]));
        assert_ne!(a, job_seed(&["r1", "fft", "deltab", "it-flip"]));
    }

    #[test]
    fn fuzz_job_runs_clean_on_a_small_budget() {
        let cache = BuildCache::new();
        let spec = qr_workloads::suite::find("fft").expect("suite member");
        let out = fuzz_job(&cache, &spec, Encoding::Delta, Mutator::Truncate, 20)
            .expect("contract holds");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][3], "20");
    }
}
