//! Host-speed calibration.
//!
//! On a shared box the same single-threaded code runs 20–40 % slower for
//! seconds at a time (measured: the per-window median of a fixed loop
//! drifted between 20.5 and 29.3 ms; CPU time drifted with it, so it is
//! not preemption). No estimator inside a twelve-second run survives
//! that: medians of raw wall time spread by a fifth between runs.
//!
//! So every timed region is interleaved with slices of a fixed kernel
//! that belongs to the benchmark, not to the program under test: a
//! little register-machine interpreter running a fixed pseudo-random
//! program — opcode dispatch, an in-memory register file, a
//! data-dependent branch. It is the same *kind* of code as the
//! simulator that bounds most workloads (high instruction-level
//! parallelism, branchy, resident in L1), which matters: whatever
//! slows the host (a busy sibling hyperthread, by the look of it) hits
//! such code about 1.2x as hard as it hits a dependent arithmetic
//! chain, and a kernel of this kind tracked `record` and replay with a
//! correlation of 0.9 where a dependent chain managed 0.6. The ratio
//! of a slice's time to [`NOMINAL_SLICE_S`] says how much slower than
//! the reference host the machine is *right now*, and CPU-bound
//! timings are divided by it. Reported seconds are therefore seconds
//! on the reference host at its undisturbed speed. A change to the
//! program cannot move the kernel, so a normalised metric moves only
//! when the program does.
//!
//! Timings that are mostly sleeping (the daemon's poll-bound session
//! latencies) are not normalised: the host's speed barely enters them.

use std::hint::black_box;
use std::time::Instant;

/// Bytes of the interpreted program (three per instruction).
const CODE_BYTES: usize = 3000;
/// Instructions one slice interprets.
const STEPS: usize = 500_000;

/// Seconds one slice takes on the reference host (2-core Xeon @
/// 2.1 GHz) when nothing disturbs it: the low end of its distribution
/// there. The constant only fixes the unit; ratios between commits do
/// not depend on it.
pub const NOMINAL_SLICE_S: f64 = 0.001;

/// The fixed kernel: a toy interpreter and the program it runs.
pub struct Kernel {
    code: Vec<u8>,
    regs: [u64; 16],
}

impl Kernel {
    /// Generates the fixed program.
    pub fn new() -> Kernel {
        Kernel {
            code: (0..CODE_BYTES as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
            regs: [1; 16],
        }
    }

    /// Runs one slice and returns how long it took, seconds.
    pub fn slice(&mut self) -> f64 {
        let started = Instant::now();
        let (code, regs) = (&self.code, &mut self.regs);
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let (op, a, b) = (
                code[pc],
                (code[pc + 1] & 15) as usize,
                (code[pc + 2] & 15) as usize,
            );
            match op & 7 {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^= regs[b].rotate_left(7),
                2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                3 => regs[a] = regs[b] >> 3,
                4 => {
                    if regs[a] & 1 == 0 {
                        pc = (pc + 12) % (CODE_BYTES - 3);
                        continue;
                    }
                }
                5 => regs[a] = regs[a].wrapping_sub(regs[b]),
                6 => regs[a] |= regs[b] << 1,
                _ => regs[a] = !regs[b],
            }
            pc += 3;
            if pc >= CODE_BYTES - 3 {
                pc = 0;
            }
        }
        black_box(regs[0]);
        started.elapsed().as_secs_f64()
    }
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

/// Slices taken around one timed region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostSpeed {
    slices: Vec<f64>,
}

impl HostSpeed {
    /// Adds a slice's time.
    pub fn push(&mut self, seconds: f64) {
        self.slices.push(seconds);
    }

    /// Seconds spent calibrating (not part of the region it times).
    pub fn spent(&self) -> f64 {
        self.slices.iter().sum()
    }

    /// How many times slower than the reference host the machine was:
    /// the median slice over [`NOMINAL_SLICE_S`]. 1 when no slice ran.
    pub fn slowdown(&self) -> f64 {
        if self.slices.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.slices) / NOMINAL_SLICE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_slice_over_nominal() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        for s in [2.0, 1.0, 50.0] {
            h.push(s * NOMINAL_SLICE_S);
        }
        assert!(
            (h.slowdown() - 2.0).abs() < 1e-12,
            "one disturbed slice does not move it"
        );
        assert!((h.spent() - 53.0 * NOMINAL_SLICE_S).abs() < 1e-12);
    }

    #[test]
    fn slices_do_the_same_work_each_time() {
        let mut k = Kernel::new();
        let times: Vec<f64> = (0..5).map(|_| k.slice()).collect();
        assert!(times.iter().all(|t| *t > 0.0));
    }
}
