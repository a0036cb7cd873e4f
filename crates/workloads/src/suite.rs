//! The workload suite: the reproduction's "SPLASH-2 table".

use qr_common::{wire_enum, Result};
use qr_isa::Program;

wire_enum! {
    /// Problem-size scale.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Scale as "scale tag" {
        /// Tiny inputs for unit tests (tens of thousands of instructions).
        0 "test" Test,
        /// Small inputs for quick experiments.
        #[default]
        1 "small" Small,
        /// Reference inputs for the experiment harness (roughly a million
        /// instructions per workload).
        2 "reference" Reference,
    }
}

impl Scale {
    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        self.label()
    }
}

/// One workload in the suite.
///
/// Specs are plain `Copy` data (static strings and function pointers), so
/// experiment jobs can capture them by value and run on worker threads.
#[derive(Clone, Copy)]
pub struct WorkloadSpec {
    /// Short name (matches the SPLASH-2 analog).
    pub name: &'static str,
    /// What the kernel does and which synchronization it exercises.
    pub description: &'static str,
    /// Builds the program.
    pub build: fn(threads: usize, scale: Scale) -> Result<Program>,
    /// The checksum the program must exit with.
    pub expected: fn(threads: usize, scale: Scale) -> u32,
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec").field("name", &self.name).finish()
    }
}

/// The eleven-workload suite, in canonical order.
pub fn suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "fft",
            description: "staged butterfly network (Walsh-Hadamard), barriers per stage",
            build: crate::fft::build,
            expected: crate::fft::expected_checksum,
        },
        WorkloadSpec {
            name: "lu",
            description: "dense elimination, row-cyclic partitioning, barrier per pivot",
            build: crate::lu::build,
            expected: crate::lu::expected_checksum,
        },
        WorkloadSpec {
            name: "radix",
            description: "radix sort: private histograms, prefix, stable permute",
            build: crate::radix::build,
            expected: crate::radix::expected_checksum,
        },
        WorkloadSpec {
            name: "ocean",
            description: "banded Jacobi stencil, barrier per sweep",
            build: crate::ocean::build,
            expected: crate::ocean::expected_checksum,
        },
        WorkloadSpec {
            name: "barnes",
            description: "all-pairs forces + mutex-protected cell accumulation",
            build: crate::barnes::build,
            expected: crate::barnes::expected_checksum,
        },
        WorkloadSpec {
            name: "water",
            description: "windowed pairwise updates with ordered per-molecule locks",
            build: crate::water::build,
            expected: crate::water::expected_checksum,
        },
        WorkloadSpec {
            name: "fmm",
            description: "tree reduction up-sweep + down-sweep, barrier per level",
            build: crate::fmm::build,
            expected: crate::fmm::expected_checksum,
        },
        WorkloadSpec {
            name: "raytrace",
            description: "dynamic tile queue via fetch-add, per-pixel iteration",
            build: crate::raytrace::build,
            expected: crate::raytrace::expected_checksum,
        },
        WorkloadSpec {
            name: "cholesky",
            description: "dependency-driven column elimination via a ready pool",
            build: crate::cholesky::build,
            expected: crate::cholesky::expected_checksum,
        },
        WorkloadSpec {
            name: "volrend",
            description: "ray casting over a read-only MIP hierarchy, fetch-add tiles",
            build: crate::volrend::build,
            expected: crate::volrend::expected_checksum,
        },
        WorkloadSpec {
            name: "radiosity",
            description: "mutex-protected task queue with dynamic task spawning",
            build: crate::radiosity::build,
            expected: crate::radiosity::expected_checksum,
        },
    ]
}

/// Finds a workload by name.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    suite().into_iter().find(|w| w.name == name)
}

/// Deterministic data initializer shared by the workloads and their
/// Rust mirrors.
pub fn init_value(seed: u64, i: usize) -> u32 {
    let mut rng = qr_common::SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
    rng.next_u32()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_unique_workloads() {
        let s = suite();
        assert_eq!(s.len(), 11);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn find_locates_workloads() {
        assert!(find("fft").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn init_value_is_deterministic_and_spread() {
        assert_eq!(init_value(1, 5), init_value(1, 5));
        assert_ne!(init_value(1, 5), init_value(1, 6));
        assert_ne!(init_value(1, 5), init_value(2, 5));
    }
}
