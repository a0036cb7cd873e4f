//! Outcomes of stepping a core.

use qr_common::QrError;
use qr_isa::Reg;

/// Which nondeterministic-read instruction trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetKind {
    /// `rdtsc` — cycle-counter read.
    Rdtsc,
    /// `rdrand` — hardware random number.
    Rdrand,
}

/// What happened when a core stepped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An ordinary instruction retired.
    Retired,
    /// A `syscall` retired; the kernel must service it (arguments are in
    /// the context's registers, the result goes in `R0`).
    Syscall,
    /// A nondeterministic read retired; the orchestrator must supply the
    /// value by writing `rd` before the core steps again. During
    /// recording the value is generated and logged; during replay it is
    /// injected from the log.
    Nondet {
        /// Which instruction.
        kind: NondetKind,
        /// Destination register awaiting the value.
        rd: Reg,
    },
    /// A `halt` retired; the context is finished.
    Halt,
    /// The instruction faulted (unmapped access, misalignment, division
    /// by zero, bad PC). The PC still points at the faulting instruction;
    /// the kernel kills or signals the thread. Boxed so the common
    /// outcomes keep [`StepResult`] at three words.
    Fault(Box<QrError>),
    /// The core has no context to run.
    Idle,
}

/// Result of one step. The memory events the step produced are not
/// part of it: they stay in the machine's reusable buffer, see
/// [`crate::Machine::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepResult {
    /// What happened.
    pub outcome: StepOutcome,
    /// Cycles the step consumed on this core.
    pub cycles: u64,
}

impl StepResult {
    /// A step that retired normally.
    pub fn retired(cycles: u64) -> StepResult {
        StepResult { outcome: StepOutcome::Retired, cycles }
    }

    /// A step whose instruction faulted (one cycle, nothing retired).
    pub(crate) fn fault(err: QrError) -> StepResult {
        StepResult { outcome: StepOutcome::Fault(Box::new(err)), cycles: 1 }
    }

    /// Whether an instruction actually retired (anything but `Idle` and
    /// `Fault` counts toward the chunk's instruction count).
    pub fn instruction_retired(&self) -> bool {
        !matches!(self.outcome, StepOutcome::Idle | StepOutcome::Fault(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retirement_classification() {
        assert!(StepResult::retired(1).instruction_retired());
        let halt = StepResult { outcome: StepOutcome::Halt, cycles: 1 };
        assert!(halt.instruction_retired(), "halt is a retired instruction");
        let idle = StepResult { outcome: StepOutcome::Idle, cycles: 1 };
        assert!(!idle.instruction_retired());
        let fault = StepResult::fault(QrError::Execution { detail: "x".into() });
        assert!(!fault.instruction_retired());
    }

    #[test]
    fn step_result_is_three_words() {
        assert!(std::mem::size_of::<StepResult>() <= 24, "{}", std::mem::size_of::<StepResult>());
    }
}
