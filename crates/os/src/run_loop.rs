//! The kernel's run loop, shared by native and recorded runs: [`run`],
//! generic over a [`Monitor`] whose hooks sit where a recorder acts.

use crate::events::{SchedEvent, SyscallOutcome};
use crate::kernel::Kernel;
use qr_common::{CoreId, QrError, Result, ThreadId};
use qr_cpu::{Machine, NondetKind, StepOutcome, StepResult};
use qr_mem::Access;

/// A kernel boundary the loop is about to cross on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The quantum expired and the kernel will preempt the thread.
    Preempt,
    /// The kernel will deliver a pending user signal.
    Signal,
    /// The thread trapped with a syscall.
    Syscall,
    /// The thread halted or faulted and the kernel will end it.
    Exit,
}

/// Hooks into [`run`], each at one fixed point of the loop and a no-op
/// by default. A hook may drain `machine` or charge it cycles; a monitor
/// that charges nothing cannot change the run. A hook's error ends it.
/// The hooks that follow a kernel action see its cycles already charged.
pub trait Monitor {
    /// The scheduling actions of the loop's first [`Kernel::place_runnable`];
    /// later ones arrive in [`Monitor::kernel_outcome`].
    fn scheduled(&mut self, _machine: &mut Machine, _events: &[SchedEvent]) {}

    /// After each step, its events still in [`Machine::events`].
    fn stepped(&mut self, _machine: &mut Machine, _core: CoreId, _step: &StepResult) -> Result<()> {
        Ok(())
    }

    /// Before the kernel acts at `boundary`, with the boundary's
    /// store-buffer drain ([`Boundary::Syscall`] and [`Boundary::Exit`]).
    fn boundary(&mut self, _: &mut Machine, _: CoreId, _: Boundary, _drain: Option<&Access>) -> Result<()> {
        Ok(())
    }

    /// What a preemption, syscall, halt or fault on `core` did.
    fn kernel_outcome(&mut self, _machine: &mut Machine, _core: CoreId, _out: SyscallOutcome) -> Result<()> {
        Ok(())
    }

    /// The kernel redirected `tid` on `core` to its signal handler.
    fn signal_delivered(&mut self, _machine: &mut Machine, _core: CoreId, _tid: ThreadId) {}

    /// The kernel supplied `value` to `tid`'s `rdtsc`/`rdrand`.
    fn nondet(&mut self, _tid: ThreadId, _kind: NondetKind, _value: u32) {}

    /// The loop finished reacting to a step on `core`.
    fn iteration_end(&mut self, _machine: &mut Machine, _core: CoreId) {}
}

/// The native run: no hooks.
impl Monitor for () {}

/// Steps the least-advanced busy core until every thread has exited.
/// Returns the number of instructions retired.
///
/// # Errors
///
/// [`QrError::BudgetExceeded`] past the kernel's instruction budget,
/// [`QrError::Execution`] when every thread is blocked, or the first
/// error of a drain, the kernel or a hook.
pub fn run<M: Monitor>(machine: &mut Machine, kernel: &mut Kernel, monitor: &mut M) -> Result<u64> {
    let first = SyscallOutcome { sched: kernel.place_runnable(machine), ..SyscallOutcome::default() };
    ledger(machine, CoreId(0), &first);
    monitor.scheduled(machine, &first.sched);
    let budget = kernel.config().max_instructions;
    let mut instructions = 0u64;
    while !kernel.all_done() {
        // Every kernel action ends by filling the idle cores from the
        // run queue, so with no busy core every live thread is blocked.
        let Some(core) = machine.least_advanced_busy_core() else {
            return Err(deadlock(kernel));
        };
        let step = machine.step(core);
        if step.instruction_retired() {
            instructions += 1;
            if instructions > budget {
                return Err(budget_exceeded(instructions));
            }
        }
        monitor.stepped(machine, core, &step)?;
        match step.outcome {
            StepOutcome::Retired => {
                if kernel.quantum_expired(machine, core) {
                    monitor.boundary(machine, core, Boundary::Preempt, None)?;
                    let out = kernel.preempt(machine, core);
                    ledger(machine, core, &out);
                    monitor.kernel_outcome(machine, core, out)?;
                }
                if kernel.signal_ready(core) {
                    monitor.boundary(machine, core, Boundary::Signal, None)?;
                    let (tid, out) = kernel.deliver_signal(machine, core);
                    ledger(machine, core, &out);
                    monitor.signal_delivered(machine, core, tid);
                }
            }
            StepOutcome::Syscall => {
                let drain = machine.drain_store_buffer(core)?;
                monitor.boundary(machine, core, Boundary::Syscall, Some(&drain))?;
                let out = kernel.handle_syscall(machine, core)?;
                ledger(machine, core, &out);
                monitor.kernel_outcome(machine, core, out)?;
            }
            StepOutcome::Nondet { kind, rd } => {
                let tid = kernel.thread_on(core).expect("nondet from a running thread");
                let value = kernel.nondet_value(machine, kind);
                machine.write_reg(core, rd, value);
                monitor.nondet(tid, kind, value);
            }
            StepOutcome::Halt => {
                let drain = machine.drain_store_buffer(core)?;
                monitor.boundary(machine, core, Boundary::Exit, Some(&drain))?;
                let out = kernel.handle_halt(machine, core);
                ledger(machine, core, &out);
                monitor.kernel_outcome(machine, core, out)?;
            }
            // Binding the error by value (not `ref`) moves it out here, so
            // no other arm has anything to drop: a step ends without an
            // out-of-line `drop_in_place` call.
            StepOutcome::Fault(err) => {
                let drain = machine.drain_store_buffer(core)?;
                monitor.boundary(machine, core, Boundary::Exit, Some(&drain))?;
                let out = kernel.handle_fault(machine, core, &err);
                ledger(machine, core, &out);
                monitor.kernel_outcome(machine, core, out)?;
            }
            StepOutcome::Idle => {}
        }
        monitor.iteration_end(machine, core);
    }
    Ok(instructions)
}

/// The one place kernel time reaches a clock: every core the action
/// placed is lifted to the makespan it reported, then the acting `core`
/// is charged the action's own `kernel_cycles`. A switching core that
/// trails the makespan thus pays its switch on top of the lift.
fn ledger(machine: &mut Machine, core: CoreId, out: &SyscallOutcome) {
    for event in &out.sched {
        if let SchedEvent::ScheduledOn { core, lift, .. } = *event {
            machine.core_mut(core).add_cycles(lift);
        }
    }
    machine.core_mut(core).add_cycles(out.kernel_cycles);
}

#[cold]
#[inline(never)]
fn deadlock(kernel: &Kernel) -> QrError {
    QrError::Execution { detail: format!("deadlock: {} threads blocked forever", kernel.live_threads()) }
}

#[cold]
#[inline(never)]
fn budget_exceeded(executed: u64) -> QrError {
    QrError::BudgetExceeded { executed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{run_native, state_fingerprint, RunOutcome};
    use crate::OsConfig;
    use qr_cpu::CpuConfig;
    use qr_isa::{abi, Asm, Program, Reg};

    /// One hook call, as the logging monitor saw it. The `u64`s are the
    /// core's cycle count when the hook ran, so a boundary and the hook
    /// after it bracket exactly what the ledger charged for the action.
    #[derive(Debug)]
    enum Hook {
        Scheduled,
        Stepped,
        Boundary(CoreId, Boundary, bool, u64),
        Outcome(CoreId, SyscallOutcome, u64),
        Signal(CoreId, u64),
        Nondet(NondetKind),
        End,
    }

    /// Logs every hook call and charges nothing.
    #[derive(Default)]
    struct Log(Vec<Hook>);

    impl Monitor for Log {
        fn scheduled(&mut self, _: &mut Machine, _: &[SchedEvent]) {
            self.0.push(Hook::Scheduled);
        }
        fn stepped(&mut self, _: &mut Machine, _: CoreId, _: &StepResult) -> Result<()> {
            self.0.push(Hook::Stepped);
            Ok(())
        }
        fn boundary(&mut self, m: &mut Machine, core: CoreId, b: Boundary, drain: Option<&Access>) -> Result<()> {
            self.0.push(Hook::Boundary(core, b, drain.is_some(), m.core(core).cycles()));
            Ok(())
        }
        fn kernel_outcome(&mut self, m: &mut Machine, core: CoreId, out: SyscallOutcome) -> Result<()> {
            self.0.push(Hook::Outcome(core, out, m.core(core).cycles()));
            Ok(())
        }
        fn signal_delivered(&mut self, m: &mut Machine, core: CoreId, _: ThreadId) {
            self.0.push(Hook::Signal(core, m.core(core).cycles()));
        }
        fn nondet(&mut self, _: ThreadId, kind: NondetKind, _: u32) {
            self.0.push(Hook::Nondet(kind));
        }
        fn iteration_end(&mut self, _: &mut Machine, _: CoreId) {
            self.0.push(Hook::End);
        }
    }

    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    /// Main installs a handler, spawns a worker that signals it, reads
    /// `rdrand` and spins until the handler ran: on one core only a
    /// quantum preemption lets the worker run. Then a second thread
    /// faults while main is joined on it, and main halts.
    fn every_boundary() -> Program {
        let mut a = Asm::new();
        a.data_word("hits", &[0]);
        sys(&mut a, abi::SYS_SIGACTION, |a| {
            a.movi_sym(Reg::R1, "handler");
        });
        sys(&mut a, abi::SYS_GETTID, |_| {});
        a.mov(Reg::R7, Reg::R0);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "signaller");
            a.mov(Reg::R2, Reg::R7);
        });
        a.mov(Reg::R6, Reg::R0);
        a.rdrand(Reg::R5);
        a.movi_sym(Reg::R3, "hits");
        a.label("wait");
        a.ld(Reg::R4, Reg::R3, 0);
        a.beqz(Reg::R4, "wait");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "crasher");
            a.movi(Reg::R2, 0);
        });
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R0);
        });
        a.halt();
        a.label("handler");
        a.movi_sym(Reg::R3, "hits");
        a.movi(Reg::R4, 1);
        a.st(Reg::R3, 0, Reg::R4);
        a.fence();
        sys(&mut a, abi::SYS_SIGRETURN, |_| {});
        a.label("signaller");
        sys(&mut a, abi::SYS_KILL, |_| {});
        a.halt();
        a.label("crasher");
        a.movi_u(Reg::R1, 0x9000_0000);
        a.ld(Reg::R2, Reg::R1, 0);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn boundaries_precede_the_kernel_and_a_passive_monitor_changes_nothing() {
        let cpu = CpuConfig { num_cores: 1, ..CpuConfig::default() };
        let os = OsConfig { quantum_cycles: 1_000, ..OsConfig::default() };
        let mut machine = Machine::new(every_boundary(), cpu.clone()).unwrap();
        let mut kernel = Kernel::new(os.clone(), &mut machine).unwrap();
        let mut log = Log::default();
        let instructions = run(&mut machine, &mut kernel, &mut log).unwrap();
        let logged = RunOutcome {
            cycles: machine.makespan(),
            instructions,
            console: kernel.console().to_vec(),
            exit_code: kernel.exit_code(),
            fingerprint: state_fingerprint(&machine, &kernel),
        };
        let mut native_machine = Machine::new(every_boundary(), cpu).unwrap();
        assert_eq!(logged, run_native(&mut native_machine, os.clone()).unwrap());

        let hooks = log.0;
        let mut seen = Vec::new();
        for (i, hook) in hooks.iter().enumerate() {
            let Hook::Boundary(core, boundary, drained, before) = *hook else { continue };
            seen.push(boundary);
            assert_eq!(drained, matches!(boundary, Boundary::Syscall | Boundary::Exit), "{boundary:?}");
            let next = &hooks[i + 1];
            // What the ledger owes `core` for an outcome: its lifts onto
            // `core`, then the action's own kernel cycles.
            let owed = |out: &SyscallOutcome| {
                let lifts: u64 = out
                    .sched
                    .iter()
                    .map(|e| match *e {
                        SchedEvent::ScheduledOn { core: c, lift, .. } if c == core => lift,
                        _ => 0,
                    })
                    .sum();
                before + lifts + out.kernel_cycles
            };
            let ok = match (boundary, next) {
                (Boundary::Preempt, Hook::Outcome(c, out, after)) => {
                    *c == core
                        && *after == owed(out)
                        && out.kernel_cycles == os.context_switch_cycles
                        && matches!(out.sched.first(), Some(SchedEvent::DescheduledFrom { core: d, .. }) if *d == core)
                }
                (Boundary::Signal, Hook::Signal(c, after)) => {
                    *c == core && *after == before + os.context_switch_cycles / 2
                }
                (Boundary::Syscall, Hook::Outcome(c, out, after)) => {
                    *c == core && *after == owed(out) && out.kernel_cycles >= os.syscall_base_cycles
                }
                (Boundary::Exit, Hook::Outcome(c, out, after)) => {
                    *c == core
                        && *after == owed(out)
                        && out.kernel_cycles == os.syscall_base_cycles
                        && out.records.first().is_some_and(|r| r.number == abi::SYS_EXIT)
                }
                _ => false,
            };
            assert!(ok, "{boundary:?} on {core} is followed by {next:?}");
        }
        for boundary in [Boundary::Preempt, Boundary::Signal, Boundary::Syscall] {
            assert!(seen.contains(&boundary), "no {boundary:?} boundary: {seen:?}");
        }
        assert_eq!(seen.iter().filter(|b| **b == Boundary::Exit).count(), 3, "two halts and a fault");
        assert!(hooks.iter().any(|h| matches!(h, Hook::Nondet(NondetKind::Rdrand))));
        let steps = hooks.iter().filter(|h| matches!(h, Hook::Stepped)).count();
        let ends = hooks.iter().filter(|h| matches!(h, Hook::End)).count();
        assert_eq!(steps, ends, "every step's iteration ends");
        assert!(matches!(hooks.first(), Some(Hook::Scheduled)), "the first placement is reported");
        let placements = hooks.iter().filter(|h| matches!(h, Hook::Scheduled)).count();
        assert_eq!(placements, 1, "later placements arrive with kernel outcomes");
    }
}
