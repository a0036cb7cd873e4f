//! The native (recording-off) run — the baseline of the overhead
//! experiments — and the architectural-outcome fingerprint.

use crate::kernel::Kernel;
use crate::run_loop::run;
use crate::OsConfig;
use qr_common::{Fingerprint, Result};
use qr_cpu::Machine;

/// Result of running a program to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Makespan: the largest per-core cycle count.
    pub cycles: u64,
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// Console output.
    pub console: Vec<u8>,
    /// Main thread's exit code.
    pub exit_code: u32,
    /// Architectural-outcome digest: memory image, console, per-thread
    /// exit codes. Two executions with equal fingerprints ended in the
    /// same state.
    pub fingerprint: u64,
}

/// Computes the architectural-outcome fingerprint from its parts. The
/// replayer uses this same function, so record and replay digests are
/// directly comparable.
pub fn fingerprint_of(machine: &Machine, console: &[u8], exit_codes: &[Option<u32>]) -> u64 {
    let mut fp = Fingerprint::new();
    machine.mem().memory().fingerprint_into(&mut fp);
    fp.field("console", console);
    for code in exit_codes {
        fp.u32(code.map_or(u32::MAX, |c| c.wrapping_add(1)));
    }
    fp.digest()
}

/// Computes the architectural-outcome fingerprint of a finished (or
/// paused) machine+kernel pair.
pub fn state_fingerprint(machine: &Machine, kernel: &Kernel) -> u64 {
    fingerprint_of(machine, kernel.console(), &kernel.exit_codes())
}

/// Runs the loaded program natively (no recording) to completion: the
/// kernel's [`run`] loop with the `()` monitor.
///
/// # Errors
///
/// Those of [`run`]: the instruction budget runs out, or every thread
/// blocks forever.
pub fn run_native(machine: &mut Machine, os_cfg: OsConfig) -> Result<RunOutcome> {
    let mut kernel = Kernel::new(os_cfg, machine)?;
    let instructions = run(machine, &mut kernel, &mut ())?;
    Ok(RunOutcome {
        cycles: machine.makespan(),
        instructions,
        console: kernel.console().to_vec(),
        exit_code: kernel.exit_code(),
        fingerprint: state_fingerprint(machine, &kernel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::QrError;
    use qr_cpu::CpuConfig;
    use qr_isa::abi;
    use qr_isa::{Asm, Reg};

    fn run(asm: Asm, cores: usize) -> RunOutcome {
        let mut machine = Machine::new(
            asm.finish().unwrap(),
            CpuConfig { num_cores: cores, ..CpuConfig::default() },
        )
        .unwrap();
        run_native(&mut machine, OsConfig::default()).unwrap()
    }

    /// Emits `syscall(number, a1, a2)`; result lands in R0.
    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    #[test]
    fn hello_world_reaches_console() {
        let mut a = Asm::new();
        a.data_bytes("msg", b"hello\n");
        sys(&mut a, abi::SYS_WRITE, |a| {
            a.movi_sym(Reg::R1, "msg");
            a.movi(Reg::R2, 6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let out = run(a, 1);
        assert_eq!(out.console, b"hello\n");
        assert_eq!(out.exit_code, 0);
        assert!(out.instructions > 0);
    }

    #[test]
    fn spawn_join_collects_exit_code() {
        let mut a = Asm::new();
        // main: spawn worker(arg=5), join, exit(join result)
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "worker");
            a.movi(Reg::R2, 5);
        });
        a.mov(Reg::R6, Reg::R0); // worker tid
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        a.mov(Reg::R1, Reg::R0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        // worker: exit(arg * 2)
        a.label("worker");
        a.add(Reg::R1, Reg::R1, Reg::R1);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let out = run(a, 2);
        assert_eq!(out.exit_code, 10);
    }

    #[test]
    fn futex_wait_wake_round_trip() {
        let mut a = Asm::new();
        a.data_word("flag", &[0]);
        // main: spawn waiter; busy-set flag=1; wake; join; exit(0)
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "waiter");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        // Give the waiter time to block.
        sys(&mut a, abi::SYS_YIELD, |_| {});
        a.movi_sym(Reg::R3, "flag");
        a.movi(Reg::R4, 1);
        a.st(Reg::R3, 0, Reg::R4);
        a.fence();
        sys(&mut a, abi::SYS_FUTEX_WAKE, |a| {
            a.movi_sym(Reg::R1, "flag");
            a.movi(Reg::R2, 8);
        });
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        a.mov(Reg::R1, Reg::R0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        // waiter: while flag == 0: futex_wait(flag, 0); exit(flag + 100)
        a.label("waiter");
        a.movi_sym(Reg::R3, "flag");
        a.label("check");
        a.ld(Reg::R4, Reg::R3, 0);
        a.bnez(Reg::R4, "done");
        sys(&mut a, abi::SYS_FUTEX_WAIT, |a| {
            a.movi_sym(Reg::R1, "flag");
            a.movi(Reg::R2, 0);
        });
        a.jmp("check");
        a.label("done");
        a.addi(Reg::R1, Reg::R4, 100);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let out = run(a, 2);
        assert_eq!(out.exit_code, 101);
    }

    #[test]
    fn single_core_runs_multithreaded_programs() {
        // Same futex program but on one core: requires preemption and
        // blocking to make progress.
        let mut a = Asm::new();
        a.data_word("turns", &[0]);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "worker");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        a.mov(Reg::R1, Reg::R0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        a.label("worker");
        a.movi(Reg::R1, 77);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let out = run(a, 1);
        assert_eq!(out.exit_code, 77);
    }

    #[test]
    fn sbrk_grows_heap() {
        let mut a = Asm::new();
        sys(&mut a, abi::SYS_SBRK, |a| {
            a.movi(Reg::R1, 4096);
        });
        a.mov(Reg::R6, Reg::R0); // old brk
        // Store to the new memory and read it back.
        a.movi(Reg::R4, 123);
        a.st(Reg::R6, 0, Reg::R4);
        a.ld(Reg::R5, Reg::R6, 0);
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.mov(Reg::R1, Reg::R5);
        });
        let out = run(a, 1);
        assert_eq!(out.exit_code, 123);
    }

    #[test]
    fn read_syscall_fills_buffer_deterministically() {
        let mut a = Asm::new();
        a.data_space("buf", 4);
        sys(&mut a, abi::SYS_READ, |a| {
            a.movi_sym(Reg::R1, "buf");
            a.movi(Reg::R2, 16);
        });
        a.movi_sym(Reg::R3, "buf");
        a.ld(Reg::R1, Reg::R3, 0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let o1 = run(a.clone(), 1);
        let o2 = run(a, 1);
        assert_eq!(o1.exit_code, o2.exit_code, "same seed, same input data");
        assert_ne!(o1.exit_code, 0, "the device produced nonzero data");
    }

    #[test]
    fn signals_interrupt_and_sigreturn_resumes() {
        let mut a = Asm::new();
        a.data_word("hits", &[0]);
        // main: install handler, spawn worker that kills us, loop until
        // the handler ran, exit(hits).
        sys(&mut a, abi::SYS_SIGACTION, |a| {
            a.movi_sym(Reg::R1, "handler");
        });
        sys(&mut a, abi::SYS_GETTID, |_| {});
        a.mov(Reg::R7, Reg::R0);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "killer");
            a.mov(Reg::R2, Reg::R7); // pass main's tid
        });
        a.mov(Reg::R6, Reg::R0);
        a.movi_sym(Reg::R3, "hits");
        a.label("wait");
        a.ld(Reg::R4, Reg::R3, 0);
        a.beqz(Reg::R4, "wait");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi_sym(Reg::R3, "hits");
            a.ld(Reg::R1, Reg::R3, 0);
        });
        // handler: hits += 1; sigreturn
        a.label("handler");
        a.movi_sym(Reg::R3, "hits");
        a.ld(Reg::R4, Reg::R3, 0);
        a.addi(Reg::R4, Reg::R4, 1);
        a.st(Reg::R3, 0, Reg::R4);
        a.fence();
        a.movi_u(Reg::R0, abi::SYS_SIGRETURN);
        a.syscall();
        // killer: kill(arg); exit(0)
        a.label("killer");
        a.movi_u(Reg::R0, abi::SYS_KILL);
        a.syscall();
        a.movi(Reg::R1, 0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let out = run(a, 2);
        assert_eq!(out.exit_code, 1, "handler ran exactly once");
    }

    #[test]
    fn deadlock_is_detected() {
        let mut a = Asm::new();
        a.data_word("never", &[0]);
        sys(&mut a, abi::SYS_FUTEX_WAIT, |a| {
            a.movi_sym(Reg::R1, "never");
            a.movi(Reg::R2, 0);
        });
        a.halt();
        let mut machine = Machine::new(
            a.finish().unwrap(),
            CpuConfig { num_cores: 1, ..CpuConfig::default() },
        )
        .unwrap();
        match run_native(&mut machine, OsConfig::default()) {
            Err(QrError::Execution { detail }) => assert!(detail.contains("deadlock")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let mut a = Asm::new();
        a.label("spin");
        a.jmp("spin");
        let mut machine = Machine::new(
            a.finish().unwrap(),
            CpuConfig { num_cores: 1, ..CpuConfig::default() },
        )
        .unwrap();
        let cfg = OsConfig { max_instructions: 1000, ..OsConfig::default() };
        assert!(matches!(
            run_native(&mut machine, cfg),
            Err(QrError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn identical_runs_have_identical_fingerprints() {
        let build = || {
            let mut a = Asm::new();
            a.data_space("buf", 8);
            sys(&mut a, abi::SYS_READ, |a| {
                a.movi_sym(Reg::R1, "buf");
                a.movi(Reg::R2, 32);
            });
            a.rdrand(Reg::R5);
            sys(&mut a, abi::SYS_EXIT, |a| {
                a.mov(Reg::R1, Reg::R5);
            });
            a
        };
        let o1 = run(build(), 2);
        let o2 = run(build(), 2);
        assert_eq!(o1.fingerprint, o2.fingerprint);
        assert_eq!(o1.cycles, o2.cycles, "the whole simulation is deterministic");
    }

    #[test]
    fn rdtsc_and_rdrand_get_values() {
        let mut a = Asm::new();
        a.rdtsc(Reg::R4);
        a.rdrand(Reg::R5);
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let out = run(a, 1);
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn fault_kills_thread_not_machine() {
        let mut a = Asm::new();
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "crasher");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        a.mov(Reg::R1, Reg::R0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        a.label("crasher");
        a.movi_u(Reg::R1, 0x9000_0000);
        a.ld(Reg::R2, Reg::R1, 0); // unmapped
        a.halt();
        let out = run(a, 2);
        assert_eq!(out.exit_code, 0xdead_0000, "join saw the fault exit code");
    }
}
