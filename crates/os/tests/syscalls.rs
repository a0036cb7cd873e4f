//! Direct kernel-surface tests: each syscall's edge cases, exercised by
//! driving `Kernel::handle_syscall` through small guest stubs.

use qr_common::{CoreId, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, Machine, StepOutcome};
use qr_isa::{abi, Asm, Reg};
use qr_os::kernel::EFAULT;
use qr_os::{Kernel, OsConfig, SchedEvent};

const C0: CoreId = CoreId(0);

/// Builds a machine whose main thread performs one syscall with the
/// given number and arguments, then halts; steps it to the trap.
fn at_syscall(number: u32, a1: u32, a2: u32) -> (Machine, Kernel) {
    let mut a = Asm::new();
    a.movi_u(Reg::R0, number);
    a.movi_u(Reg::R1, a1);
    a.movi_u(Reg::R2, a2);
    a.syscall();
    a.halt();
    // A few worker-shaped labels for spawn tests.
    a.label("worker");
    a.movi_u(Reg::R0, abi::SYS_EXIT);
    a.movi(Reg::R1, 9);
    a.syscall();
    let mut machine =
        Machine::new(a.finish().unwrap(), CpuConfig { num_cores: 2, ..CpuConfig::default() })
            .unwrap();
    let mut kernel = Kernel::new(OsConfig::default(), &mut machine).unwrap();
    kernel.place_runnable(&mut machine);
    loop {
        match machine.step(C0).outcome {
            StepOutcome::Syscall => break,
            StepOutcome::Retired => {}
            other => panic!("unexpected outcome before syscall: {other:?}"),
        }
    }
    (machine, kernel)
}

fn result_of(machine: &Machine) -> u32 {
    machine.read_reg(C0, Reg::R0)
}

#[test]
fn write_with_bad_pointer_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_WRITE, 0x9000_0000, 8);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
    assert!(kernel.console().is_empty());
}

#[test]
fn spawn_with_misaligned_entry_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SPAWN, 0x1003, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
    assert_eq!(kernel.live_threads(), 1, "no thread created");
}

#[test]
fn spawn_outside_code_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SPAWN, 0x9_0000, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
}

#[test]
fn join_on_self_and_missing_are_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_JOIN, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT, "join(self)");

    let (mut machine, mut kernel) = at_syscall(abi::SYS_JOIN, 99, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT, "join(nonexistent)");
}

#[test]
fn futex_wait_with_changed_value_returns_one() {
    // The futex word lives on the main stack; value there is 0, and we
    // wait expecting 7 -> immediate return 1.
    let stack_word = qr_isa::program::STACK_TOP - 64;
    let (mut machine, mut kernel) = at_syscall(abi::SYS_FUTEX_WAIT, stack_word, 7);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 1);
    assert!(out.sched.is_empty(), "no deschedule on value mismatch");
}

#[test]
fn futex_wait_on_bad_pointer_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_FUTEX_WAIT, 0x9000_0000, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
}

#[test]
fn futex_wake_with_no_waiters_returns_zero() {
    let stack_word = qr_isa::program::STACK_TOP - 64;
    let (mut machine, mut kernel) = at_syscall(abi::SYS_FUTEX_WAKE, stack_word, 5);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 0);
    assert_eq!(out.records.len(), 1, "only the waker's record");
}

#[test]
fn sbrk_zero_returns_current_break_without_mapping() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SBRK, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    let brk = result_of(&machine);
    assert!(brk >= qr_isa::program::DATA_BASE);
    assert!(!machine.mem().memory().is_mapped(VirtAddr(brk), 4), "nothing mapped");
}

#[test]
fn sbrk_twice_is_contiguous() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SBRK, 128, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    let first = result_of(&machine);
    // Re-issue manually: set registers and call again.
    machine.write_reg(C0, Reg::R0, abi::SYS_SBRK);
    machine.write_reg(C0, Reg::R1, 64);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    let second = result_of(&machine);
    assert_eq!(second, first + 128);
    assert!(machine.mem().memory().is_mapped(VirtAddr(first), 128 + 64));
}

#[test]
fn sbrk_that_wraps_the_address_space_is_efault_and_keeps_the_break() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SBRK, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    let brk = result_of(&machine);
    machine.write_reg(C0, Reg::R0, abi::SYS_SBRK);
    machine.write_reg(C0, Reg::R1, 0xffff_ff00);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
    assert_eq!(out.records.iter().map(|r| r.result).collect::<Vec<_>>(), vec![EFAULT]);
    machine.write_reg(C0, Reg::R0, abi::SYS_SBRK);
    machine.write_reg(C0, Reg::R1, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), brk, "a failed sbrk leaves the break where it was");
}

#[test]
fn gettid_and_ncores_report_identity() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_GETTID, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 0, "main thread is tid 0");

    let (mut machine, mut kernel) = at_syscall(abi::SYS_NCORES, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 2);
}

#[test]
fn unknown_syscall_number_is_efault() {
    let (mut machine, mut kernel) = at_syscall(999, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
}

#[test]
fn sigreturn_without_frame_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SIGRETURN, 0, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
}

#[test]
fn kill_missing_thread_is_efault() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_KILL, 42, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), EFAULT);
}

#[test]
fn sigaction_returns_previous_handler() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SIGACTION, 0x1008, 0);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 0, "no previous handler");
    machine.write_reg(C0, Reg::R0, abi::SYS_SIGACTION);
    machine.write_reg(C0, Reg::R1, 0x1010);
    kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 0x1008, "previous handler returned");
}

#[test]
fn read_caps_length_and_logs_payload() {
    let stack_buf = qr_isa::program::STACK_TOP - 8192;
    let (mut machine, mut kernel) = at_syscall(abi::SYS_READ, stack_buf, 1_000_000);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 4096, "reads are capped at 4096 bytes");
    let record = &out.records[0];
    assert_eq!(record.writes.len(), 1);
    assert_eq!(record.writes[0].1.len(), 4096);
}

#[test]
fn spawn_schedules_onto_the_idle_core() {
    let (mut machine, mut kernel) = at_syscall(abi::SYS_SPAWN, 0, 0);
    // Point R1 at the worker label (5th instruction: offset 5 * 8).
    machine.write_reg(C0, Reg::R1, qr_isa::program::CODE_BASE + 5 * 8);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(result_of(&machine), 1, "new tid");
    // The idle core resumes at the makespan, core 0's clock: the kernel
    // reports that lift and leaves both clocks to the run loop.
    let lift = machine.core(C0).cycles();
    assert!(out.sched.contains(&SchedEvent::ScheduledOn { core: CoreId(1), tid: ThreadId(1), lift }));
    assert_eq!(machine.core(CoreId(1)).cycles(), 0);
    assert_eq!(kernel.live_threads(), 2);
}

#[test]
fn exit_record_carries_the_code_for_every_death_path() {
    // Explicit exit.
    let (mut machine, mut kernel) = at_syscall(abi::SYS_EXIT, 77, 0);
    let out = kernel.handle_syscall(&mut machine, C0).unwrap();
    assert_eq!(out.records[0].number, abi::SYS_EXIT);
    assert_eq!(out.records[0].result, 77);
    assert!(kernel.all_done());

    // Halt path.
    let (mut machine2, mut kernel2) = at_syscall(abi::SYS_YIELD, 0, 0);
    kernel2.handle_syscall(&mut machine2, C0).unwrap();
    machine2.step(C0); // the halt
    let out = kernel2.handle_halt(&mut machine2, C0);
    assert_eq!(out.records[0].number, abi::SYS_EXIT);
    assert_eq!(out.records[0].result, 0);
}
