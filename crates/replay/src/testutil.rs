//! Programs shared by this crate's unit tests.

use qr_isa::{abi, Asm, Program, Reg};

/// Emits a syscall: `number` in `R0`, arguments set by `set_args`.
pub(crate) fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
    a.movi_u(Reg::R0, number);
    set_args(a);
    a.syscall();
}

/// Locked-counter program with two threads (same as the capo test).
pub(crate) fn racy_program() -> Program {
    let mut a = Asm::new();
    a.data_word("counter", &[0]);
    a.align_data_line();
    a.data_word("lock", &[0]);
    sys(&mut a, abi::SYS_SPAWN, |a| {
        a.movi_sym(Reg::R1, "work");
        a.movi(Reg::R2, 0);
    });
    a.mov(Reg::R6, Reg::R0);
    a.call("work_body");
    sys(&mut a, abi::SYS_JOIN, |a| {
        a.mov(Reg::R1, Reg::R6);
    });
    sys(&mut a, abi::SYS_EXIT, |a| {
        a.movi_sym(Reg::R2, "counter");
        a.ld(Reg::R1, Reg::R2, 0);
    });
    a.label("work");
    a.call("work_body");
    sys(&mut a, abi::SYS_EXIT, |a| {
        a.movi(Reg::R1, 0);
    });
    a.label("work_body");
    a.movi(Reg::R8, 40);
    a.label("iter");
    a.movi_sym(Reg::R2, "lock");
    a.label("acquire");
    a.movi(Reg::R3, 0);
    a.movi(Reg::R4, 1);
    a.cas(Reg::R3, Reg::R2, Reg::R4);
    a.beqz(Reg::R3, "locked");
    a.pause();
    a.jmp("acquire");
    a.label("locked");
    a.movi_sym(Reg::R5, "counter");
    a.ld(Reg::R7, Reg::R5, 0);
    a.addi(Reg::R7, Reg::R7, 1);
    a.st(Reg::R5, 0, Reg::R7);
    a.movi(Reg::R3, 0);
    a.xchg(Reg::R3, Reg::R2);
    a.addi(Reg::R8, Reg::R8, -1);
    a.bnez(Reg::R8, "iter");
    a.ret();
    a.finish().unwrap()
}
