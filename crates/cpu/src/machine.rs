//! The multicore machine and the PIA interpreter.

use crate::context::CpuContext;
use crate::core::Core;
use crate::step::{NondetKind, StepOutcome, StepResult};
use qr_common::{CoreId, QrError, Result, VirtAddr};
use qr_isa::instr::{AluOp, Instr};
use qr_isa::program::{Program, DATA_BASE, INSTR_BYTES};
use qr_isa::Reg;
use qr_mem::{Access, MemConfig, MemEvent, MemorySystem, PagedMemory};

/// Machine-level configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of cores (the QuickRec prototype had 4).
    pub num_cores: usize,
    /// Background store-buffer drain: one pending store drains every
    /// `drain_interval` retired instructions. Larger values increase TSO
    /// reordering (and RSW counts); fences, atomics and syscalls always
    /// drain fully.
    pub drain_interval: u64,
    /// Memory-hierarchy configuration.
    pub mem: MemConfig,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig { num_cores: 4, drain_interval: 4, mem: MemConfig::default() }
    }
}

impl CpuConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for zero cores or a zero drain
    /// interval, or an invalid memory configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_cores == 0 {
            return Err(QrError::InvalidConfig("num_cores must be nonzero".into()));
        }
        if self.drain_interval == 0 {
            return Err(QrError::InvalidConfig("drain_interval must be nonzero".into()));
        }
        self.mem.validate()
    }
}

/// A loaded multicore machine.
///
/// The machine is stepped one core at a time by an orchestrator; see the
/// crate docs for the trap-style protocol. Cloning snapshots the entire
/// machine state (contexts, cycles, memory hierarchy), which replay
/// checkpointing builds on.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: CpuConfig,
    program: Program,
    cores: Vec<Core>,
    mem: MemorySystem,
    /// Memory events of the most recent [`Machine::step`]. Scratch, not
    /// state: reused so the retire path never allocates, and invisible to
    /// [`Machine::save_state`].
    events: Vec<MemEvent>,
}

impl Machine {
    /// Creates a machine and loads the program image (data segment mapped
    /// and initialized; code is fetched from the program directly, as
    /// instruction fetch is not recorded).
    ///
    /// # Errors
    ///
    /// Returns configuration errors from [`CpuConfig::validate`].
    pub fn new(program: Program, cfg: CpuConfig) -> Result<Machine> {
        cfg.validate()?;
        let mut mem = MemorySystem::new(cfg.mem.clone(), cfg.num_cores)?;
        if !program.data().is_empty() {
            mem.map_region(VirtAddr(DATA_BASE), program.data().len() as u32)?;
            mem.memory_mut().write_bytes(VirtAddr(DATA_BASE), program.data())?;
        }
        Ok(Machine {
            cores: (0..cfg.num_cores).map(|_| Core::new()).collect(),
            program,
            mem,
            cfg,
            events: Vec::new(),
        })
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The machine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// A core, by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// Mutable core access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_mut(&mut self, id: CoreId) -> &mut Core {
        &mut self.cores[id.index()]
    }

    /// The memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory-system access (kernel copies, region mapping).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The non-idle core with the smallest local cycle count — the next
    /// core to step under the default concurrency approximation.
    pub fn least_advanced_busy_core(&self) -> Option<CoreId> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_idle())
            .min_by_key(|(i, c)| (c.cycles(), *i))
            .map(|(i, _)| CoreId(i as u8))
    }

    /// Writes a register of the context running on `core` (used to inject
    /// nondeterministic values and syscall results).
    ///
    /// # Panics
    ///
    /// Panics if the core is idle — callers only inject immediately after
    /// a trap from that core.
    pub fn write_reg(&mut self, core: CoreId, r: Reg, value: u32) {
        self.cores[core.index()]
            .context_mut()
            .expect("write_reg on an idle core")
            .set_reg(r, value);
    }

    /// Reads a register of the context running on `core`.
    ///
    /// # Panics
    ///
    /// Panics if the core is idle.
    pub fn read_reg(&self, core: CoreId, r: Reg) -> u32 {
        self.cores[core.index()].context().expect("read_reg on an idle core").reg(r)
    }

    /// Fully drains a core's store buffer (chunk boundaries, syscall
    /// entry). Returns the drain's memory activity.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (cannot occur for stores validated at
    /// issue).
    pub fn drain_store_buffer(&mut self, core: CoreId) -> Result<Access> {
        self.mem.drain_all(core)
    }

    /// Serializes the complete machine state for checkpoint snapshots:
    /// the whole memory hierarchy first — guest memory as an overlay on
    /// `base`, see [`MemorySystem::save_state`] — then every core's
    /// context and counters. The program and configuration are *not*
    /// serialized: restore with [`Machine::restore_state`] into a machine
    /// built from the same program and configuration whose memory holds
    /// `base`.
    pub fn save_state(&self, base: &PagedMemory, out: &mut Vec<u8>) {
        self.mem.save_state(base, out);
        qr_common::varint::write_u64(out, self.cores.len() as u64);
        for core in &self.cores {
            core.save_state(out);
        }
    }

    /// Applies only the leading memory overlay of bytes produced by
    /// [`Machine::save_state`] (one link of a delta-checkpoint chain).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] like [`Machine::restore_state`].
    pub fn apply_memory_overlay(&mut self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        self.mem.apply_memory_overlay(r)
    }

    /// Overwrites this machine's state from bytes produced by
    /// [`Machine::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated or implausible bytes, or
    /// a core-count mismatch with this machine's configuration; `self`
    /// may be partially overwritten on error and must be discarded.
    pub fn restore_state(&mut self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        self.mem.restore_state(r)?;
        let cores = r.count(256)?;
        if cores != self.cores.len() {
            return Err(QrError::Corrupt {
                what: "checkpoint machine state".into(),
                offset: r.pos() as u64,
                detail: format!("snapshot has {cores} cores, machine has {}", self.cores.len()),
            });
        }
        for core in &mut self.cores {
            *core = Core::load_state(r)?;
        }
        Ok(())
    }

    /// Memory events the most recent [`Machine::step`] produced, in
    /// occurrence order. Valid until the next `step` on this machine;
    /// empty after a faulting or idle step.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Moves the event buffer out, so an orchestrator can walk the last
    /// step's events while calling back into the machine. Hand it back
    /// with [`Machine::restore_events`] to keep stepping allocation-free.
    pub fn take_events(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }

    /// Returns a buffer taken with [`Machine::take_events`].
    pub fn restore_events(&mut self, events: Vec<MemEvent>) {
        self.events = events;
    }

    /// Steps one instruction on `core`. The step's memory events are
    /// left in [`Machine::events`].
    pub fn step(&mut self, core_id: CoreId) -> StepResult {
        let Machine { cfg, program, cores, mem, events } = self;
        events.clear();
        let core = &mut cores[core_id.index()];
        let Some(ctx) = core.context_mut() else {
            core.add_cycles(1);
            return StepResult { outcome: StepOutcome::Idle, cycles: 1 };
        };
        let pc = ctx.pc();
        let Some(instr) = program.instr_at(pc) else {
            return StepResult::fault(QrError::Execution {
                detail: format!("bad program counter {pc}"),
            });
        };
        let mut result = match execute(ctx, mem, events, core_id, pc, instr) {
            Ok((outcome, cycles)) => StepResult { outcome, cycles },
            Err(fault) => {
                // Whatever the instruction did before faulting (a forced
                // drain, say) is not reported.
                events.clear();
                StepResult::fault(fault)
            }
        };
        if result.instruction_retired() {
            ctx.count_retired();
            let thread_retired = ctx.retired();
            core.count_retired();
            // Background store-buffer drain, keyed on the *context's*
            // retired count so drain points are a deterministic function
            // of the thread's instruction stream (replay reproduces them
            // even though threads migrate between cores).
            if thread_retired % cfg.drain_interval == 0 {
                match mem.drain_one_into(core_id, events) {
                    Ok(cycles) => result.cycles += cycles,
                    Err(fault) => result.outcome = StepOutcome::Fault(Box::new(fault)),
                }
            }
        }
        core.add_cycles(result.cycles);
        result
    }
}

/// Executes one decoded instruction on the context `ctx` running on
/// `core`, appending its memory events to `events`. Register/PC state is
/// only committed after every fallible memory operation has succeeded, so
/// a fault leaves the context at the faulting instruction.
#[inline]
fn execute(
    ctx: &mut CpuContext,
    mem: &mut MemorySystem,
    events: &mut Vec<MemEvent>,
    core: CoreId,
    pc: VirtAddr,
    instr: Instr,
) -> Result<(StepOutcome, u64)> {
    let next_pc = pc.wrapping_add(INSTR_BYTES);
    let mut cycles = 1u64;
    let mut outcome = StepOutcome::Retired;

    // The memory operations, each adding its extra cycles.
    macro_rules! load {
        ($addr:expr, $width:expr) => {{
            let (value, extra) = mem.read_into(core, $addr, $width, events)?;
            cycles += extra;
            value
        }};
    }
    macro_rules! store {
        ($addr:expr, $width:expr, $value:expr) => {
            cycles += mem.write_into(core, $addr, $width, $value, events)?
        };
    }
    macro_rules! rmw {
        ($addr:expr, $f:expr) => {{
            let (old, extra) = mem.atomic_rmw_into(core, $addr, $f, events)?;
            cycles += extra;
            old
        }};
    }

    match instr {
        Instr::Nop | Instr::Pause => ctx.set_pc(next_pc),
        Instr::Movi { rd, imm } => {
            ctx.set_reg(rd, imm);
            ctx.set_pc(next_pc);
        }
        Instr::Mov { rd, rs } => {
            ctx.set_reg(rd, ctx.reg(rs));
            ctx.set_pc(next_pc);
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = alu(op, ctx.reg(rs1), ctx.reg(rs2))?;
            ctx.set_reg(rd, v);
            ctx.set_pc(next_pc);
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let v = alu(op, ctx.reg(rs1), imm)?;
            ctx.set_reg(rd, v);
            ctx.set_pc(next_pc);
        }
        Instr::Ld { rd, base, offset, width } => {
            let addr = VirtAddr(ctx.reg(base).wrapping_add(offset as u32));
            let value = load!(addr, width.bytes());
            ctx.set_reg(rd, value);
            ctx.set_pc(next_pc);
        }
        Instr::St { src, base, offset, width } => {
            let addr = VirtAddr(ctx.reg(base).wrapping_add(offset as u32));
            store!(addr, width.bytes(), ctx.reg(src));
            ctx.set_pc(next_pc);
        }
        Instr::Cas { rd, addr, src } => {
            let (expected, new) = (ctx.reg(rd), ctx.reg(src));
            let old = rmw!(VirtAddr(ctx.reg(addr)), |old| if old == expected { new } else { old });
            ctx.set_reg(rd, old);
            ctx.set_pc(next_pc);
        }
        Instr::Xchg { rd, addr } => {
            let new = ctx.reg(rd);
            let old = rmw!(VirtAddr(ctx.reg(addr)), |_| new);
            ctx.set_reg(rd, old);
            ctx.set_pc(next_pc);
        }
        Instr::FetchAdd { rd, addr, src } => {
            let delta = ctx.reg(src);
            let old = rmw!(VirtAddr(ctx.reg(addr)), |old| old.wrapping_add(delta));
            ctx.set_reg(rd, old);
            ctx.set_pc(next_pc);
        }
        Instr::Fence => {
            cycles += mem.fence_into(core, events)?;
            ctx.set_pc(next_pc);
        }
        Instr::Jmp { target } => ctx.set_pc(VirtAddr(target)),
        Instr::Jr { rs } => ctx.set_pc(VirtAddr(ctx.reg(rs))),
        Instr::Br { cond, rs1, rs2, target } => {
            let taken = cond.eval(ctx.reg(rs1), ctx.reg(rs2));
            ctx.set_pc(if taken { VirtAddr(target) } else { next_pc });
        }
        Instr::Call { target } => {
            let sp = ctx.reg(Reg::SP).wrapping_sub(4);
            store!(VirtAddr(sp), 4, next_pc.0);
            ctx.set_reg(Reg::SP, sp);
            ctx.set_pc(VirtAddr(target));
        }
        Instr::CallR { rs } => {
            let target = ctx.reg(rs);
            let sp = ctx.reg(Reg::SP).wrapping_sub(4);
            store!(VirtAddr(sp), 4, next_pc.0);
            ctx.set_reg(Reg::SP, sp);
            ctx.set_pc(VirtAddr(target));
        }
        Instr::Ret => {
            let sp = ctx.reg(Reg::SP);
            let target = load!(VirtAddr(sp), 4);
            ctx.set_reg(Reg::SP, sp.wrapping_add(4));
            ctx.set_pc(VirtAddr(target));
        }
        Instr::Push { rs } => {
            let sp = ctx.reg(Reg::SP).wrapping_sub(4);
            store!(VirtAddr(sp), 4, ctx.reg(rs));
            ctx.set_reg(Reg::SP, sp);
            ctx.set_pc(next_pc);
        }
        Instr::Pop { rd } => {
            let sp = ctx.reg(Reg::SP);
            let value = load!(VirtAddr(sp), 4);
            ctx.set_reg(rd, value);
            ctx.set_reg(Reg::SP, sp.wrapping_add(4));
            ctx.set_pc(next_pc);
        }
        Instr::Syscall => {
            ctx.set_pc(next_pc);
            outcome = StepOutcome::Syscall;
        }
        Instr::Rdtsc { rd } => {
            ctx.set_pc(next_pc);
            outcome = StepOutcome::Nondet { kind: NondetKind::Rdtsc, rd };
        }
        Instr::Rdrand { rd } => {
            ctx.set_pc(next_pc);
            outcome = StepOutcome::Nondet { kind: NondetKind::Rdrand, rd };
        }
        Instr::Halt => {
            ctx.set_pc(next_pc);
            outcome = StepOutcome::Halt;
        }
    }
    Ok((outcome, cycles))
}

fn alu(op: AluOp, a: u32, b: u32) -> Result<u32> {
    Ok(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Divu => {
            if b == 0 {
                return Err(QrError::Execution { detail: "division by zero".into() });
            }
            a / b
        }
        AluOp::Remu => {
            if b == 0 {
                return Err(QrError::Execution { detail: "remainder by zero".into() });
            }
            a % b
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b & 31),
        AluOp::Shr => a.wrapping_shr(b & 31),
        AluOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Seq => (a == b) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_isa::Asm;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const STACK0: u32 = 0x2000_0000;
    const STACK1: u32 = 0x2100_0000;

    fn machine_for(asm: Asm, cores: usize) -> Machine {
        let program = asm.finish().unwrap();
        let cfg = CpuConfig { num_cores: cores, ..CpuConfig::default() };
        let mut m = Machine::new(program, cfg).unwrap();
        m.mem_mut().map_region(VirtAddr(STACK0 - 0x1000), 0x1000).unwrap();
        m.mem_mut().map_region(VirtAddr(STACK1 - 0x1000), 0x1000).unwrap();
        m
    }

    fn start(m: &mut Machine, core: CoreId, sp: u32) {
        let entry = m.program().entry();
        let mut ctx = CpuContext::new(entry);
        ctx.set_reg(Reg::SP, sp);
        m.core_mut(core).swap_context(Some(ctx));
    }

    /// Runs core 0 until halt; panics on faults or traps.
    fn run_to_halt(m: &mut Machine) {
        for _ in 0..1_000_000 {
            match m.step(C0).outcome {
                StepOutcome::Halt => return,
                StepOutcome::Retired => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum = 1 + 2 + ... + 10 = 55
        let mut a = Asm::new();
        a.movi(Reg::R1, 10); // i
        a.movi(Reg::R2, 0); // sum
        a.label("loop");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.addi(Reg::R1, Reg::R1, -1);
        a.bnez(Reg::R1, "loop");
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        run_to_halt(&mut m);
        assert_eq!(m.read_reg(C0, Reg::R2), 55);
    }

    #[test]
    fn memory_round_trip_through_data_segment() {
        let mut a = Asm::new();
        a.data_word("cell", &[5]);
        a.movi_sym(Reg::R1, "cell");
        a.ld(Reg::R2, Reg::R1, 0);
        a.addi(Reg::R2, Reg::R2, 37);
        a.st(Reg::R1, 0, Reg::R2);
        a.fence(); // make it visible
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        run_to_halt(&mut m);
        let cell = m.program().symbol("cell").unwrap();
        assert_eq!(m.mem().memory().read_uint(cell, 4).unwrap(), 42);
    }

    #[test]
    fn call_ret_push_pop() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 7);
        a.push(Reg::R1);
        a.call("double");
        a.pop(Reg::R3); // restore the 7
        a.halt();
        a.label("double");
        a.ld(Reg::R2, Reg::SP, 4); // arg above the return address
        a.add(Reg::R2, Reg::R2, Reg::R2);
        a.ret();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        run_to_halt(&mut m);
        assert_eq!(m.read_reg(C0, Reg::R2), 14);
        assert_eq!(m.read_reg(C0, Reg::R3), 7);
        assert_eq!(m.read_reg(C0, Reg::SP), STACK0, "stack balanced");
    }

    #[test]
    fn division_by_zero_faults_without_advancing_pc() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 1);
        a.movi(Reg::R2, 0);
        a.divu(Reg::R3, Reg::R1, Reg::R2);
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        m.step(C0);
        m.step(C0);
        let pc_before = m.core(C0).context().unwrap().pc();
        let r = m.step(C0);
        assert!(matches!(r.outcome, StepOutcome::Fault(_)));
        assert_eq!(m.core(C0).context().unwrap().pc(), pc_before, "pc unchanged");
    }

    #[test]
    fn unmapped_load_faults() {
        let mut a = Asm::new();
        a.movi_u(Reg::R1, 0x8000_0000);
        a.ld(Reg::R2, Reg::R1, 0);
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        m.step(C0);
        let r = m.step(C0);
        match r.outcome {
            StepOutcome::Fault(err) => match *err {
                QrError::MemoryFault { addr, .. } => assert_eq!(addr, 0x8000_0000),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_pc_faults() {
        let mut a = Asm::new();
        a.movi_u(Reg::R1, 0x4000);
        a.jr(Reg::R1);
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        m.step(C0);
        m.step(C0); // jr to nowhere
        let r = m.step(C0);
        assert!(matches!(r.outcome, StepOutcome::Fault(_)));
    }

    #[test]
    fn syscall_and_nondet_trap_to_orchestrator() {
        let mut a = Asm::new();
        a.movi(Reg::R0, 8); // pretend SYS_TIME
        a.syscall();
        a.rdtsc(Reg::R4);
        a.rdrand(Reg::R5);
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        m.step(C0);
        assert_eq!(m.step(C0).outcome, StepOutcome::Syscall);
        assert_eq!(m.read_reg(C0, Reg::R0), 8, "args visible to kernel");
        m.write_reg(C0, Reg::R0, 1234); // kernel writes result
        match m.step(C0).outcome {
            StepOutcome::Nondet { kind: NondetKind::Rdtsc, rd } => {
                m.write_reg(C0, rd, 77);
            }
            other => panic!("{other:?}"),
        }
        match m.step(C0).outcome {
            StepOutcome::Nondet { kind: NondetKind::Rdrand, rd } => {
                m.write_reg(C0, rd, 88);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.step(C0).outcome, StepOutcome::Halt);
        assert_eq!(m.read_reg(C0, Reg::R0), 1234);
        assert_eq!(m.read_reg(C0, Reg::R4), 77);
        assert_eq!(m.read_reg(C0, Reg::R5), 88);
    }

    #[test]
    fn idle_core_reports_idle() {
        let mut a = Asm::new();
        a.halt();
        let mut m = machine_for(a, 2);
        start(&mut m, C0, STACK0);
        assert_eq!(m.step(C1).outcome, StepOutcome::Idle);
        assert_eq!(m.core(C1).cycles(), 1, "idle still burns a cycle");
    }

    #[test]
    fn two_cores_atomically_increment_shared_counter() {
        let mut a = Asm::new();
        a.data_word("counter", &[0]);
        a.movi_sym(Reg::R1, "counter");
        a.movi(Reg::R2, 1);
        a.movi(Reg::R3, 100); // iterations
        a.label("loop");
        a.fetch_add(Reg::R4, Reg::R1, Reg::R2);
        a.addi(Reg::R3, Reg::R3, -1);
        a.bnez(Reg::R3, "loop");
        a.halt();
        let mut m = machine_for(a, 2);
        start(&mut m, C0, STACK0);
        start(&mut m, C1, STACK1);
        let mut halted = [false; 2];
        let mut flip = 0u32;
        while !(halted[0] && halted[1]) {
            // Alternate in a lumpy pattern to interleave mid-loop.
            flip = flip.wrapping_add(1);
            let id = if (flip / 3).is_multiple_of(2) { C0 } else { C1 };
            if halted[id.index()] {
                continue;
            }
            if m.step(id).outcome == StepOutcome::Halt {
                halted[id.index()] = true;
            }
        }
        let counter = m.program().symbol("counter").unwrap();
        assert_eq!(m.mem().memory().read_uint(counter, 4).unwrap(), 200);
    }

    #[test]
    fn tso_store_buffering_litmus_allows_both_zero() {
        // Classic SB litmus: with store buffers, both loads may see 0.
        let mut a = Asm::new();
        a.data_word("x", &[0]);
        a.align_data_line();
        a.data_word("y", &[0]);
        // Core reads its role from R7: 0 -> writes x reads y; 1 -> writes
        // y reads x.
        a.movi_sym(Reg::R1, "x");
        a.movi_sym(Reg::R2, "y");
        a.movi(Reg::R3, 1);
        a.bnez(Reg::R7, "role1");
        a.st(Reg::R1, 0, Reg::R3); // x = 1 (buffered)
        a.ld(Reg::R4, Reg::R2, 0); // r4 = y
        a.halt();
        a.label("role1");
        a.st(Reg::R2, 0, Reg::R3); // y = 1 (buffered)
        a.ld(Reg::R4, Reg::R1, 0); // r4 = x
        a.halt();
        let program = a.finish().unwrap();
        let cfg = CpuConfig {
            num_cores: 2,
            drain_interval: 100, // keep stores buffered
            ..CpuConfig::default()
        };
        let mut m = Machine::new(program, cfg).unwrap();
        start(&mut m, C0, STACK0);
        start(&mut m, C1, STACK1);
        m.write_reg(C1, Reg::R7, 1);
        // Tight alternation: both stores issue, then both loads.
        loop {
            let a = m.step(C0).outcome;
            let b = m.step(C1).outcome;
            if a == StepOutcome::Halt && b == StepOutcome::Halt {
                break;
            }
        }
        assert_eq!(m.read_reg(C0, Reg::R4), 0, "core0 missed core1's store");
        assert_eq!(m.read_reg(C1, Reg::R4), 0, "core1 missed core0's store");
        assert!(m.mem().pending_stores(C0) > 0 || m.mem().pending_stores(C1) > 0);
    }

    #[test]
    fn background_drain_eventually_empties_buffer() {
        let mut a = Asm::new();
        a.data_word("x", &[0]);
        a.movi_sym(Reg::R1, "x");
        a.movi(Reg::R2, 9);
        a.st(Reg::R1, 0, Reg::R2);
        for _ in 0..12 {
            a.nop();
        }
        a.halt();
        let mut m = machine_for(a, 1);
        start(&mut m, C0, STACK0);
        run_to_halt(&mut m);
        assert_eq!(m.mem().pending_stores(C0), 0);
        let x = m.program().symbol("x").unwrap();
        assert_eq!(m.mem().memory().read_uint(x, 4).unwrap(), 9);
    }

    #[test]
    fn least_advanced_busy_core_picks_minimum() {
        let mut a = Asm::new();
        a.label("spin");
        a.jmp("spin");
        let mut m = machine_for(a, 3);
        assert_eq!(m.least_advanced_busy_core(), None, "all idle");
        start(&mut m, C1, STACK1);
        assert_eq!(m.least_advanced_busy_core(), Some(C1));
        m.step(C1);
        start(&mut m, C0, STACK0);
        assert_eq!(m.least_advanced_busy_core(), Some(C0), "fresh core is behind");
    }
}
