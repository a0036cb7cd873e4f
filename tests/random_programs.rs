//! The soundness property test: **any** recorded execution replays
//! exactly.
//!
//! Random multithreaded programs full of unsynchronized races, atomics,
//! fences and nondeterministic reads are recorded under random machine
//! configurations and then replayed; the replay must reproduce the
//! architectural outcome bit for bit. This exercises the chunk-ordering
//! argument (DESIGN.md decision 1) far beyond what the structured
//! workloads reach.

use qr_common::SplitMix64;
use qr_isa::{abi, Asm, Program, Reg};
use qr_mem::TsoMode;
use quickrec::{record, replay_and_verify, ParallelReplayer, RecordingConfig};

/// One random guest operation on the shared array.
#[derive(Debug, Clone)]
enum Op {
    Load(u8),
    Store(u8, u8),
    FetchAdd(u8, u8),
    Cas(u8, u8, u8),
    Xchg(u8, u8),
    Fence,
    Arith(u8),
    Rdtsc,
    Rdrand,
    Yield,
    Time,
    ReadInput(u8),
}

const SLOTS: usize = 6;

fn random_op(rng: &mut SplitMix64) -> Op {
    let slot = |rng: &mut SplitMix64| rng.below(SLOTS as u64) as u8;
    let byte = |rng: &mut SplitMix64| rng.next_u64() as u8;
    // Weighted like the retired proptest strategy: plain loads, stores
    // and arithmetic dominate; atomics, syscalls and nondeterministic
    // reads appear often enough to race.
    match rng.below(21) {
        0..=3 => Op::Load(slot(rng)),
        4..=7 => Op::Store(slot(rng), byte(rng)),
        8..=9 => Op::FetchAdd(slot(rng), byte(rng)),
        10 => Op::Cas(slot(rng), byte(rng), byte(rng)),
        11 => Op::Xchg(slot(rng), byte(rng)),
        12 => Op::Fence,
        13..=15 => Op::Arith(byte(rng)),
        16 => Op::Rdtsc,
        17 => Op::Rdrand,
        18 => Op::Yield,
        19 => Op::Time,
        _ => Op::ReadInput(slot(rng)),
    }
}

/// Emits one op. Uses R6 (slot base), R7 (accumulator), R8/R9 scratch.
fn emit_op(a: &mut Asm, op: &Op) {
    match *op {
        Op::Load(slot) => {
            a.ld(Reg::R8, Reg::R6, slot as i32 * 4);
            a.add(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Store(slot, v) => {
            a.addi(Reg::R8, Reg::R7, v as i32);
            a.st(Reg::R6, slot as i32 * 4, Reg::R8);
        }
        Op::FetchAdd(slot, v) => {
            a.addi(Reg::R9, Reg::R6, slot as i32 * 4);
            a.movi(Reg::R8, v as i32);
            a.fetch_add(Reg::R8, Reg::R9, Reg::R8);
            a.add(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Cas(slot, e, v) => {
            a.addi(Reg::R9, Reg::R6, slot as i32 * 4);
            a.movi(Reg::R8, e as i32);
            a.movi(Reg::R10, v as i32);
            a.cas(Reg::R8, Reg::R9, Reg::R10);
            a.add(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Xchg(slot, v) => {
            a.addi(Reg::R9, Reg::R6, slot as i32 * 4);
            a.movi(Reg::R8, v as i32);
            a.xchg(Reg::R8, Reg::R9);
            a.add(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Fence => {
            a.fence();
        }
        Op::Arith(v) => {
            a.muli(Reg::R7, Reg::R7, 1 + (v as i32 % 7));
            a.addi(Reg::R7, Reg::R7, v as i32);
        }
        Op::Rdtsc => {
            a.rdtsc(Reg::R8);
            a.xor(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Rdrand => {
            a.rdrand(Reg::R8);
            a.add(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::Yield => {
            // Preserve the accumulator around the syscall (R0 clobbered).
            a.push(Reg::R7);
            a.movi_u(Reg::R0, abi::SYS_YIELD);
            a.syscall();
            a.pop(Reg::R7);
        }
        Op::Time => {
            a.push(Reg::R7);
            a.movi_u(Reg::R0, abi::SYS_TIME);
            a.syscall();
            a.mov(Reg::R8, Reg::R0);
            a.pop(Reg::R7);
            a.xor(Reg::R7, Reg::R7, Reg::R8);
        }
        Op::ReadInput(slot) => {
            a.push(Reg::R7);
            a.movi_u(Reg::R0, abi::SYS_READ);
            a.addi(Reg::R1, Reg::R6, slot as i32 * 4);
            a.movi(Reg::R2, 4);
            a.syscall();
            a.pop(Reg::R7);
        }
    }
}

/// Builds a program: main spawns the worker threads, every thread runs
/// its op sequence and stores its accumulator into a private result
/// slot, main joins and exits with the xor of shared state.
fn build_program(threads: &[Vec<Op>]) -> Program {
    let mut a = Asm::with_name("random");
    a.align_data_line();
    a.data_word("shared", &[0u32; SLOTS]);
    a.data_word("results", &vec![0u32; threads.len()]);
    // main
    for i in 1..threads.len() {
        a.movi_u(Reg::R0, abi::SYS_SPAWN);
        a.movi_sym(Reg::R1, &format!("thread{i}"));
        a.movi(Reg::R2, i as i32);
        a.syscall();
        a.push(Reg::R0);
    }
    a.movi(Reg::R1, 0);
    a.call("thread_body0");
    for _ in 1..threads.len() {
        a.pop(Reg::R1);
        a.movi_u(Reg::R0, abi::SYS_JOIN);
        a.syscall();
    }
    // exit(xor of shared slots + results)
    a.movi_sym(Reg::R6, "shared");
    a.movi(Reg::R7, 0);
    for s in 0..SLOTS {
        a.ld(Reg::R8, Reg::R6, s as i32 * 4);
        a.xor(Reg::R7, Reg::R7, Reg::R8);
    }
    a.movi_sym(Reg::R6, "results");
    for i in 0..threads.len() {
        a.ld(Reg::R8, Reg::R6, i as i32 * 4);
        a.xor(Reg::R7, Reg::R7, Reg::R8);
    }
    a.movi_u(Reg::R0, abi::SYS_EXIT);
    a.mov(Reg::R1, Reg::R7);
    a.syscall();
    // worker entries
    for i in 1..threads.len() {
        a.label(&format!("thread{i}"));
        a.call(&format!("thread_body{i}"));
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.movi(Reg::R1, 0);
        a.syscall();
    }
    // bodies: R1 = thread index on entry
    for (i, ops) in threads.iter().enumerate() {
        a.label(&format!("thread_body{i}"));
        a.movi_sym(Reg::R6, "shared");
        a.movi(Reg::R7, i as i32 + 1);
        for op in ops {
            emit_op(&mut a, op);
        }
        a.movi_sym(Reg::R8, "results");
        a.st(Reg::R8, i as i32 * 4, Reg::R7);
        a.ret();
    }
    a.finish().expect("random program assembles")
}

#[test]
fn every_recorded_execution_replays_exactly() {
    let mut rng = SplitMix64::new(0x0_5eed_c0de);
    for case in 0..32 {
        let n_threads = 2 + rng.below(2) as usize;
        let thread_ops: Vec<Vec<Op>> = (0..n_threads)
            .map(|_| {
                let n = 5 + rng.below(55) as usize;
                (0..n).map(|_| random_op(&mut rng)).collect()
            })
            .collect();
        let cores = 1 + rng.below(4) as usize;
        let drain_interval = [1u64, 4, 16][rng.below(3) as usize];
        let rsw_mode = rng.chance(1, 2);
        let quantum = [800u64, 50_000][rng.below(2) as usize];
        let program = build_program(&thread_ops);
        let mut cfg = RecordingConfig::with_cores(cores);
        cfg.cpu.drain_interval = drain_interval;
        cfg.cpu.mem.tso_mode = if rsw_mode { TsoMode::Rsw } else { TsoMode::DrainAtChunk };
        cfg.os.quantum_cycles = quantum;
        let context = format!(
            "case {case}: cores={cores} drain={drain_interval} rsw={rsw_mode} quantum={quantum}"
        );
        let recording =
            record(program.clone(), cfg).unwrap_or_else(|e| panic!("{context}: record: {e}"));
        let outcome = replay_and_verify(&program, &recording)
            .unwrap_or_else(|e| panic!("{context}: replay: {e}"));
        assert_eq!(outcome.exit_code, recording.exit_code, "{context}");
        assert_eq!(outcome.instructions, recording.instructions, "{context}");
        // The same racy execution must also replay exactly through the
        // parallel conflict-dependency scheduler. The job count comes
        // from a per-case RNG so the main stream (and thus the generated
        // programs) stays byte-stable.
        let jobs = 1 + SplitMix64::new(0x9e37_79b9 ^ case as u64).below(4) as usize;
        let replayer = ParallelReplayer::new(&program, &recording, jobs)
            .unwrap_or_else(|e| panic!("{context}: parallel setup: {e}"));
        let parallel = replayer
            .run()
            .unwrap_or_else(|e| panic!("{context}: parallel replay ({jobs} jobs): {e}"));
        assert_eq!(parallel.fingerprint, outcome.fingerprint, "{context} ({jobs} jobs)");
        assert_eq!(parallel.console, outcome.console, "{context} ({jobs} jobs)");
        assert_eq!(parallel.exit_code, outcome.exit_code, "{context} ({jobs} jobs)");
        assert_eq!(parallel.instructions, outcome.instructions, "{context} ({jobs} jobs)");
        parallel
            .verify_against(&recording)
            .unwrap_or_else(|e| panic!("{context}: parallel verify: {e}"));
    }
}

#[test]
fn a_known_racy_program_replays_under_every_core_count() {
    let ops: Vec<Vec<Op>> = vec![
        vec![Op::Store(0, 1), Op::Load(1), Op::FetchAdd(2, 3), Op::Rdtsc, Op::Store(1, 9)],
        vec![Op::Store(1, 2), Op::Load(0), Op::Cas(2, 0, 7), Op::Yield, Op::Load(2)],
        vec![Op::Xchg(0, 5), Op::Fence, Op::Load(2), Op::ReadInput(3), Op::Load(3)],
    ];
    let program = build_program(&ops);
    for cores in 1..=4 {
        let recording = record(program.clone(), RecordingConfig::with_cores(cores)).unwrap();
        replay_and_verify(&program, &recording)
            .unwrap_or_else(|e| panic!("cores={cores}: {e}"));
    }
}
