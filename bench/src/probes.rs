//! Direct probes: per-layer numbers a traced run measures by calling
//! one layer's public functions on its own, outside the sweeps.
//!
//! [`program_probes`] re-runs the workload's own programs through each
//! simulator-facing entry point (native, record, every replay mode), so
//! a layer's speed is known on exactly the inputs the end-to-end number
//! was measured on. [`micro_probes`] time the byte-level and per-access
//! primitives on seeded synthetic inputs that do not depend on the
//! workload, so they read the same from every workload's traced run.

use crate::corpus::Built;
use crate::Ctx;
use qr_capo::{record, Recording, RecordingConfig};
use qr_common::{crc32, frame, varint, CoreId, Cycle, LineAddr, SplitMix64, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, Machine, StepOutcome};
use qr_isa::{abi, Asm, Reg};
use qr_mem::{MemConfig, MemorySystem};
use qr_os::{run_native, Kernel, OsConfig};
use qr_replay::ParallelReplayer;
use quickrec_core::signature::Signature;
use quickrec_core::{ChunkPacket, Encoding, TerminationReason};
use std::hint::black_box;
use std::time::Instant;

/// Programs a traced run probes at most (the first ones of the
/// workload's list), which bounds the probes' share of the run.
const MAX_PROBED_PROGRAMS: usize = 4;

/// Median seconds of `f` over as many repetitions as fit in `budget_s`
/// (at least three).
fn median_secs<R>(budget_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        amount / seconds
    } else {
        0.0
    }
}

/// Runs the workload's programs through every simulator-facing entry
/// point once and sets the `cpu.*`, `mem.*` (simulated), `core.*`
/// (recording) and `replay.*_minstr_s` metrics. Each call's output is
/// checked like any other operation.
pub fn program_probes(ctx: &mut Ctx<'_>, items: &[(&Built, &Recording)]) {
    let items = &items[..items.len().min(MAX_PROBED_PROGRAMS)];
    let (mut native_s, mut record_s, mut serial_s, mut ordered_s, mut parallel_s, mut races_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut dag_s, mut derive_s) = (0.0, 0.0);
    let (mut instr, mut ordered_instr, mut cycles, mut chunks, mut dag_edges) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut accesses, mut misses, mut bus) = (0u64, 0u64, 0u64);
    let (mut order_bytes, mut input_bytes) = (0u64, 0u64);
    for (built, recording) in items {
        let name = built.spec.name;
        let program = &built.program;
        instr += recording.instructions;
        chunks += recording.chunks.len() as u64;

        // Native run: the simulator without the recorder.
        let cpu = CpuConfig {
            num_cores: built.threads,
            ..CpuConfig::default()
        };
        let machine = Machine::new(program.clone(), cpu);
        let Some(mut machine) = ctx.run.ok(machine, || format!("probe: machine for {name}")) else {
            continue;
        };
        let (out, s) = secs(|| run_native(&mut machine, recording.meta.os.clone()));
        native_s += s;
        if let Some(out) = ctx.run.ok(out, || format!("probe: native run of {name}")) {
            ctx.run.check(out.exit_code == built.expected, || {
                format!("probe: native {name} exited with {:#x}", out.exit_code)
            });
            cycles += out.cycles;
            let stats = machine.mem().stats();
            accesses += stats.total(|c| c.loads - c.load_forwards + c.drains);
            misses += stats.total(|c| c.load_misses + c.store_misses);
            bus += stats.total_bus_txns();
        }

        // The same program under the recorder: the difference is the
        // recording tax; the fingerprint must repeat.
        let cfg = RecordingConfig {
            cpu: recording.meta.cpu.clone(),
            os: recording.meta.os.clone(),
            order: recording.order_mode(),
            ..RecordingConfig::default()
        };
        let (again, s) = secs(|| record(program.clone(), cfg));
        record_s += s;
        if let Some(again) = ctx.run.ok(again, || format!("probe: record {name}")) {
            ctx.run
                .check(again.fingerprint == recording.fingerprint, || {
                    format!("probe: re-recording {name} changed the fingerprint")
                });
        }

        let (out, s) = secs(|| qr_replay::replay_and_verify(program, recording));
        serial_s += s;
        ctx.run
            .ok(out, || format!("probe: serial replay of {name}"));

        if recording.order.is_some() {
            let (out, s) = secs(|| qr_replay::replay_ordered_and_verify(program, recording, 1));
            ordered_s += s;
            ordered_instr += recording.instructions;
            ctx.run
                .ok(out, || format!("probe: ordered replay of {name}"));
        }

        let (dag, s) = secs(|| ParallelReplayer::new(program, recording, 2));
        dag_s += s;
        if let Some(dag) = ctx
            .run
            .ok(dag, || format!("probe: dependency DAG of {name}"))
        {
            dag_edges += dag.edge_count() as u64;
        }
        let (out, s) = secs(|| qr_replay::replay_parallel_and_verify(program, recording, 2));
        parallel_s += s;
        ctx.run
            .ok(out, || format!("probe: parallel replay of {name}"));

        let (out, s) = secs(|| qr_replay::replay_with_race_detection(program, recording));
        races_s += s;
        ctx.run
            .ok(out, || format!("probe: race-detecting replay of {name}"));

        let (out, s) = secs(|| recording.derive_order());
        derive_s += s;
        ctx.run
            .ok(out, || format!("probe: order derivation of {name}"));

        let parts = recording.to_parts(Encoding::Delta);
        order_bytes += parts.order.as_ref().map_or(0, |b| b.len() as u64);
        input_bytes += parts.inputs.len() as u64;
    }
    let minstr = instr as f64 / 1e6;
    let kinstr = instr as f64 / 1e3;
    let run = &mut ctx.run;
    run.set("cpu.native_minstr_s", rate(minstr, native_s));
    run.set("cpu.sim_ipc", rate(instr as f64, cycles as f64));
    run.set(
        "mem.l1_hit_share",
        100.0 * (1.0 - rate(misses as f64, accesses as f64)),
    );
    run.set("mem.bus_txns_per_kinstr", rate(bus as f64, kinstr));
    run.set(
        "core.record_tax_pct",
        100.0 * rate(record_s - native_s, native_s),
    );
    run.set("core.chunks_per_kinstr", rate(chunks as f64, kinstr));
    run.set("core.mean_chunk_instrs", rate(instr as f64, chunks as f64));
    run.set("core.po_derive_ms", derive_s * 1e3);
    run.set(
        "core.order_bytes_per_kinstr",
        rate(order_bytes as f64, kinstr),
    );
    run.set(
        "capo.input_log_bytes_per_kinstr",
        rate(input_bytes as f64, kinstr),
    );
    run.set("replay.serial_minstr_s", rate(minstr, serial_s));
    run.set(
        "replay.ordered_j1_minstr_s",
        rate(ordered_instr as f64 / 1e6, ordered_s),
    );
    run.set("replay.parallel_j2_minstr_s", rate(minstr, parallel_s));
    run.set("replay.parallel_dag_build_ms", dag_s * 1e3);
    run.set("replay.parallel_dag_edges", dag_edges as f64);
    run.set("replay.races_minstr_s", rate(minstr, races_s));
}

/// Seeded chunk packets shaped like a sharing-heavy log.
fn packets(n: usize, rng: &mut SplitMix64) -> Vec<ChunkPacket> {
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            ts += 3 + rng.below(400);
            ChunkPacket {
                tid: ThreadId(rng.below(4) as u32),
                core: CoreId(rng.below(4) as u8),
                icount: 1 + rng.below(2000),
                timestamp: Cycle(ts),
                rsw: rng.below(4) as u8,
                reason: TerminationReason::ALL[i % TerminationReason::ALL.len()],
            }
        })
        .collect()
}

/// A single-threaded compute-only guest loop retiring about
/// `4 * iterations` instructions and exiting with 0.
fn compute_loop(iterations: i32) -> qr_common::Result<qr_isa::Program> {
    let mut a = Asm::with_name("probe-compute-loop");
    a.label("main").entry("main");
    a.movi(Reg::R1, iterations)
        .movi(Reg::R2, 0)
        .movi(Reg::R3, 0);
    a.label("loop");
    a.addi(Reg::R2, Reg::R2, 1)
        .xor(Reg::R3, Reg::R3, Reg::R2)
        .addi(Reg::R1, Reg::R1, -1)
        .bnez(Reg::R1, "loop");
    a.movi(Reg::R0, abi::SYS_EXIT as i32)
        .movi(Reg::R1, 0)
        .syscall();
    a.finish()
}

fn cpu_probes(ctx: &mut Ctx<'_>) -> qr_common::Result<()> {
    const ITERATIONS: i32 = 100_000;
    let program = compute_loop(ITERATIONS)?;
    let one_core = || CpuConfig {
        num_cores: 1,
        ..CpuConfig::default()
    };

    // The bare interpreter: step core 0 until the guest asks to exit.
    let mut steps = 0u64;
    let step_s = median_secs(0.15, || {
        let mut machine = Machine::new(program.clone(), one_core()).expect("valid program");
        let mut kernel = Kernel::new(OsConfig::default(), &mut machine).expect("kernel boots");
        kernel.place_runnable(&mut machine);
        steps = 0;
        loop {
            steps += 1;
            if !matches!(machine.step(CoreId(0)).outcome, StepOutcome::Retired) {
                break;
            }
        }
        machine
    });
    ctx.run.check(steps > 4 * ITERATIONS as u64, || {
        format!("probe: compute loop stopped after {steps} steps")
    });
    let step_ns = rate(step_s * 1e9, steps as f64);
    ctx.run.set("cpu.step_ns", step_ns);

    // The same program under the kernel's run loop: what scheduling,
    // quantum and signal checks add per instruction.
    let mut native_instr = 0u64;
    let native_s = median_secs(0.15, || {
        let mut machine = Machine::new(program.clone(), one_core()).expect("valid program");
        let out = run_native(&mut machine, OsConfig::default()).expect("compute loop runs");
        native_instr = out.instructions;
        out
    });
    let native_ns = rate(native_s * 1e9, native_instr as f64);
    ctx.run.set(
        "os.native_vs_step_pct",
        100.0 * rate(native_ns - step_ns, step_ns),
    );
    Ok(())
}

fn mem_probes(ctx: &mut Ctx<'_>, rng: &mut SplitMix64) -> qr_common::Result<()> {
    const BASE: u32 = 0x10_0000;
    const LINE: u32 = 64;
    // Private: one core, 128 lines (8 KiB, a quarter of its L1), a
    // seeded read/write stream — after the first touch every access
    // hits in L1 and no other cache holds the line.
    let offsets: Vec<(u32, bool)> = (0..4096)
        .map(|_| {
            (
                (rng.below(128) as u32) * LINE + 4 * rng.below(16) as u32,
                rng.chance(1, 3),
            )
        })
        .collect();
    let mut mem = MemorySystem::new(MemConfig::default(), 4)?;
    mem.map_region(VirtAddr(BASE), 256 * LINE)?;
    let private_s = median_secs(0.1, || {
        for _ in 0..8 {
            for &(off, write) in &offsets {
                let addr = VirtAddr(BASE + off);
                if write {
                    mem.write(CoreId(0), addr, 4, off).expect("mapped");
                } else {
                    black_box(mem.read(CoreId(0), addr, 4).expect("mapped"));
                }
            }
        }
    });
    ctx.run.set(
        "mem.private_access_ns",
        rate(private_s * 1e9, 8.0 * offsets.len() as f64),
    );

    // Shared: four cores take turns writing and reading the same 16
    // lines, so nearly every access snoops, invalidates or intervenes.
    let turns: Vec<(u8, u32)> = (0..4096)
        .map(|i| ((i % 4) as u8, (rng.below(16) as u32) * LINE))
        .collect();
    let mut mem = MemorySystem::new(MemConfig::default(), 4)?;
    mem.map_region(VirtAddr(BASE), 16 * LINE)?;
    let shared_s = median_secs(0.1, || {
        for &(core, off) in &turns {
            let addr = VirtAddr(BASE + off);
            mem.write(CoreId(core), addr, 4, off).expect("mapped");
            mem.drain_all(CoreId(core)).expect("mapped");
            black_box(mem.read(CoreId((core + 1) % 4), addr, 4).expect("mapped"));
        }
    });
    // Three calls per turn: a store, its drain, a remote load.
    ctx.run.set(
        "mem.shared_access_ns",
        rate(shared_s * 1e9, 3.0 * turns.len() as f64),
    );
    Ok(())
}

fn core_probes(ctx: &mut Ctx<'_>, rng: &mut SplitMix64) {
    let lines: Vec<LineAddr> = (0..4096).map(|_| LineAddr(rng.next_u32())).collect();
    let cfg = quickrec_core::MrrConfig::default();
    let sig_s = median_secs(0.05, || {
        let mut sig = Signature::new(cfg.read_sig_bits, cfg.sig_hashes);
        for &line in &lines {
            sig.insert(line);
        }
        sig
    });
    ctx.run.set(
        "core.signature_insert_ns",
        rate(sig_s * 1e9, lines.len() as f64),
    );

    let log = packets(16_384, rng);
    for (encoding, encode_name, decode_name) in [
        (
            Encoding::Raw,
            "core.encode_mb_s.raw",
            "core.decode_mb_s.raw",
        ),
        (
            Encoding::Packed,
            "core.encode_mb_s.packed",
            "core.decode_mb_s.packed",
        ),
        (
            Encoding::Delta,
            "core.encode_mb_s.delta",
            "core.decode_mb_s.delta",
        ),
    ] {
        let bytes = encoding.encode_framed_stream(&log);
        let mb = bytes.len() as f64 / 1e6;
        let encode_s = median_secs(0.05, || encoding.encode_framed_stream(black_box(&log)));
        let decode_s = median_secs(0.05, || Encoding::decode_framed_stream(black_box(&bytes)));
        let decoded = Encoding::decode_framed_stream(&bytes);
        ctx.run
            .check(decoded.as_deref().ok() == Some(log.as_slice()), || {
                format!("probe: {} chunk log did not round-trip", encoding.name())
            });
        ctx.run.set(encode_name, rate(mb, encode_s));
        ctx.run.set(decode_name, rate(mb, decode_s));
    }
}

fn common_and_store_probes(ctx: &mut Ctx<'_>, rng: &mut SplitMix64) {
    let mut blob = vec![0u8; 1 << 20];
    for chunk in blob.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    let mb = blob.len() as f64 / 1e6;
    let crc_s = median_secs(0.05, || crc32::checksum(black_box(&blob)));
    ctx.run.set("common.crc32_mb_s", rate(mb, crc_s));

    // Frames of 256-byte records, the size class of a packet group.
    let write = || {
        let mut w = frame::Writer::new(frame::PayloadKind::ChunkLog);
        for record in blob.chunks(256) {
            w.record(record);
        }
        w.finish()
    };
    let framed = write();
    let write_s = median_secs(0.05, write);
    let scan_s = median_secs(0.05, || frame::scan(black_box(&framed)).records.len());
    let scanned = frame::scan(&framed);
    ctx.run.check(
        scanned.fault.is_none() && scanned.records.len() == blob.len() / 256,
        || "probe: framed blob did not scan clean".into(),
    );
    ctx.run.set("common.frame_write_mb_s", rate(mb, write_s));
    ctx.run.set("common.frame_scan_mb_s", rate(mb, scan_s));

    let values: Vec<u64> = (0..65_536).map(|i| rng.next_u64() >> (i % 57)).collect();
    let varint_s = median_secs(0.05, || {
        let mut buf = Vec::with_capacity(values.len() * 10);
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let (mut off, mut sum) = (0, 0u64);
        while off < buf.len() {
            let (v, n) = varint::read_u64(&buf[off..]).expect("just written");
            sum = sum.wrapping_add(v);
            off += n;
        }
        sum
    });
    ctx.run.set(
        "common.varint_mops",
        rate(2.0 * values.len() as f64 / 1e6, varint_s),
    );

    // LZ over what the store actually compresses: an encoded chunk log.
    let log_bytes = Encoding::Raw.encode_framed_stream(&packets(16_384, rng));
    let log_mb = log_bytes.len() as f64 / 1e6;
    let compressed = qr_store::lz::compress(&log_bytes);
    let compress_s = median_secs(0.1, || qr_store::lz::compress(black_box(&log_bytes)));
    let decompress_s = median_secs(0.05, || {
        qr_store::lz::decompress(black_box(&compressed), log_bytes.len())
    });
    let back = qr_store::lz::decompress(&compressed, log_bytes.len());
    ctx.run
        .check(back.as_deref().ok() == Some(log_bytes.as_slice()), || {
            "probe: LZ did not round-trip".into()
        });
    ctx.run
        .set("store.lz_compress_mb_s", rate(log_mb, compress_s));
    ctx.run
        .set("store.lz_decompress_mb_s", rate(log_mb, decompress_s));

    // The wire format of the daemon's largest message, a FETCH reply.
    use qr_server::proto::{decode_response, encode_response, Response};
    let reply = Response::Fetched {
        files: vec![
            ("chunks.qrl".into(), log_bytes.clone()),
            ("inputs.qrl".into(), blob[..64 * 1024].to_vec()),
        ],
        fingerprint: rng.next_u64(),
    };
    let wire = encode_response(&reply);
    let wire_mb = wire.len() as f64 / 1e6;
    let encode_s = median_secs(0.05, || encode_response(black_box(&reply)));
    let decode_s = median_secs(0.05, || decode_response(black_box(&wire)));
    ctx.run
        .check(decode_response(&wire).ok().as_ref() == Some(&reply), || {
            "probe: FETCH reply did not round-trip".into()
        });
    ctx.run
        .set("server.proto_encode_mb_s", rate(wire_mb, encode_s));
    ctx.run
        .set("server.proto_decode_mb_s", rate(wire_mb, decode_s));
}

/// Times the per-access and per-byte primitives of `cpu`, `mem`, `os`,
/// `core`, `common`, `store` and the wire format on seeded synthetic
/// inputs, and checks each primitive's output.
pub fn micro_probes(ctx: &mut Ctx<'_>) {
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let cpu = cpu_probes(ctx);
    ctx.run.ok(cpu, || "probe: cpu".into());
    let mem = mem_probes(ctx, &mut rng);
    ctx.run.ok(mem, || "probe: mem".into());
    core_probes(ctx, &mut rng);
    common_and_store_probes(ctx, &mut rng);
}
