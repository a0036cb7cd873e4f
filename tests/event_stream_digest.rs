//! Pins the simulator's complete per-step event stream.
//!
//! The golden fixtures pin what the recorder *derives* from memory
//! events (chunks, timestamps, footprints) but not the events
//! themselves: `Eviction`s, `atomic` flags, exact addresses and the
//! order of events inside one step reach only the race detector and the
//! statistics. This test folds every step's `(core, outcome, cycles,
//! events…)` — and every boundary drain's events — into one digest per
//! workload, for a private (fft), a shared (radix) and a snoop-heavy
//! (raytrace) program, so a change to how events are reported cannot
//! silently reorder, drop or duplicate one.

use qr_common::{CoreId, Fingerprint};
use qr_cpu::{CpuConfig, Machine, NondetKind, StepOutcome};
use qr_mem::{BusKind, MemConfig, MemEvent};
use qr_os::{Kernel, OsConfig};

/// Evictions, dirty evictions and atomic halves folded so far: the
/// event kinds no other pinned artifact covers must actually occur.
#[derive(Default)]
struct Rare {
    evictions: u64,
    writebacks: u64,
    atomics: u64,
}

fn fold_events(fp: &mut Fingerprint, rare: &mut Rare, events: &[MemEvent]) {
    fp.u32(events.len() as u32);
    for event in events {
        match *event {
            MemEvent::LocalRead { core, line, addr, width, atomic } => {
                rare.atomics += atomic as u64;
                fp.bytes(&[0, core.0, width, atomic as u8]).u32(line.0).u32(addr.0);
            }
            MemEvent::LocalWrite { core, line, addr, width, atomic } => {
                rare.atomics += atomic as u64;
                fp.bytes(&[1, core.0, width, atomic as u8]).u32(line.0).u32(addr.0);
            }
            MemEvent::BusTxn { from, line, kind } => {
                let kind = match kind {
                    BusKind::BusRd => 0,
                    BusKind::BusRdX => 1,
                    BusKind::BusUpgr => 2,
                    BusKind::Writeback => 3,
                };
                fp.bytes(&[2, from.0, kind]).u32(line.0);
            }
            MemEvent::Eviction { core, line, dirty } => {
                rare.evictions += 1;
                rare.writebacks += dirty as u64;
                fp.bytes(&[3, core.0, dirty as u8]).u32(line.0);
            }
        }
    }
}

fn fold_outcome(fp: &mut Fingerprint, outcome: &StepOutcome) {
    match outcome {
        StepOutcome::Retired => fp.bytes(&[0]),
        StepOutcome::Syscall => fp.bytes(&[1]),
        StepOutcome::Nondet { kind, rd } => {
            let kind = match kind {
                NondetKind::Rdtsc => 0,
                NondetKind::Rdrand => 1,
            };
            fp.bytes(&[2, kind, rd.index() as u8])
        }
        StepOutcome::Halt => fp.bytes(&[3]),
        StepOutcome::Fault(_) => fp.bytes(&[4]),
        StepOutcome::Idle => fp.bytes(&[5]),
    };
}

/// `qr_os::run_native`'s loop, with every step and boundary drain
/// folded into a digest. Returns `(digest, steps)`.
fn event_stream_digest(workload: &str) -> (u64, u64) {
    let spec = quickrec::workloads::find(workload).expect("suite workload");
    let program = (spec.build)(4, quickrec::workloads::Scale::Test).expect("builds");
    // A 1 KiB L1 (8 sets x 2 ways) so Test-scale working sets evict.
    let mem = MemConfig { l1_sets: 8, l1_ways: 2, ..MemConfig::default() };
    let cfg = CpuConfig { num_cores: 4, mem, ..CpuConfig::default() };
    let mut machine = Machine::new(program, cfg).expect("machine");
    let mut kernel = Kernel::new(OsConfig::default(), &mut machine).expect("kernel");
    kernel.place_runnable(&mut machine);
    let mut fp = Fingerprint::new();
    let mut rare = Rare::default();
    let mut steps = 0u64;
    let drain = |machine: &mut Machine, core: CoreId, fp: &mut Fingerprint, rare: &mut Rare| {
        let access = machine.drain_store_buffer(core).expect("boundary drain");
        fp.u64(access.cycles);
        fold_events(fp, rare, &access.events);
    };
    while !kernel.all_done() {
        let Some(core) = machine.least_advanced_busy_core() else {
            kernel.place_runnable(&mut machine);
            assert!(machine.least_advanced_busy_core().is_some(), "{workload}: deadlock");
            continue;
        };
        let step = machine.step(core);
        steps += 1;
        fp.bytes(&[core.0]);
        fold_outcome(&mut fp, &step.outcome);
        fp.u64(step.cycles);
        fold_events(&mut fp, &mut rare, machine.events());
        match step.outcome {
            StepOutcome::Retired => {
                if kernel.quantum_expired(&machine, core) {
                    kernel.preempt(&mut machine, core);
                }
                if kernel.signal_ready(core) {
                    kernel.deliver_signal(&mut machine, core);
                }
            }
            StepOutcome::Syscall => {
                drain(&mut machine, core, &mut fp, &mut rare);
                kernel.handle_syscall(&mut machine, core).expect("syscall");
                kernel.place_runnable(&mut machine);
            }
            StepOutcome::Nondet { kind, rd } => {
                let value = kernel.nondet_value(&machine, kind);
                machine.write_reg(core, rd, value);
            }
            StepOutcome::Halt => {
                drain(&mut machine, core, &mut fp, &mut rare);
                kernel.handle_halt(&mut machine, core);
                kernel.place_runnable(&mut machine);
            }
            StepOutcome::Fault(ref err) => {
                drain(&mut machine, core, &mut fp, &mut rare);
                kernel.handle_fault(&mut machine, core, err);
                kernel.place_runnable(&mut machine);
            }
            StepOutcome::Idle => {}
        }
    }
    assert_eq!(kernel.exit_code(), (spec.expected)(4, quickrec::workloads::Scale::Test));
    assert!(
        rare.evictions > 0 && rare.writebacks > 0 && rare.atomics > 0,
        "{workload}: {} evictions, {} writebacks, {} atomic halves",
        rare.evictions,
        rare.writebacks,
        rare.atomics
    );
    (fp.digest(), steps)
}

#[test]
fn per_step_event_streams_match_their_pinned_digests() {
    // Recorded at commit 1cffa00, where each step returned its events in
    // an owned `StepResult.events`; `Machine::events()` must expose the
    // same stream.
    const PINS: [(&str, u64, u64); 3] = [
        ("fft", 0xe67b_1c66_ee93_a80e, 10_242),
        ("radix", 0x8559_44cc_a116_4fdc, 102_855),
        ("raytrace", 0x8ada_09c5_de8e_28c5, 15_867),
    ];
    let got = PINS.map(|(workload, ..)| {
        let (digest, steps) = event_stream_digest(workload);
        (workload, digest, steps)
    });
    assert_eq!(got, PINS, "event streams changed: {got:#x?}");
}
