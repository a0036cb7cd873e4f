//! Tamper matrix: perturbing any dimension of a recording must make
//! replay *fail loudly* (divergence error or verification failure) —
//! never silently produce a different execution that verifies.

use qr_common::{Cycle, QrError, VirtAddr};
use quickrec::{
    record, ChunkPacket, InputEvent, InputLog, OrderMode, Program, Recording, RecordingConfig,
    ReplayOutcome,
};

/// One way of replaying a recording; `order` is the mode the path needs
/// the recording made under.
struct Path {
    name: &'static str,
    order: OrderMode,
    replay: fn(&Program, &Recording) -> quickrec::Result<ReplayOutcome>,
}

/// Every perturbation below must be refused on each of these.
const PATHS: [Path; 3] = [
    Path {
        name: "serial",
        order: OrderMode::TotalOrder,
        replay: |p, r| qr_replay::replay_and_verify(p, r),
    },
    Path {
        name: "parallel, 2 workers",
        order: OrderMode::TotalOrder,
        replay: |p, r| qr_replay::replay_parallel_and_verify(p, r, 2),
    },
    Path {
        name: "ordered, 2 workers",
        order: OrderMode::PartialOrder,
        replay: |p, r| qr_replay::replay_ordered_and_verify(p, r, 2),
    },
];

/// A program with its total-order and partial-order recordings (the
/// same seeded execution: the mode only adds the `order.qrp` sidecar,
/// so a perturbation means the same thing on both).
struct Subject {
    program: Program,
    total: Recording,
    partial: Recording,
}

impl Subject {
    fn new(program: Program, cores: usize) -> Subject {
        let mut cfg = RecordingConfig::with_cores(cores);
        let total = record(program.clone(), cfg.clone()).expect("records");
        cfg.order = OrderMode::PartialOrder;
        let partial = record(program.clone(), cfg).expect("records under partial order");
        assert_eq!(total.chunks, partial.chunks);
        assert_eq!(total.inputs, partial.inputs);
        Subject { program, total, partial }
    }

    fn recording(&self, order: OrderMode) -> &Recording {
        match order {
            OrderMode::TotalOrder => &self.total,
            OrderMode::PartialOrder => &self.partial,
        }
    }

    /// Applies `tamper` to the recording each path replays and returns
    /// the refusals; a path that accepts the tampered recording fails
    /// the test.
    fn rejections(&self, what: &str, tamper: impl Fn(&mut Recording)) -> Vec<QrError> {
        (PATHS.iter())
            .map(|path| {
                let mut tampered = self.recording(path.order).clone();
                tamper(&mut tampered);
                match (path.replay)(&self.program, &tampered) {
                    Err(err) => err,
                    Ok(_) => panic!("tampering with {what} must not verify under {} replay", path.name),
                }
            })
            .collect()
    }

    fn assert_rejected(&self, what: &str, tamper: impl Fn(&mut Recording)) {
        self.rejections(what, tamper);
    }
}

fn recorded() -> Subject {
    let spec = quickrec::workloads::find("barnes").expect("barnes exists");
    let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
    Subject::new(program, 3)
}

fn edit_packets(recording: &mut Recording, edit: impl FnOnce(&mut Vec<ChunkPacket>)) {
    let mut packets: Vec<ChunkPacket> = recording.chunks.packets().to_vec();
    edit(&mut packets);
    recording.chunks = packets.into_iter().collect();
}

/// Rebuilds the input log with `edit` applied to every syscall record
/// (signals and nondet queues carried over unchanged).
fn edit_syscalls(recording: &mut Recording, mut edit: impl FnMut(&mut qr_os::SyscallRecord)) {
    let mut log = InputLog::new();
    for ev in recording.inputs.events() {
        let mut ev = ev.clone();
        if let InputEvent::Syscall { record, .. } = &mut ev {
            edit(record);
        }
        log.push_event(ev);
    }
    for tid in (0..256).map(qr_common::ThreadId) {
        for &(kind, value) in recording.inputs.nondet_for(tid) {
            log.push_nondet(tid, kind, value);
        }
    }
    recording.inputs = log;
}

#[test]
fn inflated_chunk_icount_is_rejected() {
    let subject = recorded();
    let mid = subject.total.chunks.len() / 2;
    subject.assert_rejected("a chunk's instruction count (+1)", |r| {
        edit_packets(r, |p| p[mid].icount += 1)
    });
}

#[test]
fn deflated_chunk_icount_is_rejected() {
    let subject = recorded();
    let mid = subject.total.chunks.len() / 2;
    subject.assert_rejected("a chunk's instruction count (-1)", |r| {
        edit_packets(r, |p| p[mid].icount = p[mid].icount.saturating_sub(1).max(1))
    });
}

#[test]
fn dropped_chunk_is_rejected() {
    let subject = recorded();
    let mid = subject.total.chunks.len() / 2;
    subject.assert_rejected("a missing chunk", |r| {
        edit_packets(r, |p| {
            p.remove(mid);
        })
    });
}

#[test]
fn swapped_timestamps_are_rejected() {
    let subject = recorded();
    // Swap the timestamps of two adjacent same-thread chunks: the
    // schedule reorders and replay must notice.
    let schedule = subject.total.chunks.replay_schedule().unwrap();
    let pair = schedule
        .windows(2)
        .find(|w| w[0].tid == w[1].tid)
        .map(|w| (w[0].timestamp, w[1].timestamp))
        .expect("some thread has consecutive chunks");
    subject.assert_rejected("chunk timestamp order", |r| {
        edit_packets(r, |p| {
            for packet in p.iter_mut() {
                if packet.timestamp == pair.0 {
                    packet.timestamp = pair.1;
                } else if packet.timestamp == pair.1 {
                    packet.timestamp = pair.0;
                }
            }
        })
    });
}

#[test]
fn corrupted_rsw_is_rejected() {
    recorded().assert_rejected("the reordered-store-window field", |r| {
        edit_packets(r, |p| p[0].rsw = p[0].rsw.wrapping_add(3))
    });
}

#[test]
fn wrong_thread_attribution_is_rejected() {
    let subject = recorded();
    let other = qr_common::ThreadId(1);
    let mid = subject.total.chunks.len() / 2;
    subject.assert_rejected("a chunk's thread id", |r| {
        edit_packets(r, |p| {
            if p[mid].tid == other {
                p[mid].tid = qr_common::ThreadId(0);
            } else {
                p[mid].tid = other;
            }
        })
    });
}

#[test]
fn duplicate_timestamp_is_rejected() {
    recorded().assert_rejected("duplicate timestamps", |r| {
        edit_packets(r, |p| {
            let ts = p[0].timestamp;
            p[1].timestamp = ts;
        })
    });
}

#[test]
fn tampered_syscall_result_is_rejected() {
    // A program whose exit code IS a syscall result: tampering with the
    // logged result must change the replayed outcome and fail
    // verification. (Tampering with an architecturally *dead* result —
    // e.g. an ignored join return value — is legitimately unobservable.)
    use qr_isa::{abi, Asm, Reg};
    let mut a = Asm::new();
    a.movi_u(Reg::R0, abi::SYS_TIME);
    a.syscall();
    a.mov(Reg::R1, Reg::R0);
    a.movi_u(Reg::R0, abi::SYS_EXIT);
    a.syscall();
    let subject = Subject::new(a.finish().unwrap(), 1);
    assert!(
        subject.total.inputs.events().iter().any(
            |ev| matches!(ev, InputEvent::Syscall { record, .. } if record.number == abi::SYS_TIME)
        ),
        "the recording contains a time record"
    );
    subject.assert_rejected("a live syscall result", |r| {
        edit_syscalls(r, |record| {
            if record.number == abi::SYS_TIME {
                record.result ^= 0x55;
            }
        })
    });
}

#[test]
fn faulting_kernel_write_is_a_structured_divergence() {
    // A `read` payload redirected to an unmapped address: the kernel
    // write cannot land, and every path must say so as a divergence —
    // never a raw memory fault, never a verified replay.
    use qr_isa::{abi, Asm, Reg};
    let mut a = Asm::new();
    a.data_space("buf", 16);
    a.movi_u(Reg::R0, abi::SYS_READ);
    a.movi_sym(Reg::R1, "buf");
    a.movi(Reg::R2, 16);
    a.syscall();
    a.movi_sym(Reg::R3, "buf");
    a.ld(Reg::R1, Reg::R3, 0);
    a.movi_u(Reg::R0, abi::SYS_EXIT);
    a.syscall();
    let subject = Subject::new(a.finish().unwrap(), 1);
    let errors = subject.rejections("a kernel write's address", |r| {
        edit_syscalls(r, |record| {
            for (addr, _) in &mut record.writes {
                *addr = VirtAddr(0x8000_0000);
            }
        })
    });
    for (path, err) in PATHS.iter().zip(&errors) {
        assert!(matches!(err, QrError::ReplayDivergence(_)), "{}: {err:?}", path.name);
    }
    assert!(errors[0].to_string().contains("kernel write during replay faulted"), "{}", errors[0]);
}

#[test]
fn self_spawning_record_is_rejected() {
    // A spawn record rewritten to name the spawner itself as the child:
    // the thread already exists, and no path may wedge on it.
    use qr_isa::abi;
    recorded().assert_rejected("a spawn record's child id", |r| {
        edit_syscalls(r, |record| {
            if record.number == abi::SYS_SPAWN {
                record.result = record.tid.0;
            }
        })
    });
}

#[test]
fn missing_nondet_values_are_rejected() {
    // A program that uses rdtsc: dropping its logged value must fail.
    use qr_isa::{abi, Asm, Reg};
    let mut a = Asm::new();
    a.rdtsc(Reg::R4);
    a.movi_u(Reg::R0, abi::SYS_EXIT);
    a.mov(Reg::R1, Reg::R4);
    a.syscall();
    let subject = Subject::new(a.finish().unwrap(), 1);
    // Keep the syscall events, drop only the nondet queue.
    let drop_nondet = |r: &mut Recording| {
        let mut log = InputLog::new();
        r.inputs.events().iter().for_each(|ev| log.push_event(ev.clone()));
        r.inputs = log;
    };
    subject.assert_rejected("the nondet queue", drop_nondet);
    let mut tampered = subject.total.clone();
    drop_nondet(&mut tampered);
    assert!(
        qr_replay::replay(&subject.program, &tampered).is_err(),
        "replay must fail when nondet values are missing"
    );
}

#[test]
fn mismatched_fingerprint_fails_verification() {
    recorded().assert_rejected("the recorded fingerprint", |r| r.fingerprint ^= 1);
}

#[test]
fn timestamps_in_logs_survive_cycle_wrap_arithmetic() {
    // Shifting all timestamps by a constant preserves order — replay
    // still works (the absolute value never matters, only the order).
    let Subject { program, total: recording, .. } = recorded();
    let mut shifted = recording.clone();
    edit_packets(&mut shifted, |p| {
        for packet in p.iter_mut() {
            packet.timestamp = Cycle(packet.timestamp.0 + 1_000_000);
        }
    });
    // The input-event timestamps must shift equally, or ordering against
    // syscalls breaks; rebuild them too.
    let mut inputs = quickrec::InputLog::new();
    for ev in recording.inputs.events() {
        match ev {
            quickrec::InputEvent::Syscall { ts, record } => {
                inputs.push_event(quickrec::InputEvent::Syscall {
                    ts: Cycle(ts.0 + 1_000_000),
                    record: record.clone(),
                });
            }
            quickrec::InputEvent::Signal { ts, tid } => {
                inputs.push_event(quickrec::InputEvent::Signal {
                    ts: Cycle(ts.0 + 1_000_000),
                    tid: *tid,
                });
            }
        }
    }
    shifted.inputs = inputs;
    // Nondet queues are per-thread and unshifted.
    for (tid, values) in quickrec::workloads::suite()
        .iter()
        .flat_map(|_| std::iter::empty::<(qr_common::ThreadId, Vec<u8>)>())
    {
        let _ = (tid, values);
    }
    // (nondet values live in the same InputLog; copy them over)
    let mut final_inputs = shifted.inputs.clone();
    for tid in 0..8u32 {
        for &(kind, value) in recording.inputs.nondet_for(qr_common::ThreadId(tid)) {
            final_inputs.push_nondet(qr_common::ThreadId(tid), kind, value);
        }
    }
    shifted.inputs = final_inputs;
    qr_replay::replay_and_verify(&program, &shifted)
        .expect("uniformly shifted timestamps preserve the schedule");
}
