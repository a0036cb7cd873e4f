//! Microbenchmarks of the recording hardware's critical paths (A4):
//! signature insert/probe, chunk-packet encode/decode, varint codecs.
//!
//! These are the operations a real MRR performs on every memory access
//! and every chunk termination; their software cost bounds how fast the
//! simulator can record.
//!
//! Harness-less: a small fixed-time measurement loop (no external
//! benchmarking crate — the container builds fully offline).

use qr_bench::timing::Bench;
use qr_common::{varint, Cycle, LineAddr, ThreadId};
use quickrec_core::signature::Signature;
use quickrec_core::{ChunkPacket, Encoding, TerminationReason};
use std::hint::black_box;

fn packets(n: usize) -> Vec<ChunkPacket> {
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            ts += 3 + (i as u64 % 29);
            ChunkPacket {
                tid: ThreadId((i % 4) as u32),
                core: qr_common::CoreId((i % 4) as u8),
                icount: (i as u64 * 131) % 10_000,
                timestamp: Cycle(ts),
                rsw: (i % 4) as u8,
                reason: TerminationReason::ALL[i % TerminationReason::ALL.len()],
            }
        })
        .collect()
}

fn bench_signature(b: &mut Bench) {
    for bits in [512u32, 2048, 8192] {
        b.run_throughput(&format!("signature/insert-1k/{bits}b"), 1024, || {
            let mut sig = Signature::new(bits, 2);
            for i in 0..1024u32 {
                sig.insert(LineAddr(i.wrapping_mul(2654435761)));
            }
            sig
        });
        let mut sig = Signature::new(bits, 2);
        for i in 0..256u32 {
            sig.insert(LineAddr(i));
        }
        b.run_throughput(&format!("signature/probe-1k/{bits}b"), 1024, || {
            let mut hits = 0u32;
            for i in 0..1024u32 {
                hits += sig.maybe_contains(black_box(LineAddr(i))) as u32;
            }
            hits
        });
    }
}

fn bench_encoding(b: &mut Bench) {
    let ps = packets(4096);
    for enc in Encoding::ALL {
        b.run_throughput(&format!("encoding/encode/{}", enc.name()), ps.len() as u64, || {
            enc.encode_framed_stream(black_box(&ps))
        });
        let bytes = enc.encode_framed_stream(&ps);
        b.run_throughput(&format!("encoding/decode/{}", enc.name()), ps.len() as u64, || {
            Encoding::decode_framed_stream(black_box(&bytes)).expect("valid stream")
        });
    }
}

fn bench_varint(b: &mut Bench) {
    let values: Vec<u64> =
        (0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 40)).collect();
    b.run_throughput("varint/write", values.len() as u64, || {
        let mut buf = Vec::with_capacity(values.len() * 5);
        for &v in &values {
            varint::write_u64(&mut buf, black_box(v));
        }
        buf
    });
    let mut buf = Vec::new();
    for &v in &values {
        varint::write_u64(&mut buf, v);
    }
    b.run_throughput("varint/read", values.len() as u64, || {
        let mut off = 0;
        let mut sum = 0u64;
        while off < buf.len() {
            let (v, n) = varint::read_u64(&buf[off..]).expect("valid");
            sum = sum.wrapping_add(v);
            off += n;
        }
        sum
    });
}

fn main() {
    let mut b = Bench::from_env();
    bench_signature(&mut b);
    bench_encoding(&mut b);
    bench_varint(&mut b);
}
