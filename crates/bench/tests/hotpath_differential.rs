//! Fast path == slow path: the tuned hot loops (slice-by-8 CRC-32, the
//! hash-chain LZ matcher, wide-copy decompression) must be byte-for-byte
//! indistinguishable from their scalar reference implementations on every
//! artifact the workload suite can produce — and the byte-level codecs
//! must stay panic-free and prefix-honest when those artifacts are
//! damaged. This battery is the only fast-vs-reference gate; how fast
//! the fast paths are is `common.crc32_mb_s` and
//! `store.lz_{compress,decompress}_mb_s` in `BENCHMARK.json`.

use qr_bench::runner::BuildCache;
use qr_bench::{full_cfg, record_workload_with};
use qr_common::{crc32, SplitMix64};
use qr_store::{block, lz};
use qr_workloads::{suite, Scale};
use quickrec_core::Encoding;

/// Records every suite workload once and serializes it under every
/// encoding, yielding one labelled byte corpus per recording artifact
/// (metadata container, chunk log, input log, format manifest).
fn suite_artifacts() -> Vec<(String, Vec<u8>)> {
    let cache = BuildCache::new();
    let threads = 2;
    let mut artifacts = Vec::new();
    for spec in suite() {
        let r = record_workload_with(&cache, &spec, threads, Scale::Small, full_cfg(threads))
            .unwrap_or_else(|e| panic!("recording {} failed: {e}", spec.name));
        for encoding in Encoding::ALL {
            for (file, bytes) in r.to_parts(encoding).files() {
                artifacts.push((format!("{}/{encoding:?}/{file}", spec.name), bytes.to_vec()));
            }
        }
    }
    artifacts
}

#[test]
fn fast_paths_match_reference_on_every_suite_artifact() {
    let artifacts = suite_artifacts();
    // 11 workloads x 3 encodings x at least 3 files each.
    assert!(artifacts.len() >= 99, "suite corpus unexpectedly small: {}", artifacts.len());
    for (label, bytes) in &artifacts {
        // CRC-32: the slice-by-8 kernel is a pure speedup, never a new
        // polynomial.
        assert_eq!(
            crc32::checksum(bytes),
            crc32::checksum_scalar(bytes),
            "slice-by-8 CRC drifted from the bitwise reference on {label}"
        );

        // LZ: both matchers must round-trip through both copy loops.
        for (matcher, packed) in
            [("hash-chain", lz::compress(bytes)), ("greedy", lz::compress_greedy(bytes))]
        {
            let wide = lz::decompress(&packed, bytes.len())
                .unwrap_or_else(|e| panic!("{matcher}/{label}: wide decompress failed: {e}"));
            let scalar = lz::decompress_scalar(&packed, bytes.len())
                .unwrap_or_else(|e| panic!("{matcher}/{label}: scalar decompress failed: {e}"));
            assert_eq!(&wide, bytes, "{matcher} wide round-trip drifted on {label}");
            assert_eq!(&scalar, bytes, "{matcher} scalar round-trip drifted on {label}");
        }

        // Block container: the full framed/CRC'd/indexed path.
        let container = block::compress(bytes);
        let restored = block::decompress(&container)
            .unwrap_or_else(|e| panic!("{label}: block round-trip failed: {e}"));
        assert_eq!(&restored, bytes, "block container round-trip drifted on {label}");
    }
}

#[test]
fn recordings_are_bit_reproducible_across_identical_runs() {
    // The codec rewrite must not have introduced any iteration-order or
    // timing dependence upstream: two identical recordings serialize to
    // identical bytes under every encoding.
    let cache = BuildCache::new();
    for name in ["fft", "water"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        let a = record_workload_with(&cache, &spec, 2, Scale::Small, full_cfg(2)).unwrap();
        let b = record_workload_with(&cache, &spec, 2, Scale::Small, full_cfg(2)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "{name}: outcome fingerprint drifted");
        for encoding in Encoding::ALL {
            let pa = a.to_parts(encoding);
            let pb = b.to_parts(encoding);
            for ((file, bytes_a), (_, bytes_b)) in pa.files().iter().zip(pb.files().iter()) {
                assert_eq!(bytes_a, bytes_b, "{name}/{encoding:?}/{file}: bytes drifted");
            }
        }
    }
}

#[test]
fn mutated_containers_never_panic_and_salvage_stays_prefix_honest() {
    // 2000 SplitMix64-driven mutations of a real compressed container:
    // decompress must fail structurally (no panics, no silently wrong
    // bytes) and salvage must only ever return a prefix of the original.
    let mut rng = SplitMix64::new(0xe13_d1ff);
    let mut data = Vec::new();
    for i in 0u64..4096 {
        qr_common::varint::write_u64(&mut data, rng.next_u64() >> (i % 56));
        if i % 9 == 0 {
            data.extend_from_slice(b"chunk-boundary");
        }
    }
    let container = block::compress(&data);
    for case in 0..2000 {
        let mut buf = container.clone();
        match case % 3 {
            0 => {
                // Bit flip anywhere.
                let at = rng.below(buf.len() as u64) as usize;
                buf[at] ^= 1 << rng.below(8);
            }
            1 => {
                // Torn write: truncate to a random prefix.
                buf.truncate(rng.below(buf.len() as u64 + 1) as usize);
            }
            _ => {
                // Overwrite a random short span with noise.
                let at = rng.below(buf.len() as u64) as usize;
                let span = (rng.below(16) as usize + 1).min(buf.len() - at);
                for b in &mut buf[at..at + span] {
                    *b = rng.next_u64() as u8;
                }
            }
        }
        if let Ok(restored) = block::decompress(&buf) {
            // A mutation may land in dead space (padding, an unread
            // byte of a varint's encoding is impossible now that
            // overlong forms are rejected — but the flip may be a
            // no-op on an identical byte). Accepted output must be
            // exactly the original.
            assert_eq!(restored, data, "case {case}: mutated container decoded to wrong bytes");
        }
        let s = block::salvage(&buf);
        assert!(
            s.blocks_recovered <= s.blocks_total.max(s.blocks_recovered),
            "case {case}: salvage counters inconsistent"
        );
        assert!(
            data.starts_with(&s.bytes),
            "case {case}: salvage returned {} bytes that are not a prefix of the original",
            s.bytes.len()
        );
    }
}
