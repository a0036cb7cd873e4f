//! The R1 robustness contract, extended to the decode surfaces this
//! service added: the `quickrecd` wire protocol, the store's
//! block-compressed logs and the records of the `checkpoints.qrc`
//! sidecar it builds. Every mutated input must decode to either a
//! success or a structured [`QrError`] — never a panic — and block
//! salvage must always hand back a *prefix* of the original
//! uncompressed log.

use qr_bench::fault::{job_seed, Mutator};
use qr_common::frame::{self, PayloadKind};
use qr_common::{QrError, SplitMix64};
use qr_server::proto::{self, MessageAssembler};

const CASES_PER_SURFACE: usize = 400;

/// Clean wire messages covering every request and response shape: the
/// payloads of the golden capture (each record is a direction byte and
/// a payload). `tests/golden_conformance.rs` owns its sample list and
/// the `qr-server` codec tests assert it holds every variant.
fn wire_corpus() -> Vec<Vec<u8>> {
    let capture = include_bytes!("../../../tests/golden/wire/messages.qrw");
    let records = frame::read(capture, PayloadKind::Wire, "wire capture").expect("golden capture");
    records.into_iter().map(|record| record[1..].to_vec()).collect()
}

#[test]
fn mutated_wire_payloads_decode_to_structured_errors_never_panics() {
    for (ci, clean) in wire_corpus().iter().enumerate() {
        // Decoders must accept their own clean output.
        let as_req = proto::decode_request(clean);
        let as_resp = proto::decode_response(clean);
        assert!(
            as_req.is_ok() || as_resp.is_ok(),
            "corpus entry {ci} does not decode clean"
        );
        for mutator in Mutator::ALL {
            let mut rng =
                SplitMix64::new(job_seed(&["wire", &ci.to_string(), mutator.name()]));
            for _ in 0..CASES_PER_SURFACE / Mutator::ALL.len() {
                let mutated = mutator.apply(clean, &mut rng);
                // Either decode may succeed (the mutation can be a
                // no-op or still-valid payload); a failure must be a
                // structured error, which the Result type guarantees —
                // reaching the next iteration means no panic.
                let _ = proto::decode_request(&mutated);
                let _ = proto::decode_response(&mutated);
            }
        }
    }
}

#[test]
fn mutated_wire_streams_read_to_structured_errors_never_panics() {
    // A framed stream: header + several length-prefixed messages.
    let mut clean = Vec::new();
    proto::write_stream_header(&mut clean).expect("header");
    for message in wire_corpus() {
        proto::write_message(&mut clean, &message).expect("message");
    }

    for mutator in Mutator::ALL {
        let mut rng = SplitMix64::new(job_seed(&["wire-stream", mutator.name()]));
        for _ in 0..CASES_PER_SURFACE {
            let mutated = mutator.apply(&clean, &mut rng);
            // Through the reader the daemon and the client run, in
            // pieces as `read(2)` would deliver them: messages surface
            // until the stream ends or the first structured fault
            // poisons it, and none may panic the decoders either.
            let mut assembler = MessageAssembler::new();
            let mut payloads = Vec::new();
            let step = 1 + rng.below(4096) as usize;
            for piece in mutated.chunks(step) {
                if let Err(e) = assembler.feed(piece, &mut payloads) {
                    assert!(
                        matches!(e, QrError::Corrupt { .. }),
                        "stream fault must be structured: {e}"
                    );
                    break;
                }
            }
            for payload in &payloads {
                let _ = proto::decode_request(payload);
                let _ = proto::decode_response(payload);
            }
        }
    }
}

#[test]
fn mutated_compressed_blocks_decode_or_salvage_a_prefix_never_panic() {
    // Structured-but-compressible inputs of several sizes, spanning
    // multiple 32 KiB blocks at the top end.
    let corpora: Vec<Vec<u8>> = [512usize, 4096, 100_000]
        .iter()
        .map(|&n| {
            let mut rng = SplitMix64::new(job_seed(&["block-corpus", &n.to_string()]));
            (0..n)
                .map(|i| {
                    if rng.chance(7, 10) {
                        (i % 251) as u8
                    } else {
                        (rng.next_u64() & 0xFF) as u8
                    }
                })
                .collect()
        })
        .collect();

    for (ci, original) in corpora.iter().enumerate() {
        let compressed = qr_store::block::compress(original);
        assert_eq!(
            qr_store::block::decompress(&compressed).expect("clean decompress"),
            *original
        );
        for mutator in Mutator::ALL {
            let mut rng =
                SplitMix64::new(job_seed(&["block", &ci.to_string(), mutator.name()]));
            for _ in 0..CASES_PER_SURFACE / Mutator::ALL.len() {
                let mutated = mutator.apply(&compressed, &mut rng);

                // Strict decode: success (mutation hit slack) must
                // reproduce the original; failure must be structured.
                match qr_store::block::decompress(&mutated) {
                    Ok(bytes) => assert_eq!(bytes, *original, "strict decode drifted"),
                    Err(e) => assert!(
                        matches!(e, QrError::Corrupt { .. }),
                        "block fault must be Corrupt: {e}"
                    ),
                }

                // Salvage never fails and always returns a prefix of
                // the original bytes — the guarantee replay-side
                // salvage builds on.
                let salvage = qr_store::block::salvage(&mutated);
                assert!(
                    salvage.bytes.len() <= original.len()
                        && salvage.bytes == original[..salvage.bytes.len()],
                    "salvage must yield a clean prefix ({} bytes of {})",
                    salvage.bytes.len(),
                    original.len()
                );
                assert!(salvage.blocks_recovered <= salvage.blocks_total);
            }
        }
    }
}

#[test]
fn mutated_checkpoint_records_restore_or_refuse_never_panic() {
    use qr_replay::{CheckpointIndex, QueryEngine};
    // The container's CRCs stop random damage before a record is ever
    // decoded (`tests/time_travel_equivalence.rs` sweeps that), so this
    // sweep damages one record and lets `to_bytes` stamp fresh CRCs
    // over it: the overlay and state decoders see the hostile bytes.
    let spec = qr_workloads::suite::find("fft").expect("suite member");
    let program = (spec.build)(2, qr_workloads::Scale::Test).expect("builds");
    let recording =
        qr_capo::record(program.clone(), qr_bench::full_cfg(2)).expect("records");
    let pristine = CheckpointIndex::build(&program, &recording, 2).expect("index builds");
    assert!(pristine.keys.len() > 9, "{} checkpoints", pristine.keys.len());

    // A keyframe, a delta mid-chain, the keyframe of the second chain.
    for which in [0usize, 3, 8] {
        // Served by the damaged record itself, and by the last record
        // of its chain (which only walks through its memory overlay).
        let last_of_chain = (which + 7).min(pristine.keys.len() - 1);
        let targets = [which, last_of_chain].map(|i| pristine.keys[i].position as usize + 1);
        for mutator in Mutator::ALL {
            let mut rng =
                SplitMix64::new(job_seed(&["checkpoint", &which.to_string(), mutator.name()]));
            for _ in 0..CASES_PER_SURFACE / Mutator::ALL.len() / 3 {
                let mut index = pristine.clone();
                index.snapshots[which] = mutator.apply(&pristine.snapshots[which], &mut rng);
                let mut engine = QueryEngine::new(&program, &recording).expect("engine");
                // Refused whole (the kind byte was hit) or attached.
                engine.attach_index_bytes(&index.to_bytes());
                for target in targets {
                    // A refused record falls back to scratch; one that
                    // decodes to a different state may diverge further
                    // on. Either way: the position asked for, or a
                    // structured error.
                    match engine.seek(target) {
                        Ok(replayer) => assert_eq!(replayer.position(), target),
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                }
            }
        }
    }
}
