//! The only reader of recording format v1.
//!
//! v1 is what recorders wrote before the framed container existed: a
//! bare `QRM1` meta blob, a chunk stream of `tag · varint count ·
//! packets`, and an input log of `varint count · events · varint thread
//! count · nondet sections` — no checksums, no sidecars, no manifest.
//! Without checksums there is nothing to salvage *by*, so a v1 file set
//! is decoded strictly, end to end, exactly once — by
//! [`super::migrate`], which rewrites it in the current format — and
//! every other reader refuses it
//! ([`crate::RecordingVersion::detect`] names it, `Recording::from_parts`
//! and friends say "run `quickrec migrate`").

use crate::input_log::{decode_event, decode_nondet_section, InputLog};
use crate::recording::{Recording, RecordingMeta, RecordingParts};
use qr_common::cursor::ByteReader;
use qr_common::{Cycle, Result};
use quickrec_core::{ChunkLog, Encoding};

/// Decodes a v1 file set into a recording, plus the chunk encoding it
/// was stored in (which the upgrade preserves).
pub(super) fn read(parts: &RecordingParts) -> Result<(Recording, Encoding)> {
    let (encoding, chunks) = chunk_stream(&parts.chunks)?;
    let recording = Recording::assemble(
        RecordingMeta::from_inner_bytes(&parts.meta, 0)?,
        chunks,
        input_log(&parts.inputs)?,
        None,
    );
    recording.check_consistency()?;
    Ok((recording, encoding))
}

/// `tag · varint count · count packets`, ending exactly at the last one.
fn chunk_stream(buf: &[u8]) -> Result<(Encoding, ChunkLog)> {
    let mut r = ByteReader::new(buf, "v1 chunk stream");
    let tag = r.u8().map_err(|_| r.corrupt("empty stream"))?;
    let encoding = Encoding::from_tag(tag)
        .ok_or_else(|| r.corrupt_at(0, format!("unknown encoding tag {tag}")))?;
    let count = r.varint()?;
    // A packet is at least 6 bytes in every encoding.
    if count > r.remaining() as u64 {
        return Err(r.corrupt_at(1, format!("implausible packet count {count}")));
    }
    let mut packets = Vec::with_capacity(count as usize);
    let mut prev = Cycle(0);
    for _ in 0..count {
        let (packet, len) = encoding
            .decode_packet(&buf[r.pos()..], prev)
            .map_err(|e| r.corrupt(e.to_string()))?;
        r.bytes(len)?;
        prev = packet.timestamp;
        packets.push(packet);
    }
    r.finish()?;
    Ok((encoding, packets.into_iter().collect()))
}

/// `varint count · events · varint thread count · nondet sections`; the
/// events and sections are laid out as in the framed log's records.
fn input_log(buf: &[u8]) -> Result<InputLog> {
    let mut r = ByteReader::new(buf, "v1 input log");
    let mut log = InputLog::new();
    for _ in 0..r.varint()? {
        log.events.push(decode_event(&mut r)?);
    }
    let threads = r.varint()?;
    // Each nondet section needs at least 2 bytes (tid + count).
    if threads > r.remaining() as u64 {
        return Err(r.corrupt(format!("implausible nondet thread count {threads}")));
    }
    for _ in 0..threads {
        let (tid, values) = decode_nondet_section(&mut r)?;
        log.nondet.insert(tid, values);
    }
    r.finish()?;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::tests::{golden, HELLO_FINGERPRINT};
    use qr_common::{varint, QrError};

    #[test]
    fn golden_v1_fixtures_decode_to_their_v3_twins() {
        for encoding in Encoding::ALL {
            for generator in ["hello", "fft2"] {
                let name = format!("{generator}-{}", encoding.name());
                let (rec, found) = read(&golden("v1", &name)).unwrap();
                assert_eq!(found, encoding, "{name}");
                let twin = Recording::from_parts(&golden("v3", &name)).unwrap();
                assert_eq!(rec.chunks, twin.chunks, "{name}");
                assert_eq!(rec.inputs, twin.inputs, "{name}");
                assert_eq!(rec.meta, twin.meta, "{name}");
                assert_eq!(rec.fingerprint, twin.fingerprint, "{name}");
                assert!(rec.footprints.is_none() && rec.order.is_none(), "{name}");
            }
        }
        let (hello, _) = read(&golden("v1", "hello-delta")).unwrap();
        assert_eq!(hello.fingerprint, HELLO_FINGERPRINT);
    }

    #[test]
    fn every_truncation_and_any_trailing_byte_is_refused() {
        // No checksums: strictness is all v1 has.
        for name in ["fft2-raw", "fft2-packed", "fft2-delta"] {
            let parts = golden("v1", name);
            for cut in 0..parts.chunks.len() {
                let err = chunk_stream(&parts.chunks[..cut]).expect_err("torn chunk stream");
                assert!(matches!(err, QrError::Corrupt { .. }), "{name} cut {cut}: {err}");
            }
            for cut in 0..parts.inputs.len() {
                let err = input_log(&parts.inputs[..cut]).expect_err("torn input log");
                assert!(matches!(err, QrError::Corrupt { .. }), "{name} cut {cut}: {err}");
            }
            for cut in 0..parts.meta.len() {
                assert!(RecordingMeta::from_inner_bytes(&parts.meta[..cut], 0).is_err(), "{name}");
            }
            let longer = |bytes: &[u8]| [bytes, &[0xAA]].concat();
            let err = chunk_stream(&longer(&parts.chunks)).unwrap_err();
            assert!(err.to_string().contains("1 trailing bytes"), "{name}: {err}");
            let err = input_log(&longer(&parts.inputs)).unwrap_err();
            assert!(err.to_string().contains("1 trailing bytes"), "{name}: {err}");
        }
    }

    #[test]
    fn garbage_and_implausible_counts_error_without_allocating() {
        assert!(chunk_stream(&[]).unwrap_err().to_string().contains("empty stream"));
        assert!(chunk_stream(&[9]).unwrap_err().to_string().contains("unknown encoding tag 9"));
        let mut stream = vec![Encoding::Raw.tag()];
        varint::write_u64(&mut stream, u64::MAX / 2);
        assert!(chunk_stream(&stream).unwrap_err().to_string().contains("implausible"));
        let mut log = Vec::new();
        varint::write_u64(&mut log, 0); // events
        varint::write_u64(&mut log, u64::MAX); // nondet threads
        assert!(input_log(&log).unwrap_err().to_string().contains("implausible"));
        // A framed (current-format) file is not a v1 file.
        let framed = golden("v3", "hello-raw");
        assert!(chunk_stream(&framed.chunks).is_err());
        assert!(input_log(&framed.inputs).is_err());
        assert!(RecordingMeta::from_inner_bytes(&framed.meta, 0).is_err());
        let mut rng = qr_common::SplitMix64::new(0x71_0001);
        for _ in 0..4096 {
            let len = rng.below(256) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = input_log(&bytes);
            // Bias toward plausible streams: valid tag byte, random rest.
            if let Some(first) = bytes.first_mut() {
                *first = rng.below(3) as u8;
            }
            let _ = chunk_stream(&bytes);
        }
    }
}
