//! Chunk-packet log encodings.
//!
//! The paper evaluates how chunk packets are compressed before they are
//! written to memory, since log footprint determines how long recording
//! can stay on. Three formats are modeled (experiment E4 compares them):
//!
//! | Encoding | Layout |
//! |---|---|
//! | `Raw`    | fixed 24 bytes: tid u32, core u8, reason u8, rsw u8, pad, icount u64, timestamp u64 |
//! | `Packed` | all fields as LEB128 varints |
//! | `Delta`  | like `Packed` but the timestamp is a zigzag delta against the previous packet in the stream |
//!
//! On disk a chunk log is a crash-consistent [`qr_common::frame`]
//! container (written by [`Encoding::encode_framed_stream`]): record 0
//! is the stream header (encoding tag + committed total packet count);
//! each following record is a *packet group* of up to
//! [`FRAME_GROUP_PACKETS`] packets, CRC-32-protected and independently
//! decodable (`Delta` restarts its timestamp baseline per group). A log
//! torn mid-write salvages at group granularity. (The unframed v1 stream
//! — tag, count, packets, no checksums — is read only by
//! `qr_capo::migrate`.)

use crate::chunk::{ChunkPacket, TerminationReason};
use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::{varint, wire_enum, CoreId, Cycle, QrError, Result, ThreadId};

/// Packets per framed record: the salvage granularity of a torn chunk
/// log. Larger groups amortize the 8-byte record overhead; smaller
/// groups lose fewer packets to a tear.
pub const FRAME_GROUP_PACKETS: usize = 64;

wire_enum! {
    /// On-disk chunk-packet format. Its tag opens a chunk-log stream and
    /// is its form in every schema document.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Encoding as "encoding tag" {
        /// Fixed-size 24-byte packets (the hardware's native format plus
        /// the software thread tag). The instruction count is a full
        /// `u64`: the configured `max chunk size` does not bound it
        /// (uncapped chunks are legal), so a narrower field would
        /// silently truncate long chunks.
        0 "raw" Raw,
        /// Varint-packed fields.
        1 "packed" Packed,
        /// Varint-packed fields with timestamp deltas. The default.
        #[default]
        2 "delta" Delta,
    }
}

impl Encoding {
    /// All encodings.
    pub const ALL: [Encoding; 3] = [Encoding::Raw, Encoding::Packed, Encoding::Delta];

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Option<Encoding> {
        Encoding::ALL.into_iter().find(|e| e.tag() == tag)
    }

    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        self.label()
    }

    /// Encodes one packet, appending to `out`. `prev_ts` is the previous
    /// packet's timestamp in stream order (used by `Delta`).
    pub fn encode_packet(self, packet: &ChunkPacket, prev_ts: Cycle, out: &mut Vec<u8>) {
        match self {
            Encoding::Raw => {
                out.extend_from_slice(&packet.tid.0.to_le_bytes());
                out.push(packet.core.0);
                out.push(packet.reason.code());
                out.push(packet.rsw);
                out.push(0);
                out.extend_from_slice(&packet.icount.to_le_bytes());
                out.extend_from_slice(&packet.timestamp.0.to_le_bytes());
            }
            Encoding::Packed | Encoding::Delta => {
                varint::write_u64(out, packet.tid.0 as u64);
                out.push(packet.core.0);
                out.push(packet.reason.code());
                out.push(packet.rsw);
                varint::write_u64(out, packet.icount);
                if self == Encoding::Delta {
                    varint::write_i64(out, packet.timestamp.0 as i64 - prev_ts.0 as i64);
                } else {
                    varint::write_u64(out, packet.timestamp.0);
                }
            }
        }
    }

    /// Decodes one packet from the front of `buf`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::LogDecode`] on truncation or malformed fields.
    pub fn decode_packet(self, buf: &[u8], prev_ts: Cycle) -> Result<(ChunkPacket, usize)> {
        let truncated = || QrError::LogDecode("truncated chunk packet".into());
        match self {
            Encoding::Raw => {
                if buf.len() < 24 {
                    return Err(truncated());
                }
                let tid = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                let core = buf[4];
                let reason = TerminationReason::from_code(buf[5])
                    .ok_or_else(|| QrError::LogDecode(format!("bad reason code {}", buf[5])))?;
                let rsw = buf[6];
                let icount = u64::from_le_bytes([
                    buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
                ]);
                let ts = u64::from_le_bytes([
                    buf[16], buf[17], buf[18], buf[19], buf[20], buf[21], buf[22], buf[23],
                ]);
                Ok((
                    ChunkPacket {
                        tid: ThreadId(tid),
                        core: CoreId(core),
                        icount,
                        timestamp: Cycle(ts),
                        rsw,
                        reason,
                    },
                    24,
                ))
            }
            Encoding::Packed | Encoding::Delta => {
                let mut off = 0usize;
                let (tid, n) = varint::read_u64(&buf[off..])?;
                off += n;
                if buf.len() < off + 3 {
                    return Err(truncated());
                }
                let core = buf[off];
                let reason = TerminationReason::from_code(buf[off + 1]).ok_or_else(|| {
                    QrError::LogDecode(format!("bad reason code {}", buf[off + 1]))
                })?;
                let rsw = buf[off + 2];
                off += 3;
                let (icount, n) = varint::read_u64(&buf[off..])?;
                off += n;
                let ts = if self == Encoding::Delta {
                    let (delta, n) = varint::read_i64(&buf[off..])?;
                    off += n;
                    let ts = prev_ts.0 as i64 + delta;
                    if ts < 0 {
                        return Err(QrError::LogDecode("negative timestamp".into()));
                    }
                    ts as u64
                } else {
                    let (ts, n) = varint::read_u64(&buf[off..])?;
                    off += n;
                    ts
                };
                Ok((
                    ChunkPacket {
                        tid: ThreadId(tid as u32),
                        core: CoreId(core),
                        icount,
                        timestamp: Cycle(ts),
                        rsw,
                        reason,
                    },
                    off,
                ))
            }
        }
    }

    /// Identifies the packet encoding of a serialized chunk log from its
    /// stream-header record, without decoding the packets. Returns `None`
    /// when the bytes are not a recognizable chunk log.
    pub fn sniff_container(buf: &[u8]) -> Option<Encoding> {
        let scanned = frame::scan(buf);
        if scanned.kind != Some(PayloadKind::ChunkLog) {
            return None;
        }
        let header = scanned.records.first()?;
        Encoding::parse_stream_header(header, 0).ok().map(|(encoding, _)| encoding)
    }

    /// Encodes a **framed** stream: a crash-consistent container whose
    /// record 0 commits the encoding tag and total packet count, followed
    /// by one CRC-32-protected record per [`FRAME_GROUP_PACKETS`]-packet
    /// group. Groups are independently decodable (`Delta` restarts its
    /// timestamp baseline at each group), which is what makes salvage of
    /// a torn log possible.
    pub fn encode_framed_stream(self, packets: &[ChunkPacket]) -> Vec<u8> {
        let mut writer = frame::Writer::new(PayloadKind::ChunkLog);
        let mut header = vec![self.tag()];
        varint::write_u64(&mut header, packets.len() as u64);
        writer.record(&header);
        for group in packets.chunks(FRAME_GROUP_PACKETS) {
            let mut payload = Vec::with_capacity(group.len() * 8);
            let mut prev = Cycle(0);
            for p in group {
                self.encode_packet(p, prev, &mut payload);
                prev = p.timestamp;
            }
            writer.record(&payload);
        }
        writer.finish()
    }

    /// Strictly decodes a framed stream produced by
    /// [`Encoding::encode_framed_stream`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] (with byte offset) for any frame
    /// fault, checksum mismatch, undecodable packet, or a packet count
    /// differing from the header's commitment (which catches truncation
    /// at exact record boundaries).
    pub fn decode_framed_stream(buf: &[u8]) -> Result<Vec<ChunkPacket>> {
        let salvaged = Encoding::salvage_framed_stream(buf);
        match salvaged.corruption {
            Some(err) => Err(err),
            None => Ok(salvaged.packets),
        }
    }

    /// Tolerantly decodes a framed stream, recovering the longest
    /// complete, checksum-valid packet prefix of a torn or corrupted
    /// log. Never fails: corruption is *described*, not fatal.
    pub fn salvage_framed_stream(buf: &[u8]) -> SalvagedPackets {
        let mut packets = Vec::new();
        let walked = frame::walk(
            buf,
            PayloadKind::ChunkLog,
            "a chunk log",
            Encoding::parse_stream_header,
            |&(encoding, _), group, base| {
                packets.append(&mut encoding.decode_group(group, base)?);
                Ok(())
            },
        );
        let expected = walked.header.map(|(_, count)| count);
        let corruption = walked.corruption.or_else(|| {
            let held = packets.len() as u64;
            expected.filter(|&count| count != held).map(|count| QrError::Corrupt {
                what: "chunk log".into(),
                offset: buf.len() as u64,
                detail: format!("header commits {count} packets but records hold {held}"),
            })
        });
        SalvagedPackets { packets, expected, bytes_dropped: walked.bytes_dropped, corruption }
    }

    /// Parses a framed stream's header record (tag + committed count);
    /// `base` is its byte offset within the container.
    fn parse_stream_header(header: &[u8], base: usize) -> Result<(Encoding, u64)> {
        let mut r = ByteReader::at(header, "chunk log", base);
        let tag = r.u8().map_err(|_| r.corrupt("empty stream header record"))?;
        let encoding = Encoding::from_tag(tag)
            .ok_or_else(|| r.corrupt_at(0, format!("unknown encoding tag {tag}")))?;
        let count = r.varint()?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes in stream header", r.remaining())));
        }
        Ok((encoding, count))
    }

    /// Decodes one packet-group record payload. `base` is the payload's
    /// byte offset within the whole container, used for error context.
    fn decode_group(self, payload: &[u8], base: usize) -> Result<Vec<ChunkPacket>> {
        let mut packets = Vec::new();
        let mut off = 0usize;
        let mut prev = Cycle(0);
        while off < payload.len() {
            let (p, n) = self.decode_packet(&payload[off..], prev).map_err(|e| {
                QrError::Corrupt {
                    what: "chunk packet".into(),
                    offset: (base + off) as u64,
                    detail: e.to_string(),
                }
            })?;
            off += n;
            prev = p.timestamp;
            packets.push(p);
        }
        Ok(packets)
    }
}

/// What [`Encoding::salvage_framed_stream`] recovered from a framed
/// chunk stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedPackets {
    /// The longest complete, checksum-valid packet prefix.
    pub packets: Vec<ChunkPacket>,
    /// Total packet count the stream header committed to, if the header
    /// record itself survived.
    pub expected: Option<u64>,
    /// Container bytes not covered by salvaged records.
    pub bytes_dropped: usize,
    /// What stopped the salvage (`None` for a fully intact stream).
    pub corruption: Option<QrError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packets() -> Vec<ChunkPacket> {
        let mut out = Vec::new();
        let mut ts = 0u64;
        for i in 0..50u32 {
            ts += 3 + (i as u64 % 17);
            out.push(ChunkPacket {
                tid: ThreadId(i % 4),
                core: CoreId((i % 4) as u8),
                icount: (i as u64 * 131) % 5000,
                timestamp: Cycle(ts),
                rsw: (i % 5) as u8,
                reason: TerminationReason::ALL[(i as usize) % TerminationReason::ALL.len()],
            });
        }
        out
    }

    /// One packet group's payload bytes (what a framed record carries).
    fn group_bytes(enc: Encoding, ps: &[ChunkPacket]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = Cycle(0);
        for p in ps {
            enc.encode_packet(p, prev, &mut out);
            prev = p.timestamp;
        }
        out
    }

    #[test]
    fn all_encodings_round_trip() {
        let ps = packets();
        for enc in Encoding::ALL {
            assert_eq!(enc.decode_group(&group_bytes(enc, &ps), 0).unwrap(), ps, "{enc:?} failed");
        }
    }

    #[test]
    fn delta_beats_packed_beats_raw_on_monotonic_streams() {
        let ps = packets();
        let raw = group_bytes(Encoding::Raw, &ps).len();
        let packed = group_bytes(Encoding::Packed, &ps).len();
        let delta = group_bytes(Encoding::Delta, &ps).len();
        assert_eq!(raw, 24 * ps.len(), "raw is exactly 24 bytes per packet");
        assert!(packed < raw, "packed {packed} < raw {raw}");
        assert!(delta < packed, "delta {delta} < packed {packed}");
    }

    #[test]
    fn huge_icounts_round_trip_in_every_encoding() {
        // Chunks longer than u32::MAX instructions must survive encoding;
        // the Raw format used to truncate `icount` to 32 bits silently.
        for icount in [u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX / 3, u64::MAX] {
            let ps = vec![ChunkPacket {
                tid: ThreadId(1),
                core: CoreId(0),
                icount,
                timestamp: Cycle(77),
                rsw: 2,
                reason: TerminationReason::ALL[0],
            }];
            for enc in Encoding::ALL {
                let buf = enc.encode_framed_stream(&ps);
                let back = Encoding::decode_framed_stream(&buf).unwrap();
                assert_eq!(back, ps, "{enc:?} corrupted icount {icount:#x}");
            }
        }
    }

    #[test]
    fn truncated_groups_and_bad_reason_codes_error() {
        let ps = packets();
        for enc in Encoding::ALL {
            let buf = group_bytes(enc, &ps);
            assert!(enc.decode_group(&buf[..buf.len() - 1], 0).is_err(), "{enc:?}");
        }
        let mut buf = group_bytes(Encoding::Raw, &ps[..1]);
        buf[5] = 77; // the reason byte of the first packet
        assert!(Encoding::Raw.decode_group(&buf, 0).is_err());
    }

    /// Enough packets to span several framed groups.
    fn many_packets() -> Vec<ChunkPacket> {
        let mut out = Vec::new();
        let mut ts = 0u64;
        for i in 0..(FRAME_GROUP_PACKETS as u32 * 3 + 7) {
            ts += 2 + (i as u64 % 23);
            out.push(ChunkPacket {
                tid: ThreadId(i % 4),
                core: CoreId((i % 4) as u8),
                icount: (i as u64 * 977) % 40_000,
                timestamp: Cycle(ts),
                rsw: (i % 5) as u8,
                reason: TerminationReason::ALL[(i as usize) % TerminationReason::ALL.len()],
            });
        }
        out
    }

    #[test]
    fn framed_streams_round_trip_across_group_boundaries() {
        let ps = many_packets();
        for enc in Encoding::ALL {
            let buf = enc.encode_framed_stream(&ps);
            assert_eq!(Encoding::decode_framed_stream(&buf).unwrap(), ps, "{enc:?}");
            let salvaged = Encoding::salvage_framed_stream(&buf);
            assert!(salvaged.corruption.is_none());
            assert_eq!(salvaged.expected, Some(ps.len() as u64));
            assert_eq!(salvaged.bytes_dropped, 0);
        }
    }

    #[test]
    fn framed_empty_stream_round_trips() {
        for enc in Encoding::ALL {
            let buf = enc.encode_framed_stream(&[]);
            assert_eq!(Encoding::decode_framed_stream(&buf).unwrap(), vec![]);
        }
    }

    #[test]
    fn torn_or_flipped_streams_are_rejected_and_salvage_whole_leading_groups() {
        // The walk itself is exercised in `qr_common::frame`; this checks
        // what the stream-header parser and the group decoder make of it:
        // strict decode refuses every damaged image, salvage keeps an
        // exact packet prefix in whole groups.
        let ps = many_packets();
        for enc in Encoding::ALL {
            let buf = enc.encode_framed_stream(&ps);
            let damaged = (0..buf.len()).map(|cut| buf[..cut].to_vec()).chain(
                (0..buf.len()).map(|pos| {
                    let mut bad = buf.clone();
                    bad[pos] ^= 1 << (pos % 8);
                    bad
                }),
            );
            for (case, bad) in damaged.enumerate() {
                let err = Encoding::decode_framed_stream(&bad)
                    .expect_err(&format!("{enc:?} case {case} must error"));
                assert!(matches!(err, QrError::Corrupt { .. }), "{enc:?} case {case}: {err}");
                let salvaged = Encoding::salvage_framed_stream(&bad);
                assert_eq!(salvaged.corruption, Some(err), "{enc:?} case {case}");
                assert!(ps.starts_with(&salvaged.packets), "{enc:?} case {case}: non-prefix");
                assert!(
                    salvaged.packets.len().is_multiple_of(FRAME_GROUP_PACKETS),
                    "{enc:?} case {case}: a partial group survived"
                );
            }
            // Damage in the last record keeps every group before it.
            let mut bad = buf.clone();
            *bad.last_mut().unwrap() ^= 0x40;
            let kept = Encoding::salvage_framed_stream(&bad).packets.len();
            assert_eq!(kept, FRAME_GROUP_PACKETS * 3, "{enc:?}");
        }
    }

    #[test]
    fn sniff_container_reads_the_stream_header() {
        let ps = packets();
        for enc in Encoding::ALL {
            assert_eq!(Encoding::sniff_container(&enc.encode_framed_stream(&ps)), Some(enc));
            assert_eq!(Encoding::sniff_container(&enc.encode_framed_stream(&[])), Some(enc));
        }
        assert_eq!(Encoding::sniff_container(&[]), None);
        assert_eq!(Encoding::sniff_container(&[Encoding::Delta.tag(), 1, 2]), None);
        // A framed container of the wrong payload kind is not a chunk log.
        let mut w = frame::Writer::new(PayloadKind::InputLog);
        w.record(&[Encoding::Delta.tag(), 0]);
        assert_eq!(Encoding::sniff_container(&w.finish()), None);
    }

    #[test]
    fn framed_wrong_payload_kind_is_rejected() {
        let mut w = frame::Writer::new(PayloadKind::InputLog);
        w.record(&[Encoding::Delta.tag(), 0]);
        let buf = w.finish();
        let err = Encoding::decode_framed_stream(&buf).unwrap_err();
        assert!(err.to_string().contains("input log"), "{err}");
        assert!(err.to_string().contains("expected a chunk log"), "{err}");
    }

    #[test]
    fn unframed_bytes_are_bad_magic_whatever_their_first_byte() {
        // A v1 stream opens with an encoding tag; nothing routes on it.
        for first in 0..=3u8 {
            let err = Encoding::decode_framed_stream(&[first, 1, 0, 0, 0, 0, 0, 0]).unwrap_err();
            assert!(err.to_string().contains("bad-magic"), "{err}");
            assert!(err.to_string().contains("quickrec migrate"), "{err}");
        }
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use qr_common::SplitMix64;

    fn random_packet(rng: &mut SplitMix64) -> ChunkPacket {
        ChunkPacket {
            tid: ThreadId(rng.below(u16::MAX as u64 + 1) as u32),
            core: CoreId(rng.below(8) as u8),
            // Mix small, u32-range and >u32 instruction counts so every
            // encoding's width handling is exercised.
            icount: match rng.below(3) {
                0 => rng.below(10_000),
                1 => rng.next_u32() as u64,
                _ => rng.next_u64(),
            },
            timestamp: Cycle(rng.next_u32() as u64),
            rsw: rng.next_u64() as u8,
            reason: TerminationReason::ALL[rng.below(TerminationReason::ALL.len() as u64) as usize],
        }
    }

    #[test]
    fn streams_round_trip() {
        let mut rng = SplitMix64::new(0xc0de_0001);
        for _ in 0..256 {
            let n = rng.below(2 * FRAME_GROUP_PACKETS as u64) as usize;
            let ps: Vec<ChunkPacket> = (0..n).map(|_| random_packet(&mut rng)).collect();
            for enc in Encoding::ALL {
                let buf = enc.encode_framed_stream(&ps);
                assert_eq!(Encoding::decode_framed_stream(&buf).unwrap(), ps);
            }
        }
    }

    #[test]
    fn framed_decode_never_panics_on_garbage() {
        let mut rng = SplitMix64::new(0xc0de_0003);
        for _ in 0..4096 {
            let len = rng.below(256) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = Encoding::decode_framed_stream(&bytes);
            let _ = Encoding::sniff_container(&bytes);
            // Bias toward plausible containers: valid magic, random rest.
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(&qr_common::frame::MAGIC);
                let _ = Encoding::decode_framed_stream(&bytes);
                let _ = Encoding::sniff_container(&bytes);
            }
            // And toward plausible packet groups under every codec.
            for enc in Encoding::ALL {
                let _ = enc.decode_group(&bytes, 0);
            }
        }
    }
}
