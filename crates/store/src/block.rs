//! Block-compressed log container with a per-block index.
//!
//! A compressed log is a framed container ([`PayloadKind::CompressedLog`])
//! whose record 0 is the **block index** and whose remaining records are
//! the compressed blocks, in order:
//!
//! ```text
//! record 0:  format version · block size · total length · block count ·
//!            per block { uncompressed len · compressed len · CRC-32 of
//!            the uncompressed bytes }
//! record 1..=count:  method byte (0 = stored, 1 = LZ) + block payload
//! ```
//!
//! Three integrity layers compose: the frame's per-record CRC catches
//! torn or flipped *compressed* bytes, the index's per-block CRC catches
//! decoder divergence on the *uncompressed* bytes, and the layer above
//! (the recording log decoders) re-checks everything semantically. A
//! block whose frame record is intact decompresses independently of its
//! neighbours, which is what gives [`salvage`] its longest-valid-prefix
//! guarantee.

use crate::lz;
use qr_common::frame::{self, PayloadKind};
use qr_common::{crc32, varint, QrError, Result};

/// Default uncompressed block size. Small enough that checkpointed
/// replay touching one region decompresses little, large enough that the
/// LZ window finds the logs' periodic structure.
pub const BLOCK_SIZE: usize = 32 * 1024;

// The LZ match finder stores positions as `u32`; a block-size bump past
// that bound would silently truncate match offsets. Fail the build
// instead (`compress_with_block_size` re-checks its runtime argument).
const _: () = assert!(BLOCK_SIZE <= lz::MAX_INPUT, "BLOCK_SIZE exceeds the LZ u32 offset bound");

/// Index format version.
pub const INDEX_VERSION: u64 = 1;

const METHOD_STORED: u8 = 0;
const METHOD_LZ: u8 = 1;

/// What the store knows about one compressed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Uncompressed payload length.
    pub uncompressed_len: u32,
    /// Stored record-payload length (method byte + compressed bytes).
    pub stored_len: u32,
    /// CRC-32 of the uncompressed bytes.
    pub crc: u32,
}

/// Parsed block index (record 0 of the container).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    /// Uncompressed block size used by the writer.
    pub block_size: u64,
    /// Total uncompressed length.
    pub total_len: u64,
    /// Per-block metadata, in order.
    pub blocks: Vec<BlockEntry>,
}

fn corrupt(offset: u64, detail: String) -> QrError {
    QrError::Corrupt { what: "compressed log".into(), offset, detail }
}

/// Compresses `data` into a framed block container with [`BLOCK_SIZE`]
/// blocks.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_block_size(data, BLOCK_SIZE)
}

/// [`compress`] with an explicit block size (tests and tuning).
///
/// Blocks where LZ does not win are stored raw, so the container never
/// expands its input by more than the index overhead.
pub fn compress_with_block_size(data: &[u8], block_size: usize) -> Vec<u8> {
    assert!(block_size > 0, "block size must be positive");
    assert!(block_size <= lz::MAX_INPUT, "block size exceeds the LZ u32 offset bound");
    let start = crate::obs::clock();
    let blocks: Vec<&[u8]> = data.chunks(block_size).collect();
    let mut payloads = Vec::with_capacity(blocks.len());
    let mut index = Vec::new();
    varint::write_u64(&mut index, INDEX_VERSION);
    varint::write_u64(&mut index, block_size as u64);
    varint::write_u64(&mut index, data.len() as u64);
    varint::write_u64(&mut index, blocks.len() as u64);
    for block in &blocks {
        let packed = lz::compress(block);
        let mut payload = Vec::with_capacity(packed.len().min(block.len()) + 1);
        if packed.len() < block.len() {
            payload.push(METHOD_LZ);
            payload.extend_from_slice(&packed);
        } else {
            payload.push(METHOD_STORED);
            payload.extend_from_slice(block);
        }
        varint::write_u64(&mut index, block.len() as u64);
        varint::write_u64(&mut index, payload.len() as u64);
        index.extend_from_slice(&crc32::checksum(block).to_le_bytes());
        payloads.push(payload);
    }
    let mut w = frame::Writer::new(PayloadKind::CompressedLog);
    w.record(&index);
    for payload in &payloads {
        w.record(payload);
    }
    let out = w.finish();
    crate::obs::encoded(start, data.len(), out.len());
    out
}

/// Parses record 0 of `payload` (the index record's bytes).
fn parse_index(payload: &[u8]) -> Result<BlockIndex> {
    let base = (frame::HEADER_LEN + 4) as u64; // index payload's file offset
    let mut off = 0usize;
    let mut next = |what: &str| -> Result<u64> {
        let (v, n) = varint::read_u64_canonical(payload.get(off..).unwrap_or(&[]))
            .map_err(|e| corrupt(base + off as u64, format!("index {what}: {e}")))?;
        off += n;
        Ok(v)
    };
    let version = next("version")?;
    if version != INDEX_VERSION {
        return Err(corrupt(base, format!("unsupported index version {version}")));
    }
    let block_size = next("block size")?;
    let total_len = next("total length")?;
    let count = next("block count")?;
    if count > total_len.max(1) {
        // Each block holds at least one byte (except a single empty log).
        return Err(corrupt(base, format!("{count} blocks cannot cover {total_len} bytes")));
    }
    drop(next);
    let mut blocks = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut covered = 0u64;
    for _ in 0..count {
        let mut next = |what: &str| -> Result<u64> {
            let (v, n) = varint::read_u64_canonical(payload.get(off..).unwrap_or(&[]))
                .map_err(|e| corrupt(base + off as u64, format!("index {what}: {e}")))?;
            off += n;
            Ok(v)
        };
        let uncompressed_len = next("block length")?;
        let stored_len = next("stored length")?;
        let crc_bytes = payload
            .get(off..off + 4)
            .ok_or_else(|| corrupt(base + off as u64, "truncated block crc".into()))?;
        off += 4;
        if uncompressed_len > block_size || uncompressed_len == 0 && total_len != 0 {
            return Err(corrupt(base, format!("block length {uncompressed_len} out of range")));
        }
        covered = covered
            .checked_add(uncompressed_len)
            .ok_or_else(|| corrupt(base, "block lengths overflow".into()))?;
        blocks.push(BlockEntry {
            uncompressed_len: uncompressed_len as u32,
            stored_len: u32::try_from(stored_len)
                .map_err(|_| corrupt(base, "stored length out of range".into()))?,
            crc: u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")),
        });
    }
    if off != payload.len() {
        return Err(corrupt(base + off as u64, "trailing index bytes".into()));
    }
    if covered != total_len {
        return Err(corrupt(
            base,
            format!("blocks cover {covered} bytes, index claims {total_len}"),
        ));
    }
    Ok(BlockIndex { block_size, total_len, blocks })
}

/// Reads the block index without touching any block.
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for any container or index damage.
pub fn read_index(buf: &[u8]) -> Result<BlockIndex> {
    read_container(buf).map(|(index, _)| index)
}

/// Strictly parses a container in one pass over its bytes: the index
/// plus the block records it describes, count and stored lengths checked
/// against each other.
fn read_container(buf: &[u8]) -> Result<(BlockIndex, Vec<&[u8]>)> {
    let records = frame::read(buf, PayloadKind::CompressedLog, "compressed log")?;
    let Some((index_payload, blocks)) = records.split_first() else {
        return Err(corrupt(frame::HEADER_LEN as u64, "missing index record".into()));
    };
    let index = parse_index(index_payload)?;
    if blocks.len() != index.blocks.len() {
        return Err(corrupt(
            frame::HEADER_LEN as u64,
            format!("index lists {} blocks, container holds {}", index.blocks.len(), blocks.len()),
        ));
    }
    for (i, (entry, rec)) in index.blocks.iter().zip(blocks).enumerate() {
        if rec.len() != entry.stored_len as usize {
            return Err(corrupt(
                frame::HEADER_LEN as u64,
                format!("block {i} stored length {} != index {}", rec.len(), entry.stored_len),
            ));
        }
    }
    Ok((index, blocks.to_vec()))
}

/// Decompresses one block record payload (method byte + data).
fn decompress_block(payload: &[u8], entry: &BlockEntry, i: usize) -> Result<Vec<u8>> {
    let (&method, data) = payload
        .split_first()
        .ok_or_else(|| corrupt(0, format!("block {i}: empty record")))?;
    let bytes = match method {
        METHOD_STORED => {
            if data.len() != entry.uncompressed_len as usize {
                return Err(corrupt(
                    0,
                    format!("block {i}: stored length {} != {}", data.len(), entry.uncompressed_len),
                ));
            }
            data.to_vec()
        }
        METHOD_LZ => lz::decompress(data, entry.uncompressed_len as usize)
            .map_err(|e| corrupt(0, format!("block {i}: {e}")))?,
        other => return Err(corrupt(0, format!("block {i}: unknown method {other}"))),
    };
    if crc32::checksum(&bytes) != entry.crc {
        return Err(corrupt(0, format!("block {i}: uncompressed crc mismatch")));
    }
    Ok(bytes)
}

/// Strictly decompresses a whole container.
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for any frame, index or block damage.
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let start = crate::obs::clock();
    let (index, blocks) = read_container(buf)?;
    let mut out = Vec::with_capacity(index.total_len as usize);
    for (i, (entry, rec)) in index.blocks.iter().zip(&blocks).enumerate() {
        out.extend_from_slice(&decompress_block(rec, entry, i)?);
    }
    crate::obs::decoded(start);
    Ok(out)
}

/// What [`salvage`] recovered from a damaged container.
#[derive(Debug, Clone)]
pub struct BlockSalvage {
    /// The longest CRC-valid uncompressed prefix.
    pub bytes: Vec<u8>,
    /// Blocks recovered intact.
    pub blocks_recovered: usize,
    /// Blocks the index promised (0 when the index itself was lost).
    pub blocks_total: usize,
    /// The first fault encountered, if any.
    pub fault: Option<QrError>,
}

/// Tolerant read: recovers the longest valid prefix of a torn or
/// corrupted container, so a damaged store entry drops into the
/// recording layer's existing salvage path instead of failing hard.
///
/// The prefix guarantee: every returned byte passed both the frame CRC
/// (compressed) and the index CRC (uncompressed) for its position, so
/// `bytes` is a prefix of the original log unless CRC-32 itself was
/// defeated.
pub fn salvage(buf: &[u8]) -> BlockSalvage {
    let s = salvage_inner(buf);
    crate::obs::salvaged(s.fault.is_some(), s.blocks_recovered, s.blocks_total);
    s
}

fn salvage_inner(buf: &[u8]) -> BlockSalvage {
    let scanned = frame::scan(buf);
    let mut fault: Option<QrError> =
        scanned.fault.map(|f| f.to_error("compressed log"));
    if fault.is_none() && scanned.kind != Some(PayloadKind::CompressedLog) {
        let name = scanned.kind.map_or("unknown payload", PayloadKind::name);
        fault = Some(corrupt(5, format!("container holds a {name}, expected a compressed log")));
    }
    let Some((index_payload, blocks)) = scanned.records.split_first() else {
        return BlockSalvage {
            bytes: Vec::new(),
            blocks_recovered: 0,
            blocks_total: 0,
            fault: fault.or_else(|| Some(corrupt(frame::HEADER_LEN as u64, "missing index record".into()))),
        };
    };
    let index = match parse_index(index_payload) {
        Ok(index) => index,
        Err(e) => {
            return BlockSalvage {
                bytes: Vec::new(),
                blocks_recovered: 0,
                blocks_total: 0,
                fault: Some(e),
            }
        }
    };
    let mut out = Vec::new();
    let mut recovered = 0usize;
    for (i, entry) in index.blocks.iter().enumerate() {
        let Some(rec) = blocks.get(i) else {
            fault.get_or_insert_with(|| {
                corrupt(scanned.valid_len as u64, format!("container torn at block {i}"))
            });
            break;
        };
        match decompress_block(rec, entry, i) {
            Ok(bytes) => {
                out.extend_from_slice(&bytes);
                recovered += 1;
            }
            Err(e) => {
                fault.get_or_insert(e);
                break;
            }
        }
    }
    if fault.is_none() && blocks.len() > index.blocks.len() {
        fault = Some(corrupt(
            scanned.valid_len as u64,
            format!("{} records beyond the indexed blocks", blocks.len() - index.blocks.len()),
        ));
    }
    BlockSalvage { bytes: out, blocks_recovered: recovered, blocks_total: index.blocks.len(), fault }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::SplitMix64;

    fn sample(len: usize) -> Vec<u8> {
        // Periodic structure with noise, like a framed log.
        let mut rng = SplitMix64::new(len as u64 + 1);
        (0..len)
            .map(|i| if i % 7 == 0 { rng.next_u64() as u8 } else { (i / 11) as u8 })
            .collect()
    }

    #[test]
    fn roundtrip_across_sizes() {
        for len in [0usize, 1, 100, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 17]
        {
            let data = sample(len);
            let packed = compress(&data);
            assert_eq!(decompress(&packed).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn index_reports_geometry() {
        let data = sample(3 * BLOCK_SIZE + 17);
        let packed = compress(&data);
        let index = read_index(&packed).unwrap();
        assert_eq!(index.total_len, data.len() as u64);
        assert_eq!(index.blocks.len(), 4);
        assert_eq!(index.blocks[3].uncompressed_len, 17);
    }

    #[test]
    fn torn_container_salvages_a_prefix() {
        let data = sample(4 * BLOCK_SIZE);
        let packed = compress(&data);
        // Cut in the middle of the last block's record.
        let cut = packed.len() - BLOCK_SIZE / 4;
        let s = salvage(&packed[..cut]);
        assert!(s.fault.is_some());
        assert_eq!(s.blocks_total, 4);
        assert!(s.blocks_recovered < 4);
        assert_eq!(s.bytes, data[..s.bytes.len()]);
        assert_eq!(s.bytes.len(), s.blocks_recovered * BLOCK_SIZE);
    }

    #[test]
    fn clean_container_salvages_whole() {
        let data = sample(2 * BLOCK_SIZE + 5);
        let s = salvage(&compress(&data));
        assert!(s.fault.is_none(), "{:?}", s.fault);
        assert_eq!(s.bytes, data);
        assert_eq!(s.blocks_recovered, 3);
    }

    #[test]
    fn flipped_block_byte_stops_the_prefix_there() {
        let data = sample(3 * BLOCK_SIZE);
        let mut packed = compress(&data);
        // Flip a byte in the second block's record payload. Find it via
        // the frame scan record spans: record 1 is block 0.
        let scanned = frame::scan(&packed);
        let block1 = scanned.records[2].as_ptr() as usize - packed.as_ptr() as usize;
        packed[block1 + 2] ^= 0x40;
        let s = salvage(&packed);
        assert_eq!(s.blocks_recovered, 1);
        assert_eq!(s.bytes, data[..BLOCK_SIZE]);
        assert!(s.fault.is_some());
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn wrong_kind_is_rejected_and_salvages_empty() {
        let mut w = frame::Writer::new(PayloadKind::ChunkLog);
        w.record(b"zz");
        let buf = w.finish();
        assert!(decompress(&buf).is_err());
        let s = salvage(&buf);
        assert!(s.bytes.is_empty());
        assert!(s.fault.is_some());
    }

    #[test]
    fn incompressible_blocks_fall_back_to_stored() {
        let mut rng = SplitMix64::new(3);
        let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|_| rng.next_u64() as u8).collect();
        let packed = compress(&data);
        // Container must not blow up: index + method bytes + frame overhead only.
        assert!(packed.len() < data.len() + 256, "{} vs {}", packed.len(), data.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
