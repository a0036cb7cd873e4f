//! CRC-32 (IEEE 802.3) checksums for on-disk log integrity.
//!
//! Recording logs are written while the recorded process is still
//! running, so a crash can tear them at any byte. Every framed record
//! (see [`crate::frame`]) carries a CRC-32 trailer so the loader can
//! distinguish a complete record from a torn or bit-flipped one. The
//! polynomial is the reflected IEEE polynomial `0xEDB88320` — the same
//! one used by zlib, PNG and Ethernet — so the values are easy to
//! cross-check with external tooling.
//!
//! # Hot-path implementation
//!
//! Every recorded byte crosses this module twice (once when the frame
//! writer appends a record trailer, once when the scanner re-checks it),
//! so [`Hasher::update`] uses the *slice-by-8* technique: eight 256-entry
//! tables, built at compile time, fold eight input bytes into the state
//! per step instead of one. The classic one-table byte loop is kept as
//! [`Hasher::update_scalar`]/[`checksum_scalar`] — it is the reference
//! path the differential battery (`hotpath_differential.rs` in
//! `qr-bench`) checks the fast path against, and it handles the
//! under-8-byte tail.
//!
//! # Example
//!
//! ```
//! use qr_common::crc32;
//!
//! assert_eq!(crc32::checksum(b"123456789"), 0xCBF4_3926);
//! ```

/// Reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so XOR-ing one lane
/// per input byte advances the state eight bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` in one call.
pub fn checksum(data: &[u8]) -> u32 {
    let mut hasher = Hasher::new();
    hasher.update(data);
    hasher.finalize()
}

/// CRC-32 of `data` via the scalar reference path (one table, one byte
/// per step). Exists so tests and benchmarks can prove the slice-by-8
/// path computes identical values; production callers use [`checksum`].
pub fn checksum_scalar(data: &[u8]) -> u32 {
    let mut hasher = Hasher::new();
    hasher.update_scalar(data);
    hasher.finalize()
}

/// Incremental CRC-32 state, for checksumming data produced in pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Creates a fresh hasher.
    pub fn new() -> Hasher {
        Hasher { state: !0 }
    }

    /// Absorbs `data`, eight bytes per table step.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xff) as usize]
                ^ TABLES[2][((hi >> 8) & 0xff) as usize]
                ^ TABLES[1][((hi >> 16) & 0xff) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        self.state = state;
        self.update_scalar(chunks.remainder());
    }

    /// Absorbs `data` one byte at a time — the reference implementation
    /// the fast path is differentially tested against, and the tail loop
    /// for inputs not a multiple of eight bytes.
    pub fn update_scalar(&mut self, data: &[u8]) {
        for &byte in data {
            let idx = ((self.state ^ byte as u32) & 0xff) as usize;
            self.state = (self.state >> 8) ^ TABLES[0][idx];
        }
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values (cross-checked with zlib).
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(checksum(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn scalar_reference_matches_known_vectors() {
        assert_eq!(checksum_scalar(b""), 0);
        assert_eq!(checksum_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum_scalar(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_matches_scalar_on_every_length() {
        // Every length 0..=64 hits a different head/tail split of the
        // 8-byte fast loop.
        let mut rng = SplitMix64::new(0x51ce_8);
        let data: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(checksum(&data[..len]), checksum_scalar(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn slice_by_8_matches_scalar_on_random_corpora() {
        let mut rng = SplitMix64::new(0xD1FF_0001);
        for case in 0..200 {
            let len = rng.below(4096) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(checksum(&data), checksum_scalar(&data), "case {case} len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"split across several update calls";
        for cut in 0..data.len() {
            let mut h = Hasher::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), checksum(data), "cut at {cut}");
        }
    }

    #[test]
    fn incremental_mixed_fast_and_scalar_updates_agree() {
        let mut rng = SplitMix64::new(0xD1FF_0002);
        let data: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..50 {
            let mut fast = Hasher::new();
            let mut slow = Hasher::new();
            let mut off = 0usize;
            while off < data.len() {
                let n = (rng.below(96) as usize + 1).min(data.len() - off);
                fast.update(&data[off..off + n]);
                slow.update_scalar(&data[off..off + n]);
                off += n;
            }
            assert_eq!(fast.finalize(), slow.finalize());
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0..=255u8).collect();
        let clean = checksum(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(checksum(&flipped), clean, "flip at byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn detects_transpositions_and_zero_fill() {
        let data = b"abcdefgh".to_vec();
        let clean = checksum(&data);
        let mut swapped = data.clone();
        swapped.swap(2, 5);
        assert_ne!(checksum(&swapped), clean);
        let zeroed = vec![0u8; data.len()];
        assert_ne!(checksum(&zeroed), clean);
    }
}
