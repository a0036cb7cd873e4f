//! A dependency-free LZ77-style byte compressor.
//!
//! The store compresses recording logs in independent blocks (see
//! [`crate::block`]); this module is the per-block codec. The format is
//! a plain sequence token stream in the LZ4 spirit, tuned for the framed
//! varint-heavy logs the recorder emits:
//!
//! ```text
//! sequence := lit_len:varint  literal bytes...  [offset:varint  extra:varint]
//! ```
//!
//! Each sequence copies `lit_len` literal bytes, then (unless the output
//! is complete) a back-reference of `MIN_MATCH + extra` bytes starting
//! `offset` bytes behind the write cursor. Offsets are 1-based and may
//! be smaller than the match length (overlapping copies encode runs).
//!
//! **Canonical streams.** Every varint must be minimal
//! ([`qr_common::varint::read_u64_canonical`]); overlong forms are
//! corruption. With that rule, parsing a stream into its token sequence
//! and re-serializing the tokens reproduces the stream byte-for-byte, so
//! no two distinct streams carry the same token sequence — a payload has
//! exactly one encoding per choice of tokens, and [`compress`] picks its
//! tokens deterministically.
//!
//! The decompressor is given the exact uncompressed length and treats
//! every violation — overlong or truncated varint, offset of zero,
//! offset beyond the written prefix, output overrun — as
//! [`QrError::Corrupt`] reported at the *start* of the faulting field.
//! It never panics on arbitrary bytes.
//!
//! **Match finding.** [`compress`] uses a bounded hash-chain matcher
//! ([`MAX_CHAIN`] candidates per position instead of one) with a lazy
//! one-byte lookahead, and extends matches eight bytes per compare.
//! Deeper search costs compress throughput and buys ratio — the
//! [`PATIENCE`], [`NICE_LEN`] and sparse-insert bounds keep that trade
//! at roughly 10–30% smaller output for well under half the greedy
//! matcher's speed deficit a naive chain walk would pay. The original
//! single-candidate greedy matcher survives as [`compress_greedy`], and
//! the byte-copy decompressor as [`decompress_scalar`]: they are the
//! reference paths the differential battery (`hotpath_differential.rs`
//! in `qr-bench`) checks the fast paths against (identical decoded
//! payloads, byte-for-byte).

use qr_common::varint;
use qr_common::{QrError, Result};

/// Shortest back-reference worth encoding (shorter ones cost more than
/// the literals they replace).
pub const MIN_MATCH: usize = 4;

/// Log2 of the match-finder hash-table size.
const HASH_BITS: u32 = 15;

/// Candidates the hash-chain matcher examines per position. The logs
/// are periodic, so chains are long and depth costs linearly in time:
/// 16 (the bottom of the useful 16–64 band) wins within a percent of
/// the depth-64 ratio at a fraction of the walk.
pub const MAX_CHAIN: usize = 16;

/// A match at least this long ends the chain walk early — on the
/// periodic logs nearly every deeper candidate reconfirms the same
/// period, so walking on buys fractions of a percent of ratio for a
/// full re-compare per candidate (deflate's `nice_length` idea).
const NICE_LEN: usize = 48;

/// Matches at least this long skip the lazy one-byte lookahead — a
/// longer match starting one byte later cannot pay for breaking one
/// this long (deflate's level-6 `max_lazy` bound).
const LAZY_CUTOFF: usize = 16;

/// Consecutive quick-reject failures that abandon a chain walk. At a
/// position with no long match the chain holds only hash collisions, so
/// every hop is a dependent cache miss for nothing; giving up after two
/// straight rejects roughly halves compress time on the mixed log
/// corpus for under one percent of ratio.
const PATIENCE: usize = 2;

/// Matches shorter than this get every interior position inserted into
/// the chains; longer matches insert only [`INSERT_TAIL`] positions at
/// each edge. Long matches repeat earlier data, so their interiors are
/// mostly represented by the previous occurrence's entries already.
const DENSE_INSERT_BELOW: usize = 32;

/// Positions inserted at each edge of a long match span. Must comfortably
/// exceed the typical log record period (~8–24 bytes): the next search
/// starts at the span end and finds its best candidates among the most
/// recent period starts, which live in the tail window.
const INSERT_TAIL: usize = 12;

/// Sentinel for "no candidate yet" in the match-finder chains.
const NO_POS: u32 = u32::MAX;

/// Largest input [`compress`] accepts. The match-finder stores byte
/// positions as `u32` (with [`NO_POS`] reserved as the sentinel), so a
/// larger input would silently truncate offsets into wrong — but
/// well-formed — back-references. Block-layer callers compress in
/// [`crate::block::BLOCK_SIZE`] chunks, which a compile-time assertion
/// there ties to this bound.
pub const MAX_INPUT: usize = u32::MAX as usize - 1;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Fibonacci hashing over the next four bytes.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `a` and `b`, capped at `max`, compared
/// eight bytes per step.
#[inline]
fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let mut n = 0;
    while n + 8 <= max {
        let xa = u64::from_le_bytes(a[n..n + 8].try_into().expect("8 bytes"));
        let xb = u64::from_le_bytes(b[n..n + 8].try_into().expect("8 bytes"));
        let diff = xa ^ xb;
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && a[n] == b[n] {
        n += 1;
    }
    n
}

/// Hash-chain match finder: `head[hash]` is the most recent position
/// with that hash, `prev[pos]` chains back to the previous one.
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    fn new(input_len: usize) -> Chains {
        Chains { head: vec![NO_POS; 1 << HASH_BITS], prev: vec![NO_POS; input_len] }
    }

    #[inline]
    fn insert(&mut self, input: &[u8], i: usize) {
        let slot = hash4(&input[i..]);
        self.prev[i] = self.head[slot];
        self.head[slot] = i as u32;
    }

    /// Longest match for position `i` among the first [`MAX_CHAIN`]
    /// chain candidates; ties keep the nearest (first-seen) candidate.
    /// The walk stops early at a [`NICE_LEN`] match, the window end, or
    /// after [`PATIENCE`] consecutive quick-reject failures (a chain of
    /// pure hash collisions is not worth walking).
    fn best_match(&self, input: &[u8], i: usize, max_len: usize) -> Option<(usize, usize)> {
        let mut best_len = MIN_MATCH - 1;
        let mut best_pos = usize::MAX;
        let nice = NICE_LEN.min(max_len);
        let mut misses = 0usize;
        let mut cand = self.head[hash4(&input[i..])];
        for _ in 0..MAX_CHAIN {
            if cand == NO_POS {
                break;
            }
            let c = cand as usize;
            // Quick reject: a longer match must extend past the current
            // best, so the byte at `best_len` has to agree first.
            if input[c + best_len] == input[i + best_len] {
                let len = common_prefix(&input[c..], &input[i..], max_len);
                if len > best_len {
                    best_len = len;
                    best_pos = c;
                    misses = 0;
                    if len >= nice {
                        break;
                    }
                }
            } else {
                misses += 1;
                if misses >= PATIENCE {
                    break;
                }
            }
            cand = self.prev[c];
        }
        (best_len >= MIN_MATCH).then(|| (i - best_pos, best_len))
    }
}

/// Compresses `input` into a fresh buffer.
///
/// Deterministic (same input, same output) and bounded: output never
/// exceeds `input.len() + varint overhead of one all-literal sequence`.
/// The matcher walks bounded hash chains and defers to a strictly
/// longer match one byte ahead (lazy matching), so on the periodic logs
/// the store sees it finds clearly better references than
/// [`compress_greedy`]; the [`PATIENCE`]/[`DENSE_INSERT_BELOW`] speed
/// bounds mean the win is not a per-input guarantee (the ratio tests
/// allow a small adversarial-corpus slack).
///
/// # Panics
///
/// Panics if `input` exceeds [`MAX_INPUT`] — beyond it the `u32`
/// match-finder positions would truncate and emit corrupt streams.
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(input.len() <= MAX_INPUT, "input {} exceeds lz::MAX_INPUT {MAX_INPUT}", input.len());
    let len = input.len();
    let mut out = Vec::with_capacity(len / 2 + 16);
    if len < MIN_MATCH {
        emit_sequence(&mut out, input, None);
        return out;
    }
    let mut chains = Chains::new(len);
    // Positions beyond this lack the four bytes a hash needs.
    let hash_end = len - MIN_MATCH + 1;
    let mut anchor = 0usize; // first literal not yet emitted
    let mut i = 0usize;
    while i < hash_end {
        let found = chains.best_match(input, i, len - i);
        chains.insert(input, i);
        let Some((mut offset, mut match_len)) = found else {
            i += 1;
            continue;
        };
        let mut start = i;
        // Lazy lookahead: if a strictly longer match starts at the next
        // byte, emit input[i] as a literal and take that one instead.
        if match_len < LAZY_CUTOFF && i + 1 < hash_end {
            if let Some((next_offset, next_len)) = chains.best_match(input, i + 1, len - i - 1) {
                if next_len > match_len {
                    start = i + 1;
                    offset = next_offset;
                    match_len = next_len;
                }
            }
        }
        emit_sequence(&mut out, &input[anchor..start], Some((offset, match_len)));
        // Seed the chains with positions the match skipped so later data
        // can reference into it. Long matches repeat data whose interior
        // positions the previous occurrence already chained, so only the
        // span edges are inserted for them.
        let end = start + match_len;
        let stop = end.min(hash_end);
        if match_len < DENSE_INSERT_BELOW {
            for j in i + 1..stop {
                chains.insert(input, j);
            }
        } else {
            for j in i + 1..(i + 1 + INSERT_TAIL).min(stop) {
                chains.insert(input, j);
            }
            for j in stop.saturating_sub(INSERT_TAIL).max(i + 1 + INSERT_TAIL)..stop {
                chains.insert(input, j);
            }
        }
        i = end;
        anchor = end;
    }
    if anchor < len || len == 0 {
        emit_sequence(&mut out, &input[anchor..], None);
    }
    out
}

/// The original single-candidate greedy matcher, kept as the reference
/// path for the fast-vs-slow differential battery and the codec tests:
/// both matchers must produce streams that decompress to the identical
/// payload.
pub fn compress_greedy(input: &[u8]) -> Vec<u8> {
    assert!(input.len() <= MAX_INPUT, "input {} exceeds lz::MAX_INPUT {MAX_INPUT}", input.len());
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![NO_POS; 1 << HASH_BITS];
    let len = input.len();
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= len {
        let slot = hash4(&input[i..]);
        let candidate = table[slot];
        table[slot] = i as u32;
        let c = candidate as usize;
        if candidate == NO_POS || input[c..c + MIN_MATCH] != input[i..i + MIN_MATCH] {
            i += 1;
            continue;
        }
        let mut m = MIN_MATCH;
        while i + m < len && input[c + m] == input[i + m] {
            m += 1;
        }
        emit_sequence(&mut out, &input[anchor..i], Some((i - c, m)));
        let end = i + m;
        i += 1;
        while i < end && i + MIN_MATCH <= len {
            table[hash4(&input[i..])] = i as u32;
            i += 1;
        }
        i = end;
        anchor = end;
    }
    if anchor < len || len == 0 {
        emit_sequence(&mut out, &input[anchor..], None);
    }
    out
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    varint::write_u64(out, literals.len() as u64);
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        varint::write_u64(out, offset as u64);
        varint::write_u64(out, (len - MIN_MATCH) as u64);
    }
}

/// Decompresses a [`compress`] stream into exactly `expected_len` bytes.
///
/// Match copies run eight-plus bytes at a time via
/// `Vec::extend_from_within`; only overlapping copies (`offset <
/// match_len`, i.e. runs) fall back to window-doubling chunked copies.
///
/// # Errors
///
/// Returns [`QrError::Corrupt`] for any malformed input: overlong or
/// truncated varints, truncated literals, zero/out-of-range offsets,
/// output over- or underrun, trailing bytes. The reported offset is the
/// position in the *compressed* stream where the faulting field starts.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    decompress_impl(input, expected_len, true)
}

/// [`decompress`] with the original byte-at-a-time match copies — the
/// reference path the differential battery checks the wide-copy
/// decompressor against. Accepts and rejects exactly the same
/// streams, byte-identical output.
pub fn decompress_scalar(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    decompress_impl(input, expected_len, false)
}

fn decompress_impl(input: &[u8], expected_len: usize, wide: bool) -> Result<Vec<u8>> {
    let corrupt = |off: usize, detail: String| QrError::Corrupt {
        what: "compressed block".into(),
        offset: off as u64,
        detail,
    };
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    loop {
        let lit_field = pos;
        let (lit_len, n) = varint::read_u64_canonical(input.get(pos..).unwrap_or(&[]))
            .map_err(|e| corrupt(lit_field, format!("literal length: {e}")))?;
        pos += n;
        let lit_len = usize::try_from(lit_len)
            .ok()
            .filter(|&l| l <= expected_len - out.len())
            .ok_or_else(|| corrupt(lit_field, "literal run overruns the block".into()))?;
        let lits = input
            .get(pos..pos + lit_len)
            .ok_or_else(|| corrupt(pos, "truncated literal run".into()))?;
        out.extend_from_slice(lits);
        pos += lit_len;
        if out.len() == expected_len {
            break;
        }
        let offset_field = pos;
        let (offset, n) = varint::read_u64_canonical(input.get(pos..).unwrap_or(&[]))
            .map_err(|e| corrupt(offset_field, format!("match offset: {e}")))?;
        pos += n;
        let len_field = pos;
        let (extra, n) = varint::read_u64_canonical(input.get(pos..).unwrap_or(&[]))
            .map_err(|e| corrupt(len_field, format!("match length: {e}")))?;
        pos += n;
        let offset = usize::try_from(offset)
            .ok()
            .filter(|&o| o >= 1 && o <= out.len())
            .ok_or_else(|| {
                corrupt(offset_field, format!("match offset {offset} outside written prefix"))
            })?;
        let match_len = usize::try_from(extra)
            .ok()
            .and_then(|e| e.checked_add(MIN_MATCH))
            .filter(|&m| m <= expected_len - out.len())
            .ok_or_else(|| corrupt(len_field, "match overruns the block".into()))?;
        let start = out.len() - offset;
        if !wide {
            // Reference path: the naive byte loop the wide copies must
            // reproduce exactly (including overlapping runs).
            for k in 0..match_len {
                let byte = out[start + k];
                out.push(byte);
            }
        } else if offset >= match_len {
            // Source and destination cannot overlap: one wide copy.
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping run: replicate the window, doubling the copy
            // span each pass (byte-equivalent to the naive loop).
            let mut remaining = match_len;
            while remaining > 0 {
                let span = remaining.min(out.len() - start);
                out.extend_from_within(start..start + span);
                remaining -= span;
            }
        }
        if out.len() == expected_len {
            break;
        }
    }
    if pos != input.len() {
        return Err(corrupt(pos, format!("{} trailing bytes", input.len() - pos)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_common::SplitMix64;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).expect("roundtrip");
        assert_eq!(back, data);
        // The scalar decompressor is the reference path for the wide
        // copies: byte-identical output on every accepted stream.
        assert_eq!(decompress_scalar(&packed, data.len()).expect("scalar roundtrip"), data);
        // The greedy reference must agree byte-for-byte after decode.
        let greedy = compress_greedy(data);
        assert_eq!(decompress(&greedy, data.len()).expect("greedy roundtrip"), data);
        // The chain matcher's patience/sparse-insert speed bounds allow
        // it to trail greedy slightly on adversarial corpora; cap the
        // loss at ~3% + slack while the periodic-log test pins the win.
        assert!(
            packed.len() <= greedy.len() + greedy.len() / 32 + 16,
            "hash-chain {} should not lose to greedy {} badly",
            packed.len(),
            greedy.len()
        );
        packed
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn runs_compress_via_overlapping_matches() {
        let data = vec![0u8; 10_000];
        let packed = roundtrip(&data);
        assert!(packed.len() < 32, "run of zeros should collapse, got {}", packed.len());
    }

    #[test]
    fn repetitive_structure_compresses() {
        let mut data = Vec::new();
        for i in 0u32..2000 {
            data.extend_from_slice(b"packet:");
            data.extend_from_slice(&(i / 7).to_le_bytes());
        }
        let packed = roundtrip(&data);
        assert!(packed.len() * 2 < data.len(), "{} vs {}", packed.len(), data.len());
    }

    #[test]
    fn hash_chain_beats_greedy_on_periodic_logs() {
        // Periodic structure with interleaved noise: the single-candidate
        // matcher loses its best references to hash collisions, the
        // chained matcher recovers them.
        let mut rng = SplitMix64::new(0xBEA7);
        let mut data = Vec::new();
        for i in 0u32..4000 {
            data.extend_from_slice(b"hdr:");
            data.extend_from_slice(&(i % 13).to_le_bytes());
            data.push(rng.next_u64() as u8);
        }
        let chained = compress(&data);
        let greedy = compress_greedy(&data);
        assert!(
            chained.len() <= greedy.len(),
            "hash-chain {} should not exceed greedy {}",
            chained.len(),
            greedy.len()
        );
        assert_eq!(decompress(&chained, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_expands_only_slightly() {
        let mut rng = SplitMix64::new(7);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let packed = roundtrip(&data);
        assert!(packed.len() <= data.len() + 16);
    }

    #[test]
    fn random_structured_buffers_roundtrip() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for case in 0..200 {
            let len = (rng.below(4096) + 1) as usize;
            let mut data = Vec::with_capacity(len);
            // Mix of runs, copies and noise, like a framed log.
            while data.len() < len {
                match rng.below(3) {
                    0 => {
                        let run = rng.below(64) as usize + 1;
                        let byte = rng.next_u64() as u8;
                        data.extend(std::iter::repeat(byte).take(run));
                    }
                    1 if !data.is_empty() => {
                        let n = (rng.below(64) as usize + 4).min(data.len());
                        let at = rng.below((data.len() - n + 1) as u64) as usize;
                        let copy: Vec<u8> = data[at..at + n].to_vec();
                        data.extend_from_slice(&copy);
                    }
                    _ => data.push(rng.next_u64() as u8),
                }
            }
            data.truncate(len);
            roundtrip(&data);
            let _ = case;
        }
    }

    #[test]
    fn mutated_streams_never_panic() {
        let data: Vec<u8> = (0u16..2048).flat_map(|i| (i / 3).to_le_bytes()).collect();
        let packed = compress(&data);
        let mut rng = SplitMix64::new(42);
        for _ in 0..2000 {
            let mut bad = packed.clone();
            match rng.below(3) {
                0 => {
                    let cut = rng.below(bad.len() as u64 + 1) as usize;
                    bad.truncate(cut);
                }
                1 => {
                    let at = rng.below(bad.len() as u64) as usize;
                    bad[at] ^= 1 << rng.below(8);
                }
                _ => {
                    let at = rng.below(bad.len() as u64) as usize;
                    bad[at] = rng.next_u64() as u8;
                }
            }
            match decompress(&bad, data.len()) {
                Ok(_) => {}
                Err(QrError::Corrupt { .. }) => {}
                Err(other) => panic!("non-structured error: {other}"),
            }
        }
    }

    #[test]
    fn zero_offset_is_rejected() {
        // lit_len=0, offset=0: structurally invalid.
        let err = decompress(&[0, 0, 0], 8).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn corruption_offsets_point_at_the_faulting_field_start() {
        let field_offset = |err: QrError| match err {
            QrError::Corrupt { offset, .. } => offset,
            other => panic!("non-structured error: {other}"),
        };
        // Stream: [lit_len=2 'a' 'b'] [offset extra]. The literal-length
        // varint is byte 0, literals bytes 1..3, offset byte 3, extra
        // byte 4.
        // Literal overrun: lit_len=9 > expected 4; field starts at 0.
        assert_eq!(field_offset(decompress(&[9, 0, 0], 4).unwrap_err()), 0);
        // Out-of-range match offset: field starts at byte 3.
        assert_eq!(field_offset(decompress(&[2, b'a', b'b', 9, 0], 8).unwrap_err()), 3);
        // Match overrun: extra field starts at byte 4 (offset 1 valid,
        // extra 200 overruns an 8-byte block).
        assert_eq!(field_offset(decompress(&[2, b'a', b'b', 1, 200, 1], 8).unwrap_err()), 4);
        // Truncated offset varint: field starts at byte 3.
        assert_eq!(field_offset(decompress(&[2, b'a', b'b', 0x80], 8).unwrap_err()), 3);
        // Truncated literal-length varint at stream start.
        assert_eq!(field_offset(decompress(&[0x80], 8).unwrap_err()), 0);
    }

    #[test]
    fn lengths_near_u64_max_overrun_the_block_instead_of_wrapping() {
        // A literal, then a match (offset 1) of u64::MAX - 4 + MIN_MATCH
        // bytes. A length near u64::MAX must not wrap the overrun check:
        // a wrapped sum lets the run copy double `out` until allocation
        // fails.
        let mut huge_match = vec![1, 0xAA, 1];
        varint::write_u64(&mut huge_match, u64::MAX - 4);
        // A literal and a 4-byte match, then a literal run of u64::MAX.
        let mut huge_literals = vec![1, 0xAA, 1, 0];
        varint::write_u64(&mut huge_literals, u64::MAX);
        for (stream, field) in [(&huge_match, 3), (&huge_literals, 4)] {
            for decode in [decompress, decompress_scalar] {
                match decode(stream, 100) {
                    Err(QrError::Corrupt { offset, detail, .. }) => {
                        assert_eq!(offset, field, "{stream:02x?}");
                        assert!(detail.contains("overruns the block"), "{detail}");
                    }
                    other => panic!("{stream:02x?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn overlong_varints_are_rejected_everywhere() {
        // Canonical stream for "abab|abab...": take a known-good stream
        // and rewrite one varint as its two-byte overlong form.
        let data = b"abcdabcdabcd";
        let packed = compress(data);
        assert!(decompress(&packed, data.len()).is_ok());
        // lit_len 0 encoded as [0x80, 0x00] at the stream head decodes
        // identically under a sloppy reader; the canonical reader must
        // reject it.
        let mut overlong = vec![0x80, 0x00];
        overlong.extend_from_slice(&packed[1..]);
        if packed[0] == 0 {
            assert!(matches!(
                decompress(&overlong, data.len()),
                Err(QrError::Corrupt { offset: 0, .. })
            ));
        }
        // Empty payload: exactly one stream decodes.
        assert!(decompress(&[0x00], 0).is_ok());
        assert!(decompress(&[0x80, 0x00], 0).is_err());
        assert!(decompress(&[0x80, 0x80, 0x00], 0).is_err());
    }

    /// Parses `stream` with the grammar [`decompress`] enforces and
    /// re-serializes its token sequence with minimal varints. A stream is
    /// canonical iff this reproduces it byte-for-byte — which makes
    /// token-sequence → bytes injective, so two distinct accepted streams
    /// always carry genuinely different tokenizations.
    fn reserialize(stream: &[u8], expected_len: usize) -> Option<Vec<u8>> {
        let mut out_len = 0usize;
        let mut pos = 0usize;
        let mut rebuilt = Vec::new();
        loop {
            let (lit_len, n) = varint::read_u64_canonical(stream.get(pos..)?).ok()?;
            let lits = stream.get(pos + n..pos + n + lit_len as usize)?;
            pos += n + lit_len as usize;
            varint::write_u64(&mut rebuilt, lit_len);
            rebuilt.extend_from_slice(lits);
            out_len += lit_len as usize;
            if out_len == expected_len {
                break;
            }
            let (offset, n) = varint::read_u64_canonical(stream.get(pos..)?).ok()?;
            pos += n;
            let (extra, n) = varint::read_u64_canonical(stream.get(pos..)?).ok()?;
            pos += n;
            varint::write_u64(&mut rebuilt, offset);
            varint::write_u64(&mut rebuilt, extra);
            out_len += extra as usize + MIN_MATCH;
            if out_len >= expected_len {
                break;
            }
        }
        Some(rebuilt)
    }

    /// The canonical-stream rule: parsing a valid stream into tokens and
    /// re-serializing the tokens must reproduce the stream byte-for-byte
    /// — distinct accepted streams therefore carry distinct token
    /// sequences, and a payload has exactly one encoding per tokenizer.
    #[test]
    fn accepted_streams_reserialize_identically() {
        let mut rng = SplitMix64::new(0xCA50);
        for _ in 0..100 {
            let len = (rng.below(2048) + 1) as usize;
            let data: Vec<u8> = (0..len).map(|i| (i as u64 * 7 / 9) as u8).collect();
            for packed in [compress(&data), compress_greedy(&data)] {
                assert!(decompress(&packed, data.len()).is_ok());
                assert_eq!(reserialize(&packed, data.len()).as_deref(), Some(&packed[..]));
            }
        }
    }

    /// Brute-force over a small stream space: before the canonical-varint
    /// rule this enumeration found 79 payloads with redundant encodings
    /// (overlong varints — e.g. the empty payload decoded from `[00]`,
    /// `[80 00]`, `[80 80 00]`, …). After it, every accepted stream is
    /// its own re-serialization, so the only multiplicity left is genuine
    /// literal-vs-match tokenization choice (e.g. six zeros as one
    /// literal + a 5-byte run match, or two literals + a 4-byte match).
    #[test]
    fn small_stream_space_has_no_redundant_encodings() {
        const ALPHA: [u8; 6] = [0, 1, 2, 3, 0x80, 0x81];
        let mut decoded: std::collections::HashMap<Vec<u8>, Vec<Vec<u8>>> =
            std::collections::HashMap::new();
        for len in 0..=5usize {
            let mut idx = vec![0usize; len];
            loop {
                let stream: Vec<u8> = idx.iter().map(|&j| ALPHA[j]).collect();
                for out_len in 0..=6usize {
                    if let Ok(out) = decompress(&stream, out_len) {
                        // Canonical: the stream re-serializes to itself.
                        assert_eq!(
                            reserialize(&stream, out_len).as_deref(),
                            Some(&stream[..]),
                            "accepted stream {stream:02x?} is not canonical"
                        );
                        decoded.entry(out).or_default().push(stream.clone());
                    }
                }
                let mut i = 0;
                while i < len {
                    idx[i] += 1;
                    if idx[i] < ALPHA.len() {
                        break;
                    }
                    idx[i] = 0;
                    i += 1;
                }
                if i == len {
                    break;
                }
            }
        }
        assert!(!decoded.is_empty(), "the probe space must contain valid streams");
        // Redundant (non-canonical) encodings are gone; only genuine
        // tokenization variants remain, and each such pair differs in
        // token structure. Pin the counts so a grammar regression shows
        // up as a diff here.
        let ambiguous: Vec<_> = decoded.values().filter(|streams| streams.len() > 1).collect();
        for streams in &ambiguous {
            // All variants must have pairwise-distinct token sequences:
            // canonical streams are injective in tokens, so distinct
            // bytes == distinct tokens.
            let mut uniq = streams.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), streams.len(), "duplicate accepted stream");
        }
        assert!(
            ambiguous.len() <= 8,
            "token-choice ambiguity classes exploded: {} (was 0 redundant + a handful of \
             run-tokenization variants)",
            ambiguous.len()
        );
    }
}
