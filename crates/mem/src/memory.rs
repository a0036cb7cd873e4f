//! Sparse paged flat memory.
//!
//! Holds the architectural memory contents of one address space. Pages are
//! allocated lazily but only inside regions the kernel has explicitly
//! mapped, so wild accesses fault like they would on hardware with paging.

use qr_common::cursor::ByteReader;
use qr_common::varint::write_u64;
use qr_common::{QrError, Result, VirtAddr};
use std::collections::btree_map::{Entry, VacantEntry};
use std::collections::{BTreeMap, BTreeSet};

/// Size of one backing page (simulator granularity, not the guest ABI).
pub const PAGE_BYTES: u32 = 64 * 1024;

/// Granularity of a checkpoint overlay. Guest pages are ~95 % zero and
/// every one of them is dirty between two checkpoints, so page deltas
/// save nothing; 8-byte words do (DESIGN.md, decision 12).
const WORD_BYTES: usize = 8;
const WORDS_PER_PAGE: u64 = PAGE_BYTES as u64 / WORD_BYTES as u64;

/// What an unallocated page reads as.
static ZERO_PAGE: [u8; PAGE_BYTES as usize] = [0; PAGE_BYTES as usize];

/// Appends to `runs` the `(first word, words)` stretches in which two
/// pages differ.
fn differing_runs(page: &[u8], base: &[u8], runs: &mut Vec<(usize, usize)>) {
    let words = page.chunks_exact(WORD_BYTES).zip(base.chunks_exact(WORD_BYTES));
    for (w, (a, b)) in words.enumerate() {
        if a == b {
            continue;
        }
        match runs.last_mut() {
            Some((start, len)) if *start + *len == w => *len += 1,
            _ => runs.push((w, 1)),
        }
    }
}

/// Sparse flat memory with explicit region mapping.
#[derive(Debug, Clone, Default)]
pub struct PagedMemory {
    /// Backing pages, keyed by page number, allocated on first touch.
    pages: BTreeMap<u32, Box<[u8]>>,
    /// Mapped half-open ranges `[start, end)`, coalesced on insert.
    regions: Vec<(u32, u32)>,
}

impl PagedMemory {
    /// Creates an empty memory with no mapped regions.
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    /// Maps `[base, base + len)`, making it readable and writable.
    /// Overlapping or adjacent regions are merged.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] if the range wraps the address
    /// space.
    pub fn map_region(&mut self, base: VirtAddr, len: u32) -> Result<()> {
        let end = base.0.checked_add(len).ok_or_else(|| {
            QrError::InvalidConfig(format!("region {base} + {len:#x} wraps the address space"))
        })?;
        if len == 0 {
            return Ok(());
        }
        self.regions.push((base.0, end));
        self.regions.sort_unstable();
        // Coalesce overlapping/adjacent ranges.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.regions.len());
        for &(s, e) in &self.regions {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => merged.push((s, e)),
            }
        }
        self.regions = merged;
        Ok(())
    }

    /// Whether the whole access `[addr, addr + len)` is mapped.
    pub fn is_mapped(&self, addr: VirtAddr, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let end = match addr.0.checked_add(len) {
            Some(e) => e,
            None => return false,
        };
        self.regions.iter().any(|&(s, e)| s <= addr.0 && end <= e)
    }

    fn check(&self, addr: VirtAddr, len: u32, what: &str) -> Result<()> {
        if self.is_mapped(addr, len) {
            Ok(())
        } else {
            Err(QrError::MemoryFault {
                addr: addr.0,
                detail: format!("{what} of {len} bytes touches unmapped memory"),
            })
        }
    }

    fn page(&mut self, page_num: u32) -> &mut [u8] {
        /// First touch of a page. Out of line so the hit path, which
        /// `write_bytes` takes once per byte, stays small enough to inline.
        #[cold]
        #[inline(never)]
        fn allocate(slot: VacantEntry<'_, u32, Box<[u8]>>) -> &mut [u8] {
            slot.insert(vec![0u8; PAGE_BYTES as usize].into_boxed_slice())
        }
        match self.pages.entry(page_num) {
            Entry::Occupied(page) => page.into_mut(),
            Entry::Vacant(slot) => allocate(slot),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len() as u32, "read")?;
        for (i, slot) in buf.iter_mut().enumerate() {
            let a = addr.0.wrapping_add(i as u32);
            let page_num = a / PAGE_BYTES;
            let off = (a % PAGE_BYTES) as usize;
            *slot = self.pages.get(&page_num).map_or(0, |p| p[off]);
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<()> {
        self.check(addr, data.len() as u32, "write")?;
        for (i, &byte) in data.iter().enumerate() {
            let a = addr.0.wrapping_add(i as u32);
            let page_num = a / PAGE_BYTES;
            let off = (a % PAGE_BYTES) as usize;
            self.page(page_num)[off] = byte;
        }
        Ok(())
    }

    /// Reads a little-endian value of `width` bytes (1, 2 or 4).
    ///
    /// # Errors
    ///
    /// Faults if unmapped.
    pub fn read_uint(&self, addr: VirtAddr, width: u32) -> Result<u32> {
        debug_assert!(matches!(width, 1 | 2 | 4));
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf[..width as usize])?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Faults if unmapped.
    pub fn write_uint(&mut self, addr: VirtAddr, width: u32, value: u32) -> Result<()> {
        debug_assert!(matches!(width, 1 | 2 | 4));
        let bytes = value.to_le_bytes();
        self.write_bytes(addr, &bytes[..width as usize])
    }

    /// Iterates over mapped regions (for fingerprinting), in address order.
    pub fn regions(&self) -> impl Iterator<Item = (VirtAddr, u32)> + '_ {
        self.regions.iter().map(|&(s, e)| (VirtAddr(s), e - s))
    }

    /// Encodes this memory as an overlay on `base`: the mapped regions in
    /// full, then for every page that differs the runs of 8-byte words in
    /// which it does (a page missing on either side counts as zeros).
    /// [`PagedMemory::apply_overlay`] onto a memory holding `base`'s
    /// contents reproduces `self`. The bytes depend only on the two
    /// architectural states (not on which all-zero pages happen to be
    /// allocated), so equal states encode to equal bytes.
    ///
    /// ```text
    /// overlay := regions pages
    /// regions := varint n, n x (u32 start, u32 end)
    /// pages   := varint p, p x (u32 page number, varint r, r x run)
    /// run     := varint gap, varint len, len x 8 bytes
    /// ```
    ///
    /// `gap` and `len` count words; `gap` is the distance from the end of
    /// the previous run (the page start for the first).
    pub(crate) fn encode_overlay(&self, base: &PagedMemory, out: &mut Vec<u8>) {
        write_u64(out, self.regions.len() as u64);
        for &(s, e) in &self.regions {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
        // The page count precedes the pages but is only known after the
        // compare, so the pages are staged.
        let mut pages = 0u64;
        let mut body = Vec::new();
        let mut runs = Vec::new();
        let numbers: BTreeSet<u32> = self.pages.keys().chain(base.pages.keys()).copied().collect();
        for num in numbers {
            let page = self.pages.get(&num).map_or(&ZERO_PAGE[..], |p| p);
            let old = base.pages.get(&num).map_or(&ZERO_PAGE[..], |p| p);
            runs.clear();
            differing_runs(page, old, &mut runs);
            if runs.is_empty() {
                continue;
            }
            pages += 1;
            body.extend_from_slice(&num.to_le_bytes());
            write_u64(&mut body, runs.len() as u64);
            let mut at = 0;
            for &(start, len) in &runs {
                write_u64(&mut body, (start - at) as u64);
                write_u64(&mut body, len as u64);
                body.extend_from_slice(&page[start * WORD_BYTES..(start + len) * WORD_BYTES]);
                at = start + len;
            }
        }
        write_u64(out, pages);
        out.extend_from_slice(&body);
    }

    /// Applies an overlay written by [`PagedMemory::encode_overlay`]:
    /// replaces the mapped regions and writes every run into its page.
    /// `self` must hold the contents the overlay was encoded against.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated or implausible bytes:
    /// regions that are empty, inverted, out of order or overlapping (the
    /// encoder writes the coalesced, sorted list, and everything that
    /// walks `regions` computes `end - start`), a page or run count the
    /// remaining bytes cannot hold, a page outside every mapped region,
    /// and a run that overflows or ends past its page. `self` may be
    /// partially overwritten on error and must be discarded.
    pub(crate) fn apply_overlay(&mut self, r: &mut ByteReader<'_>) -> Result<()> {
        let regions = r.list_count(1 << 20, 8)?;
        self.regions.clear();
        for _ in 0..regions {
            let s = r.u32()?;
            let e = r.u32()?;
            let problem = if s >= e {
                Some("is empty or inverted")
            } else if self.regions.last().is_some_and(|&(_, prev_end)| s < prev_end) {
                Some("is out of order or overlaps its predecessor")
            } else {
                None
            };
            if let Some(problem) = problem {
                return Err(QrError::Corrupt {
                    what: "checkpoint memory regions".into(),
                    offset: r.pos() as u64,
                    detail: format!("region [{s:#x}, {e:#x}) {problem}"),
                });
            }
            self.regions.push((s, e));
        }
        // A page is written only when it has a run, and a run holds at
        // least its two varints and one word.
        const MIN_RUN: usize = 2 + WORD_BYTES;
        const PAGE: u64 = PAGE_BYTES as u64;
        let pages = r.list_count(1 << 20, 4 + 1 + MIN_RUN)?;
        for _ in 0..pages {
            let num = r.u32()?;
            // Stores fault outside the mapped regions, so a page touching
            // none of them never differs from anything; refusing it keeps
            // what a record can allocate within what its regions map.
            let (start, end) = (u64::from(num) * PAGE, (u64::from(num) + 1) * PAGE);
            if !self.regions.iter().any(|&(s, e)| u64::from(s) < end && start < u64::from(e)) {
                return Err(r.corrupt(format!("page {num} lies outside every mapped region")));
            }
            let runs = r.list_count(WORDS_PER_PAGE, MIN_RUN)?;
            let page = self.page(num);
            let mut at = 0u64;
            for _ in 0..runs {
                let (gap, len) = (r.varint()?, r.varint()?);
                let end = at
                    .checked_add(gap)
                    .and_then(|start| start.checked_add(len))
                    .ok_or_else(|| r.corrupt(format!("run gap {gap} + length {len} overflows")))?;
                if end > WORDS_PER_PAGE {
                    return Err(r.corrupt(format!(
                        "run ends at word {end}, past the page end ({WORDS_PER_PAGE} words)"
                    )));
                }
                let bytes = r.bytes(len as usize * WORD_BYTES)?;
                page[(end - len) as usize * WORD_BYTES..end as usize * WORD_BYTES]
                    .copy_from_slice(bytes);
                at = end;
            }
        }
        Ok(())
    }

    /// Hashes the contents of all mapped regions into a fingerprint field.
    pub fn fingerprint_into(&self, fp: &mut qr_common::Fingerprint) {
        for (base, len) in self.regions.iter().map(|&(s, e)| (s, e - s)) {
            fp.u32(base);
            fp.u32(len);
            // Hash page-by-page, using the zero page for untouched pages.
            let mut remaining = len;
            let mut addr = base;
            while remaining > 0 {
                let page_num = addr / PAGE_BYTES;
                let off = (addr % PAGE_BYTES) as usize;
                let take = ((PAGE_BYTES - addr % PAGE_BYTES) as usize).min(remaining as usize);
                match self.pages.get(&page_num) {
                    Some(p) => fp.bytes(&p[off..off + take]),
                    None => fp.bytes(&ZERO_PAGE[..take]),
                };
                addr = addr.wrapping_add(take as u32);
                remaining -= take as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped() -> PagedMemory {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(0x1000), 0x1000).unwrap();
        m
    }

    #[test]
    fn unmapped_access_faults() {
        let m = mapped();
        let mut b = [0u8; 4];
        assert!(m.read_bytes(VirtAddr(0x0), &mut b).is_err());
        assert!(m.read_bytes(VirtAddr(0x2000), &mut b).is_err(), "one past the region");
        assert!(m.read_bytes(VirtAddr(0x1ffd), &mut b).is_err(), "straddles the end");
        assert!(m.read_bytes(VirtAddr(0x1ffc), &mut b).is_ok(), "last word is fine");
    }

    #[test]
    fn zero_length_access_never_faults() {
        let m = PagedMemory::new();
        assert!(m.read_bytes(VirtAddr(0xdead_0000), &mut []).is_ok());
        assert!(m.is_mapped(VirtAddr(0), 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = mapped();
        m.write_uint(VirtAddr(0x1004), 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_uint(VirtAddr(0x1004), 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_uint(VirtAddr(0x1004), 1).unwrap(), 0xef, "little endian");
        assert_eq!(m.read_uint(VirtAddr(0x1006), 2).unwrap(), 0xdead);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let m = mapped();
        assert_eq!(m.read_uint(VirtAddr(0x1800), 4).unwrap(), 0);
    }

    #[test]
    fn regions_coalesce() {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(0x1000), 0x1000).unwrap();
        m.map_region(VirtAddr(0x2000), 0x1000).unwrap(); // adjacent
        m.map_region(VirtAddr(0x1800), 0x100).unwrap(); // contained
        let regions: Vec<_> = m.regions().collect();
        assert_eq!(regions, vec![(VirtAddr(0x1000), 0x2000)]);
        assert!(m.is_mapped(VirtAddr(0x1fff), 2), "access across former boundary");
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(PAGE_BYTES - 8), 16).unwrap();
        let addr = VirtAddr(PAGE_BYTES - 2);
        m.write_uint(addr, 4, 0x1122_3344).unwrap();
        assert_eq!(m.read_uint(addr, 4).unwrap(), 0x1122_3344);
    }

    #[test]
    fn wrap_around_mapping_is_rejected() {
        let mut m = PagedMemory::new();
        assert!(m.map_region(VirtAddr(0xffff_fff0), 0x20).is_err());
        assert!(!m.is_mapped(VirtAddr(0xffff_fff0), 0x20));
    }

    /// An overlay holding exactly `regions` and no pages.
    fn overlay_of(regions: &[(u32, u32)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_u64(&mut bytes, regions.len() as u64);
        for &(s, e) in regions {
            bytes.extend_from_slice(&s.to_le_bytes());
            bytes.extend_from_slice(&e.to_le_bytes());
        }
        write_u64(&mut bytes, 0);
        bytes
    }

    /// Applies `bytes` onto `base` and requires every byte consumed.
    fn apply(mut base: PagedMemory, bytes: &[u8]) -> Result<PagedMemory> {
        let mut r = ByteReader::new(bytes, "overlay");
        base.apply_overlay(&mut r)?;
        r.finish()?;
        Ok(base)
    }

    /// Asserts a structured rejection whose offset is where the reader
    /// stood after the offending (last) region.
    fn assert_rejected(regions: &[(u32, u32)], needle: &str) {
        match apply(PagedMemory::new(), &overlay_of(regions)) {
            Err(QrError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, 1 + 8 * regions.len() as u64, "{detail}");
                assert!(detail.contains(needle), "{detail}");
            }
            other => panic!("{regions:x?}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn encoded_regions_apply_back() {
        let mut m = mapped();
        m.map_region(VirtAddr(0x4000), 0x100).unwrap();
        let mut bytes = Vec::new();
        m.encode_overlay(&PagedMemory::new(), &mut bytes);
        let back = apply(PagedMemory::new(), &bytes).unwrap();
        assert_eq!(back.regions().collect::<Vec<_>>(), m.regions().collect::<Vec<_>>());
        // Adjacent regions are not what the encoder writes, but harmless.
        assert!(apply(PagedMemory::new(), &overlay_of(&[(0x1000, 0x2000), (0x2000, 0x3000)])).is_ok());
    }

    #[test]
    fn inverted_region_in_overlay_is_rejected() {
        // `end - start` would overflow (debug) or wrap to ~4 GiB (release).
        assert_rejected(&[(0x1000, 0x2000), (0x5000, 0x4000)], "inverted");
    }

    #[test]
    fn empty_region_in_overlay_is_rejected() {
        assert_rejected(&[(0x1000, 0x1000)], "empty");
    }

    #[test]
    fn out_of_order_regions_in_overlay_are_rejected() {
        assert_rejected(&[(0x4000, 0x5000), (0x1000, 0x2000)], "out of order");
    }

    #[test]
    fn overlapping_regions_in_overlay_are_rejected() {
        assert_rejected(&[(0x1000, 0x3000), (0x2000, 0x4000)], "overlaps");
    }

    /// Memory contents by value: `m` with its all-zero pages dropped,
    /// since an allocated-but-zero page equals a missing one everywhere
    /// else too.
    fn contents(m: &PagedMemory) -> PagedMemory {
        let mut m = m.clone();
        m.pages.retain(|_, p| p[..] != ZERO_PAGE[..]);
        m
    }

    impl PartialEq for PagedMemory {
        fn eq(&self, other: &PagedMemory) -> bool {
            (&self.regions, &self.pages) == (&other.regions, &other.pages)
        }
    }

    fn encoded(m: &PagedMemory, base: &PagedMemory) -> Vec<u8> {
        let mut bytes = Vec::new();
        m.encode_overlay(base, &mut bytes);
        bytes
    }

    /// The `(gap, len)` headers of every run of every page, in order.
    fn run_headers(overlay: &[u8]) -> Vec<Vec<(u64, u64)>> {
        let mut r = ByteReader::new(overlay, "overlay");
        for _ in 0..r.varint().unwrap() {
            r.bytes(8).unwrap();
        }
        let pages = r.varint().unwrap();
        let headers = (0..pages).map(|_| {
            r.u32().unwrap();
            (0..r.varint().unwrap())
                .map(|_| {
                    let (gap, len) = (r.varint().unwrap(), r.varint().unwrap());
                    r.bytes(len as usize * WORD_BYTES).unwrap();
                    (gap, len)
                })
                .collect()
        });
        let headers = headers.collect();
        r.finish().unwrap();
        headers
    }

    #[test]
    fn overlay_of_random_memory_on_random_base_reproduces_it() {
        use qr_common::SplitMix64;
        const SPAN: u32 = 4 * PAGE_BYTES;
        let mut rng = SplitMix64::new(0x0e7_1a75);
        for case in 0..40 {
            let mut base = PagedMemory::new();
            base.map_region(VirtAddr(0), SPAN).unwrap();
            // Scattered words and a few dense stretches on three pages;
            // page 3 stays untouched on the base side.
            for _ in 0..rng.below(40) {
                let addr = rng.below(u64::from(3 * PAGE_BYTES) / 4) as u32 * 4;
                base.write_uint(VirtAddr(addr), 4, rng.next_u64() as u32 | 1).unwrap();
            }
            let mut m = base.clone();
            m.map_region(VirtAddr(SPAN), 0x40 * (case + 1)).unwrap();
            for _ in 0..rng.below(60) {
                let addr = rng.below(u64::from(SPAN) - 64) as u32;
                let len = 1 + rng.below(64) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                // Page 1 is kept identical on both sides.
                if addr / PAGE_BYTES != 1 && (addr + 64) / PAGE_BYTES != 1 {
                    m.write_bytes(VirtAddr(addr), &bytes).unwrap();
                }
            }
            // Always present: the last word of a page, and a page only
            // `m` has.
            m.write_uint(VirtAddr(PAGE_BYTES - 4), 4, 0xfeed_f00d).unwrap();
            m.write_uint(VirtAddr(3 * PAGE_BYTES + 8 * case), 4, 7).unwrap();

            let bytes = encoded(&m, &base);
            let back = apply(base.clone(), &bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(contents(&back), contents(&m), "case {case}");
            assert_eq!(encoded(&back, &base), bytes, "case {case}: equal states, equal bytes");
            assert_eq!(encoded(&m, &m), overlay_of(&m.regions), "case {case}: no runs against itself");
        }
    }

    #[test]
    fn runs_are_word_granular_merge_when_adjacent_and_skip_equal_pages() {
        let mut base = PagedMemory::new();
        base.map_region(VirtAddr(0), 3 * PAGE_BYTES).unwrap();
        base.write_uint(VirtAddr(PAGE_BYTES + 0x100), 4, 9).unwrap(); // page 1: same on both sides
        base.write_uint(VirtAddr(2 * PAGE_BYTES), 4, 5).unwrap(); // page 2: only the base has it
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(0), 3 * PAGE_BYTES).unwrap();
        m.write_uint(VirtAddr(PAGE_BYTES + 0x100), 4, 9).unwrap();
        for word in [2, 3, 5, 8, WORDS_PER_PAGE as u32 - 1] {
            m.write_uint(VirtAddr(word * 8 + 1), 1, 0xaa).unwrap(); // one byte dirties its word
        }
        let bytes = encoded(&m, &base);
        // Words 2 and 3 share a run, 5 and 8 stand alone (an equal word
        // costs more than a run header), the last word ends on the page
        // boundary; page 1 is absent; page 2 is one run of zeros.
        assert_eq!(
            run_headers(&bytes),
            vec![vec![(2, 2), (1, 1), (2, 1), (WORDS_PER_PAGE - 10, 1)], vec![(0, 1)]]
        );
        let back = apply(base, &bytes).unwrap();
        assert_eq!(contents(&back), contents(&m));
        assert_eq!(back.read_uint(VirtAddr(2 * PAGE_BYTES), 4).unwrap(), 0);
    }

    /// An overlay mapping page 7 alone and holding one run header
    /// `(gap, len)` followed by `data` on it.
    fn one_run(gap: u64, len: u64, data: &[u8]) -> Vec<u8> {
        let mut bytes = overlay_of(&[(7 * PAGE_BYTES, 8 * PAGE_BYTES)]);
        bytes.pop(); // the page count
        bytes.extend_from_slice(&[1, 7, 0, 0, 0, 1]);
        write_u64(&mut bytes, gap);
        write_u64(&mut bytes, len);
        bytes.extend_from_slice(data);
        bytes
    }

    fn assert_overlay_rejected(bytes: &[u8], needle: &str) {
        match apply(PagedMemory::new(), bytes) {
            Err(QrError::Corrupt { detail, .. }) => assert!(detail.contains(needle), "{detail}"),
            other => panic!("expected Corrupt containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn hostile_runs_and_counts_are_rejected() {
        // A well-formed run on the last word is fine...
        assert!(apply(PagedMemory::new(), &one_run(WORDS_PER_PAGE - 1, 1, &[1; 8])).is_ok());
        // ...one word further is past the page end, however the sum is
        // split between gap and length.
        assert_overlay_rejected(&one_run(WORDS_PER_PAGE, 1, &[1; 8]), "past the page end");
        assert_overlay_rejected(&one_run(WORDS_PER_PAGE - 1, 2, &[1; 16]), "past the page end");
        assert_overlay_rejected(&one_run(u64::MAX, 2, &[1; 16]), "overflows");
        assert_overlay_rejected(&one_run(1, u64::MAX, &[1; 16]), "overflows");
        // Counts larger than the bytes behind them, before any page is
        // allocated: 2^20 pages, then 8192 runs, with 16 bytes left.
        let mut pages = vec![0];
        write_u64(&mut pages, 1 << 20);
        pages.extend_from_slice(&[0; 16]);
        assert_overlay_rejected(&pages, "implausible count 1048576");
        let mut runs = one_run(0, 0, &[]);
        runs.truncate(runs.len() - 3); // the run count and header
        write_u64(&mut runs, WORDS_PER_PAGE);
        runs.extend_from_slice(&[0; 16]);
        assert_overlay_rejected(&runs, "implausible count 8192");
        // A page no region maps (here: its neighbours), before it is
        // allocated — a record allocates no more than its regions span.
        for page in [6u8, 8] {
            let mut unmapped = one_run(0, 1, &[1; 8]);
            unmapped[10] = page;
            assert_overlay_rejected(&unmapped, "outside every mapped region");
        }
        // A run whose data is cut short.
        assert_overlay_rejected(&one_run(0, 2, &[1; 15]), "need 16 bytes");
    }

    #[test]
    fn fingerprint_detects_changes_and_ignores_page_allocation() {
        let mut a = mapped();
        let mut b = mapped();
        // Touching a page with a zero write must not change the digest.
        b.write_uint(VirtAddr(0x1100), 4, 0).unwrap();
        let digest = |m: &PagedMemory| {
            let mut fp = qr_common::Fingerprint::new();
            m.fingerprint_into(&mut fp);
            fp.digest()
        };
        assert_eq!(digest(&a), digest(&b));
        a.write_uint(VirtAddr(0x1100), 4, 7).unwrap();
        assert_ne!(digest(&a), digest(&b));
    }
}
