//! Sparse paged flat memory.
//!
//! Holds the architectural memory contents of one address space. Pages are
//! allocated lazily but only inside regions the kernel has explicitly
//! mapped, so wild accesses fault like they would on hardware with paging.

use qr_common::{QrError, Result, VirtAddr};
use std::collections::BTreeMap;

/// Size of one backing page (simulator granularity, not the guest ABI).
pub const PAGE_BYTES: u32 = 64 * 1024;

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
        self.pages
            .entry(page_num)
            .or_insert_with(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice())
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

    /// Serializes regions and allocated pages (checkpoint snapshots).
    /// Page order is the `BTreeMap` key order, so the bytes are a
    /// deterministic function of the architectural state.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        qr_common::varint::write_u64(out, self.regions.len() as u64);
        for &(s, e) in &self.regions {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
        qr_common::varint::write_u64(out, self.pages.len() as u64);
        for (&num, page) in &self.pages {
            out.extend_from_slice(&num.to_le_bytes());
            out.extend_from_slice(page);
        }
    }

    /// Inverse of [`PagedMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated or implausible bytes,
    /// including regions that are empty, inverted, out of order or
    /// overlapping — `save_state` writes the coalesced, sorted list, and
    /// everything that walks `regions` computes `end - start`.
    pub(crate) fn load_state(r: &mut qr_common::cursor::ByteReader<'_>) -> Result<PagedMemory> {
        let mut mem = PagedMemory::new();
        let regions = r.count(1 << 20)?;
        for _ in 0..regions {
            let s = r.u32()?;
            let e = r.u32()?;
            let problem = if s >= e {
                Some("is empty or inverted")
            } else if mem.regions.last().is_some_and(|&(_, prev_end)| s < prev_end) {
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
            mem.regions.push((s, e));
        }
        let pages = r.count(1 << 20)?;
        for _ in 0..pages {
            let num = r.u32()?;
            let bytes = r.bytes(PAGE_BYTES as usize)?;
            mem.pages.insert(num, bytes.to_vec().into_boxed_slice());
        }
        Ok(mem)
    }

    /// Hashes the contents of all mapped regions into a fingerprint field.
    pub fn fingerprint_into(&self, fp: &mut qr_common::Fingerprint) {
        for (base, len) in self.regions.iter().map(|&(s, e)| (s, e - s)) {
            fp.u32(base);
            fp.u32(len);
            // Hash page-by-page, using the zero page for untouched pages.
            let mut remaining = len;
            let mut addr = base;
            let zero = [0u8; PAGE_BYTES as usize];
            while remaining > 0 {
                let page_num = addr / PAGE_BYTES;
                let off = (addr % PAGE_BYTES) as usize;
                let take = ((PAGE_BYTES - addr % PAGE_BYTES) as usize).min(remaining as usize);
                match self.pages.get(&page_num) {
                    Some(p) => fp.bytes(&p[off..off + take]),
                    None => fp.bytes(&zero[..take]),
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

    /// A snapshot holding exactly `regions` and no pages.
    fn snapshot_of(regions: &[(u32, u32)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        qr_common::varint::write_u64(&mut bytes, regions.len() as u64);
        for &(s, e) in regions {
            bytes.extend_from_slice(&s.to_le_bytes());
            bytes.extend_from_slice(&e.to_le_bytes());
        }
        qr_common::varint::write_u64(&mut bytes, 0);
        bytes
    }

    fn load(bytes: &[u8]) -> Result<PagedMemory> {
        PagedMemory::load_state(&mut qr_common::cursor::ByteReader::new(bytes, "snapshot"))
    }

    /// Asserts a structured rejection whose offset is where the reader
    /// stood after the offending (last) region.
    fn assert_rejected(regions: &[(u32, u32)], needle: &str) {
        match load(&snapshot_of(regions)) {
            Err(QrError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, 1 + 8 * regions.len() as u64, "{detail}");
                assert!(detail.contains(needle), "{detail}");
            }
            other => panic!("{regions:x?}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn saved_regions_load_back() {
        let mut m = mapped();
        m.map_region(VirtAddr(0x4000), 0x100).unwrap();
        let mut bytes = Vec::new();
        m.save_state(&mut bytes);
        let back = load(&bytes).unwrap();
        assert_eq!(back.regions().collect::<Vec<_>>(), m.regions().collect::<Vec<_>>());
        // Adjacent regions are not what `save_state` writes, but harmless.
        assert!(load(&snapshot_of(&[(0x1000, 0x2000), (0x2000, 0x3000)])).is_ok());
    }

    #[test]
    fn inverted_region_in_snapshot_is_rejected() {
        // `end - start` would overflow (debug) or wrap to ~4 GiB (release).
        assert_rejected(&[(0x1000, 0x2000), (0x5000, 0x4000)], "inverted");
    }

    #[test]
    fn empty_region_in_snapshot_is_rejected() {
        assert_rejected(&[(0x1000, 0x1000)], "empty");
    }

    #[test]
    fn out_of_order_regions_in_snapshot_are_rejected() {
        assert_rejected(&[(0x4000, 0x5000), (0x1000, 0x2000)], "out of order");
    }

    #[test]
    fn overlapping_regions_in_snapshot_are_rejected() {
        assert_rejected(&[(0x1000, 0x3000), (0x2000, 0x4000)], "overlaps");
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
