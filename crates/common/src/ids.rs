//! Strongly-typed identifiers used across the QuickRec-RS workspace.
//!
//! Following the newtype guideline, quantities that are "just integers" at
//! the hardware level (core numbers, thread ids, virtual addresses, cache
//! line numbers, cycle counts) get distinct types so that, e.g., a
//! [`ThreadId`] can never be passed where a [`CoreId`] is expected.

use std::fmt;

/// Size of a cache line in bytes. Conflict detection, signatures and the
/// MESI protocol all operate at this granularity, as in the QuickIA
/// prototype platform.
pub const CACHE_LINE_BYTES: u32 = 64;

/// Log2 of [`CACHE_LINE_BYTES`].
const CACHE_LINE_SHIFT: u32 = CACHE_LINE_BYTES.trailing_zeros();

/// Identifier of a physical core in the simulated machine (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Index usable for per-core `Vec` storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of a software thread managed by the simulated kernel.
///
/// Thread ids are unique for the lifetime of a machine and never reused,
/// which keeps recorded logs unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Index usable for per-thread `Vec` storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Identifier of a simulated process (one address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A 32-bit virtual address in the PIA address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u32);

impl VirtAddr {
    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> CACHE_LINE_SHIFT)
    }

    /// Byte offset of this address within its cache line.
    pub fn line_offset(self) -> u32 {
        self.0 & (CACHE_LINE_BYTES - 1)
    }

    /// Address advanced by `bytes`, wrapping like 32-bit hardware would.
    pub fn wrapping_add(self, bytes: u32) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(bytes))
    }

    /// Whether an access of `bytes` starting here stays within one line.
    pub fn fits_in_line(self, bytes: u32) -> bool {
        self.line_offset() + bytes <= CACHE_LINE_BYTES
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache line number (virtual address divided by [`CACHE_LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u32);

impl LineAddr {
    /// First byte address of this line.
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 << CACHE_LINE_SHIFT)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A simulated cycle count (also used as the global bus timestamp domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Zero cycles.
    pub const ZERO: Cycle = Cycle(0);

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl std::ops::Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl std::ops::AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping_is_64_byte_granular() {
        assert_eq!(VirtAddr(0).line(), LineAddr(0));
        assert_eq!(VirtAddr(63).line(), LineAddr(0));
        assert_eq!(VirtAddr(64).line(), LineAddr(1));
        assert_eq!(VirtAddr(0xffff_ffff).line(), LineAddr(0x03ff_ffff));
    }

    #[test]
    fn line_offset_and_base_roundtrip() {
        let a = VirtAddr(0x1007);
        assert_eq!(a.line_offset(), 7);
        assert_eq!(a.line().base(), VirtAddr(0x1000));
        assert_eq!(a.line().base().0 + a.line_offset(), a.0);
    }

    #[test]
    fn fits_in_line_checks_span() {
        assert!(VirtAddr(0).fits_in_line(64));
        assert!(!VirtAddr(1).fits_in_line(64));
        assert!(VirtAddr(60).fits_in_line(4));
        assert!(!VirtAddr(61).fits_in_line(4));
    }

    #[test]
    fn cycle_arithmetic() {
        let mut c = Cycle::ZERO;
        c += 10;
        assert_eq!(c, Cycle(10));
        assert_eq!((c + 5).since(c), 5);
        assert_eq!(c.since(c + 5), 0, "since saturates");
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(ThreadId(9).to_string(), "tid9");
        assert_eq!(Pid(1).to_string(), "pid1");
        assert_eq!(VirtAddr(0xabc).to_string(), "0x00000abc");
        assert_eq!(Cycle(7).to_string(), "7cy");
    }

    #[test]
    fn wrapping_add_wraps_like_hardware() {
        assert_eq!(VirtAddr(0xffff_ffff).wrapping_add(1), VirtAddr(0));
    }
}
