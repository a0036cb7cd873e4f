//! A positional byte reader for fixed layouts.
//!
//! Every decoder of untrusted bytes reads through it: the schema
//! documents of [`crate::wire`] field by field, and checkpoint records'
//! machine state (register files, cache metadata, store buffers, memory
//! overlays) as flat little-endian fields and LEB128 varints. Each
//! primitive returns a structured [`QrError::Corrupt`] carrying the byte
//! offset where the read failed instead of panicking or silently
//! truncating.
//!
//! The writing half of a schema document is its [`crate::wire::Wire`]
//! form; machine state appends to a `Vec<u8>` with `to_le_bytes` and
//! [`crate::varint::write_u64`], which cannot fail.

use crate::error::{QrError, Result};
use crate::varint;

/// Cursor over a byte buffer with structured out-of-bounds errors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a str,
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `buf` from the front; `what` names the artifact
    /// being decoded in error messages.
    pub fn new(buf: &'a [u8], what: &'a str) -> ByteReader<'a> {
        ByteReader::at(buf, what, 0)
    }

    /// Like [`ByteReader::new`] for a `buf` that starts `base` bytes into
    /// an enclosing file (a frame record's payload): error offsets are
    /// reported in the file's coordinates.
    pub fn at(buf: &'a [u8], what: &'a str, base: usize) -> ByteReader<'a> {
        ByteReader { buf, pos: 0, what, base }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`QrError::Corrupt`] located at the current position, for
    /// callers' own field checks.
    pub fn corrupt(&self, detail: impl Into<String>) -> QrError {
        self.corrupt_at(self.pos, detail)
    }

    /// A [`QrError::Corrupt`] located at `pos` (an earlier
    /// [`ByteReader::pos`]).
    pub fn corrupt_at(&self, pos: usize, detail: impl Into<String>) -> QrError {
        QrError::Corrupt {
            what: self.what.to_string(),
            offset: (self.base + pos) as u64,
            detail: detail.into(),
        }
    }

    /// Takes `len` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] if fewer than `len` bytes remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(self.corrupt(format!(
                "need {len} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on a truncated buffer.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on a truncated buffer.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on a truncated buffer.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncation or overflow.
    pub fn varint(&mut self) -> Result<u64> {
        let (value, len) = varint::read_u64(&self.buf[self.pos..])
            .map_err(|e| self.corrupt(e.to_string()))?;
        self.pos += len;
        Ok(value)
    }

    /// Reads a varint length and takes that many raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] if the length is malformed or
    /// exceeds what remains.
    pub fn prefixed(&mut self) -> Result<&'a [u8]> {
        Ok(self.nested()?.buf)
    }

    /// Like [`ByteReader::prefixed`], as a reader over just those bytes
    /// that reports offsets in this reader's coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] if the length is malformed or
    /// exceeds what remains.
    pub fn nested(&mut self) -> Result<ByteReader<'a>> {
        let len = self.varint()?;
        let start = self.pos;
        let buf = self.bytes(usize::try_from(len).unwrap_or(usize::MAX))?;
        Ok(ByteReader { buf, pos: 0, what: self.what, base: self.base + start })
    }

    /// Reads a varint and checks it fits a `usize` count bounded by
    /// `max` (guards against implausible lengths driving allocations).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] if the value exceeds `max`.
    pub fn count(&mut self, max: u64) -> Result<usize> {
        self.list_count(max, 0)
    }

    /// Reads the element count of a list whose elements each encode to
    /// at least `min_elem` bytes: besides the `max` bound of
    /// [`ByteReader::count`], the elements must be able to fit in what
    /// remains of the buffer, so a caller reserving `count` slots never
    /// reserves more than the input it was handed justifies.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] naming the implausible count.
    pub fn list_count(&mut self, max: u64, min_elem: usize) -> Result<usize> {
        let at = self.pos;
        let value = self.varint()?;
        if value > max {
            return Err(self.corrupt_at(at, format!("implausible count {value} (max {max})")));
        }
        if value.saturating_mul(min_elem as u64) > self.remaining() as u64 {
            return Err(self.corrupt_at(
                at,
                format!(
                    "implausible count {value}: {} bytes remain, elements take at least {min_elem} each",
                    self.remaining()
                ),
            ));
        }
        Ok(value as usize)
    }

    /// Asserts the buffer was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] naming the number of trailing bytes.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        buf.extend_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        varint::write_u64(&mut buf, 300);
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(r.varint().unwrap(), 300);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_structured_error_with_offset() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf, "snapshot");
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        match err {
            QrError::Corrupt { what, offset, .. } => {
                assert_eq!(what, "snapshot");
                assert_eq!(offset, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn based_reader_reports_offsets_in_the_enclosing_file() {
        let mut r = ByteReader::at(&[9u8], "record", 100);
        assert_eq!(r.u8().unwrap(), 9);
        let cases = [
            (r.u8().unwrap_err(), 101),
            (r.corrupt("field check"), 101),
            (r.corrupt_at(0, "earlier"), 100),
        ];
        for (err, want) in cases {
            match err {
                QrError::Corrupt { what, offset, .. } => {
                    assert_eq!(what, "record");
                    assert_eq!(offset, want);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(r.pos(), 1, "pos stays buffer-relative");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let buf = [0u8; 3];
        let mut r = ByteReader::new(&buf, "test");
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn implausible_counts_are_rejected() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1_000_000);
        let mut r = ByteReader::new(&buf, "test");
        let err = r.count(1000).unwrap_err();
        assert!(err.to_string().contains("implausible count"), "{err}");
    }

    #[test]
    fn list_counts_must_fit_in_what_remains() {
        // Three elements of at least two bytes each need six bytes.
        let buf = [3u8, 0, 0, 0, 0, 0];
        let err = ByteReader::new(&buf, "test").list_count(1 << 30, 2).unwrap_err();
        assert!(err.to_string().contains("implausible count 3: 5 bytes remain"), "{err}");
        assert_eq!(ByteReader::new(&buf, "test").list_count(1 << 30, 1).unwrap(), 3);
        // A count near u64::MAX must not wrap its way past the check.
        let mut huge = Vec::new();
        varint::write_u64(&mut huge, u64::MAX);
        assert!(ByteReader::new(&huge, "test").list_count(u64::MAX, 16).is_err());
    }

    #[test]
    fn prefixed_slices_are_bounded_by_the_buffer() {
        let mut r = ByteReader::new(&[2, 7, 8, 200, 1], "test");
        assert_eq!(r.prefixed().unwrap(), &[7, 8]);
        let err = r.prefixed().unwrap_err();
        assert!(err.to_string().contains("need 200 bytes, 0 remain"), "{err}");
    }
}
