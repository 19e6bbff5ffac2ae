//! Cursor-style writer and reader over byte buffers.
//!
//! [`WireWriter`] appends to a growable buffer; [`WireReader`] walks a
//! borrowed slice. Both are deliberately simple — the interesting costs
//! (allocation, copying, pointer fix-up) are accounted for one level up in
//! [`crate::cost`].

use crate::error::{WireError, WireResult};
use crate::varint;

/// Append-only writer producing a contiguous wire buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Create a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// View the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Write a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u128` (object IDs).
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an IEEE-754 `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Write an IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a LEB128 varint.
    #[inline]
    pub fn put_uvarint(&mut self, v: u64) {
        varint::write_uvarint(&mut self.buf, v);
    }

    /// Write a zig-zag LEB128 varint.
    pub fn put_ivarint(&mut self, v: i64) {
        varint::write_ivarint(&mut self.buf, v);
    }

    /// Write raw bytes verbatim (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Write a varint length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, data: &[u8]) {
        self.put_uvarint(data.len() as u64);
        self.put_bytes(data);
    }
}

/// Borrowing reader that consumes a wire buffer front to back.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap `buf` in a reader positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes remaining to be read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute read position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True if the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> WireResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a little-endian `u128`.
    #[inline]
    pub fn get_u128(&mut self) -> WireResult<u128> {
        let b = self.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(b);
        Ok(u128::from_le_bytes(arr))
    }

    /// Read an IEEE-754 `f32`.
    pub fn get_f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a LEB128 varint.
    #[inline]
    pub fn get_uvarint(&mut self) -> WireResult<u64> {
        let (v, n) = varint::read_uvarint(&self.buf[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Read a zig-zag LEB128 varint.
    pub fn get_ivarint(&mut self) -> WireResult<i64> {
        let (v, n) = varint::read_ivarint(&self.buf[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// Read a varint length prefix then that many bytes, bounded by `max`.
    pub fn get_len_prefixed(&mut self, max: u64) -> WireResult<&'a [u8]> {
        let len = self.get_uvarint()?;
        if len > max {
            return Err(WireError::LengthOverflow { len, max });
        }
        self.take(len as usize)
    }

    /// Read a varint element count for a collection whose elements each
    /// take at least `min_entry_bytes` on the wire. A count the remaining
    /// bytes cannot hold is rejected here, before anything is reserved for
    /// it, so a hostile prefix never sizes an allocation.
    #[inline]
    pub fn get_count(&mut self, min_entry_bytes: usize) -> WireResult<usize> {
        let n = self.get_uvarint()?;
        let available = self.remaining();
        if n > (available / min_entry_bytes.max(1)) as u64 {
            let needed = usize::try_from(n).unwrap_or(usize::MAX).saturating_mul(min_entry_bytes);
            return Err(WireError::UnexpectedEof { needed, available });
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_width_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_f64(-1234.5678);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert!(r.is_exhausted());
    }

    #[test]
    fn len_prefixed_roundtrip_and_bound() {
        let mut w = WireWriter::new();
        w.put_len_prefixed(b"hello world");
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_len_prefixed(64).unwrap(), b"hello world");
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.get_len_prefixed(4),
            Err(WireError::LengthOverflow { len: 11, max: 4 })
        ));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_behind_it() {
        let mut w = WireWriter::new();
        w.put_uvarint(3);
        w.put_bytes(&[0; 6]);
        let buf = w.into_vec();
        assert_eq!(WireReader::new(&buf).get_count(2).unwrap(), 3);
        assert!(matches!(
            WireReader::new(&buf).get_count(3),
            Err(WireError::UnexpectedEof { needed: 9, available: 6 })
        ));
        // A maximal count over an empty tail must not overflow the report.
        let mut w = WireWriter::new();
        w.put_uvarint(u64::MAX);
        let buf = w.into_vec();
        assert!(matches!(
            WireReader::new(&buf).get_count(16),
            Err(WireError::UnexpectedEof { needed: usize::MAX, available: 0 })
        ));
    }

    #[test]
    fn eof_reports_needs() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(WireError::UnexpectedEof { needed: 4, available: 2 })));
        // Position unchanged after failed read.
        assert_eq!(r.position(), 0);
    }

    proptest! {
        #[test]
        fn prop_mixed_roundtrip(a in any::<u8>(), b in any::<u64>(), c in any::<i64>(), d in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut w = WireWriter::new();
            w.put_u8(a);
            w.put_uvarint(b);
            w.put_ivarint(c);
            w.put_len_prefixed(&d);
            let buf = w.into_vec();
            let mut r = WireReader::new(&buf);
            prop_assert_eq!(r.get_u8().unwrap(), a);
            prop_assert_eq!(r.get_uvarint().unwrap(), b);
            prop_assert_eq!(r.get_ivarint().unwrap(), c);
            prop_assert_eq!(r.get_len_prefixed(u64::MAX).unwrap(), &d[..]);
            prop_assert!(r.is_exhausted());
        }
    }
}
