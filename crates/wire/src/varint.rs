//! LEB128 variable-length integer coding with zig-zag for signed values.
//!
//! Every length prefix, collection count, and small integer field in the
//! wire format uses these routines, so they are written to be allocation-free
//! and panic-free.

use crate::error::{WireError, WireResult};

/// Maximum encoded width of a `u64` varint (10 bytes of 7 payload bits).
pub const MAX_VARINT_LEN: usize = 10;

/// Append the LEB128 encoding of `value` to `out`. Returns bytes written.
#[inline]
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 `u64` from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn read_uvarint(input: &[u8]) -> WireResult<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(WireError::VarintOverflow);
        }
        let payload = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the single remaining bit.
        if shift == 63 && payload > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(WireError::UnexpectedEof { needed: input.len() + 1, available: input.len() })
}

/// Zig-zag map a signed integer onto an unsigned one so small-magnitude
/// negatives stay short on the wire.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Append the zig-zag LEB128 encoding of `value` to `out`.
pub fn write_ivarint(out: &mut Vec<u8>, value: i64) -> usize {
    write_uvarint(out, zigzag_encode(value))
}

/// Decode a zig-zag LEB128 `i64` from the front of `input`.
pub fn read_ivarint(input: &[u8]) -> WireResult<(i64, usize)> {
    let (raw, n) = read_uvarint(input)?;
    Ok((zigzag_decode(raw), n))
}

/// Number of bytes [`write_uvarint`] would emit for `value`.
pub fn uvarint_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_one_byte() {
        let mut buf = Vec::new();
        assert_eq!(write_uvarint(&mut buf, 0), 1);
        assert_eq!(buf, [0]);
        assert_eq!(read_uvarint(&buf).unwrap(), (0, 1));
    }

    #[test]
    fn small_values_stay_small() {
        for v in [1u64, 100, 127] {
            let mut buf = Vec::new();
            assert_eq!(write_uvarint(&mut buf, v), 1, "{v}");
        }
        let mut buf = Vec::new();
        assert_eq!(write_uvarint(&mut buf, 128), 2);
    }

    #[test]
    fn max_u64_roundtrips() {
        let mut buf = Vec::new();
        let n = write_uvarint(&mut buf, u64::MAX);
        assert_eq!(n, MAX_VARINT_LEN);
        assert_eq!(read_uvarint(&buf).unwrap(), (u64::MAX, MAX_VARINT_LEN));
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 300);
        assert!(matches!(read_uvarint(&buf[..1]), Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn overlong_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_uvarint(&buf), Err(WireError::VarintOverflow));
        // 10 bytes whose top byte carries more than 1 bit overflows too.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x7f);
        assert_eq!(read_uvarint(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn uvarint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let n = write_uvarint(&mut buf, v);
            assert_eq!(uvarint_len(v), n, "value {v}");
        }
    }

    proptest! {
        #[test]
        fn prop_uvarint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            let n = write_uvarint(&mut buf, v);
            prop_assert_eq!(buf.len(), n);
            let (decoded, consumed) = read_uvarint(&buf).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(consumed, n);
        }

        #[test]
        fn prop_ivarint_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            let (decoded, _) = read_ivarint(&buf).unwrap();
            prop_assert_eq!(decoded, v);
        }

        #[test]
        fn prop_encoding_is_minimal_length(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            prop_assert!(buf.len() <= MAX_VARINT_LEN);
            prop_assert_eq!(buf.len(), uvarint_len(v));
        }
    }
}
