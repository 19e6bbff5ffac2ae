//! The [`Encode`] / [`Decode`] traits — the crate's serde-equivalent.
//!
//! Implementations exist for primitives, strings, byte buffers, options,
//! vectors, maps, and tuples; protocol crates implement the traits by hand
//! for their message enums (a deliberate choice: the wire grammar of every
//! protocol in this repository is explicit and reviewable, not derived).

use std::collections::BTreeMap;

use crate::buf::{WireReader, WireWriter};
use crate::error::{WireError, WireResult};

/// Default cap on decoded collection lengths, guarding against hostile or
/// corrupt length prefixes. Generous enough for every workload in the repo.
pub const MAX_DECODE_LEN: u64 = 1 << 32;

/// Types that can write themselves to the wire.
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Best-effort size hint in bytes (used for preallocation only).
    fn encoded_len_hint(&self) -> usize {
        8
    }
}

/// Types that can read themselves back from the wire.
pub trait Decode: Sized {
    /// Decode one value from the front of `r`.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;
}

/// Encode `value` into a fresh buffer.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(value.encoded_len_hint());
    value.encode(&mut w);
    w.into_vec()
}

/// Decode a single `T` from `data`, requiring the buffer be fully consumed.
pub fn decode_from_slice<T: Decode>(data: &[u8]) -> WireResult<T> {
    let mut r = WireReader::new(data);
    let value = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

macro_rules! impl_fixed {
    ($ty:ty, $put:ident, $get:ident, $len:expr) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn encoded_len_hint(&self) -> usize {
                $len
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
                r.$get()
            }
        }
    };
}

impl_fixed!(u8, put_u8, get_u8, 1);
impl_fixed!(u16, put_u16, get_u16, 2);
impl_fixed!(u32, put_u32, get_u32, 4);
impl_fixed!(u128, put_u128, get_u128, 16);
impl_fixed!(f32, put_f32, get_f32, 4);
impl_fixed!(f64, put_f64, get_f64, 8);

// u64 and signed types ride varints: most values in this system are small
// (offsets, counts, sim timestamps), so varints dominate fixed width.
impl Encode for u64 {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(*self);
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::uvarint_len(*self)
    }
}
impl Decode for u64 {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.get_uvarint()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_ivarint(*self);
    }
    fn encoded_len_hint(&self) -> usize {
        10
    }
}
impl Decode for i64 {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.get_ivarint()
    }
}

impl Encode for i32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_ivarint(i64::from(*self));
    }
    fn encoded_len_hint(&self) -> usize {
        5
    }
}
impl Decode for i32 {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let v = r.get_ivarint()?;
        i32::try_from(v)
            .map_err(|_| WireError::LengthOverflow { len: v.unsigned_abs(), max: i32::MAX as u64 })
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(*self as u64);
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::uvarint_len(*self as u64)
    }
}
impl Decode for usize {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let v = r.get_uvarint()?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow { len: v, max: usize::MAX as u64 })
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }
    fn encoded_len_hint(&self) -> usize {
        1
    }
}
impl Decode for bool {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }
}

impl Encode for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len_prefixed(self.as_bytes());
    }
    fn encoded_len_hint(&self) -> usize {
        self.len() + 2
    }
}
impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let bytes = r.get_len_prefixed(MAX_DECODE_LEN)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl Encode for &str {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len_prefixed(self.as_bytes());
    }
    fn encoded_len_hint(&self) -> usize {
        self.len() + 2
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn encoded_len_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len_hint)
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::InvalidTag { tag: u32::from(b), ty: "Option" }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn encoded_len_hint(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len_hint).sum::<usize>()
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.get_uvarint()?;
        if len > MAX_DECODE_LEN {
            return Err(WireError::LengthOverflow { len, max: MAX_DECODE_LEN });
        }
        // Cap pre-allocation: a corrupt prefix must not OOM us.
        let mut out = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}
impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.get_uvarint()?;
        if len > MAX_DECODE_LEN {
            return Err(WireError::LengthOverflow { len, max: MAX_DECODE_LEN });
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-42i64);
        roundtrip(i32::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f64);
        roundtrip(String::from("héllo"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(99u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((1u64, String::from("x"), false));
    }

    #[test]
    fn map_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(1u64, String::from("one"));
        m.insert(2, String::from("two"));
        roundtrip(m);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(matches!(decode_from_slice::<u64>(&bytes), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn bad_bool_rejected() {
        assert!(matches!(decode_from_slice::<bool>(&[2]), Err(WireError::InvalidBool(2))));
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&[9]),
            Err(WireError::InvalidTag { tag: 9, ty: "Option" })
        ));
    }

    #[test]
    fn hostile_vec_length_does_not_oom() {
        // Claim 2^31 elements but supply none.
        let mut w = WireWriter::new();
        w.put_uvarint(1 << 31);
        let buf = w.into_vec();
        assert!(decode_from_slice::<Vec<u64>>(&buf).is_err());
    }

    proptest! {
        #[test]
        fn prop_vec_string_roundtrip(v in proptest::collection::vec(".*", 0..20)) {
            roundtrip(v);
        }

        #[test]
        fn prop_nested_roundtrip(v in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..10), 0..10)) {
            roundtrip(v);
        }

        #[test]
        fn prop_option_tuple_roundtrip(a in any::<Option<u32>>(), b in any::<i64>()) {
            roundtrip((a, b));
        }
    }
}
