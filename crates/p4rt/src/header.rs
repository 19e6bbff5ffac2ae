//! User-defined header formats and the parser stage.
//!
//! Packet Subscriptions lets applications describe their own packet layouts
//! to the switch; here a [`HeaderFormat`] is an ordered list of fixed-width
//! fields at fixed byte offsets. The parser extracts each field as a `u128`
//! (wide enough for object IDs), producing the match keys the tables
//! consume.
//!
//! A parse allocates nothing: it returns [`Fields`], a `Copy` value holding
//! up to [`MAX_FIELDS`] values inline, which reads as a `&[u128]`. A switch
//! parses each packet once and hands that one value to source learning, the
//! table walk and flood deduplication alike.

use std::ops::Deref;

use crate::error::{P4Error, P4Result};

/// Most fields a [`HeaderFormat`] may declare, and so the most a table key
/// may span: the parser's output lives inline in this many slots.
pub const MAX_FIELDS: usize = 8;

/// The parsed field values of one packet, in declaration order.
///
/// Held inline (no allocation) and read as a `&[u128]` through `Deref`, so
/// `fields[i]` and `table.lookup(&fields)` work as on a slice. Slots past
/// the format's field count stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields {
    values: [u128; MAX_FIELDS],
    len: usize,
}

impl Deref for Fields {
    type Target = [u128];

    fn deref(&self) -> &[u128] {
        &self.values[..self.len]
    }
}

/// One fixed-width header field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name (for diagnostics and subscription authoring).
    pub name: String,
    /// Byte offset from the start of the packet.
    pub offset: usize,
    /// Width in bytes: 1, 2, 4, 8, or 16.
    pub width: usize,
}

impl FieldSpec {
    /// Width in bits.
    pub fn bits(&self) -> u32 {
        (self.width * 8) as u32
    }
}

/// An ordered set of fields describing a packet format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderFormat {
    /// Format name.
    pub name: String,
    fields: Vec<FieldSpec>,
    min_len: usize,
}

impl HeaderFormat {
    /// Build a format from `fields`. Panics if a width is unsupported or
    /// there are more than [`MAX_FIELDS`] fields — formats are static
    /// program configuration, not runtime input.
    pub fn new(name: impl Into<String>, fields: Vec<FieldSpec>) -> HeaderFormat {
        let name = name.into();
        assert!(
            fields.len() <= MAX_FIELDS,
            "header format '{name}' declares {} fields; at most {MAX_FIELDS} are supported",
            fields.len()
        );
        for f in &fields {
            assert!(
                matches!(f.width, 1 | 2 | 4 | 8 | 16),
                "unsupported field width {} for '{}'",
                f.width,
                f.name
            );
        }
        let min_len = fields.iter().map(|f| f.offset + f.width).max().unwrap_or(0);
        HeaderFormat { name, fields, min_len }
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Minimum packet length this format requires.
    pub fn min_len(&self) -> usize {
        self.min_len
    }

    /// Index of the field named `name`.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Width in bits of field `index`.
    pub fn field_bits(&self, index: usize) -> P4Result<u32> {
        self.fields.get(index).map(FieldSpec::bits).ok_or(P4Error::BadField(index))
    }

    /// Parse all fields out of `packet` (little-endian, matching the wire
    /// conventions of `rdv-wire`).
    pub fn parse(&self, packet: &[u8]) -> P4Result<Fields> {
        if packet.len() < self.min_len {
            return Err(P4Error::ShortPacket { needed: self.min_len, got: packet.len() });
        }
        let mut out = Fields { values: [0; MAX_FIELDS], len: self.fields.len() };
        for (v, f) in out.values.iter_mut().zip(&self.fields) {
            let mut le = [0u8; 16];
            le[..f.width].copy_from_slice(&packet[f.offset..f.offset + f.width]);
            *v = u128::from_le_bytes(le);
        }
        Ok(out)
    }
}

/// The object-routing header format shared by the rendezvous fabric: a
/// 1-byte message type, a 16-byte destination object ID, and a 16-byte
/// source object ID (the requester's inbox object). Matches the layout
/// emitted by `rdv-memproto`.
pub fn objnet_format() -> HeaderFormat {
    HeaderFormat::new(
        "objnet",
        vec![
            FieldSpec { name: "msg_type".into(), offset: 0, width: 1 },
            FieldSpec { name: "dst_obj".into(), offset: 1, width: 16 },
            FieldSpec { name: "src_obj".into(), offset: 17, width: 16 },
        ],
    )
}

/// Field index of `msg_type` in [`objnet_format`].
pub const OBJNET_MSG_TYPE: usize = 0;
/// Field index of `dst_obj` in [`objnet_format`].
pub const OBJNET_DST_OBJ: usize = 1;
/// Field index of `src_obj` in [`objnet_format`].
pub const OBJNET_SRC_OBJ: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_extracts_little_endian_fields() {
        let fmt = HeaderFormat::new(
            "t",
            vec![
                FieldSpec { name: "a".into(), offset: 0, width: 1 },
                FieldSpec { name: "b".into(), offset: 1, width: 2 },
                FieldSpec { name: "c".into(), offset: 3, width: 16 },
            ],
        );
        let mut pkt = vec![0x7f, 0x34, 0x12];
        pkt.extend(0xDEAD_BEEF_u128.to_le_bytes());
        let fields = fmt.parse(&pkt).unwrap();
        assert_eq!(*fields, [0x7f, 0x1234, 0xDEAD_BEEF]);
    }

    #[test]
    fn short_packet_rejected() {
        let fmt = objnet_format();
        assert_eq!(fmt.min_len(), 33);
        assert!(matches!(fmt.parse(&[0u8; 32]), Err(P4Error::ShortPacket { needed: 33, got: 32 })));
        assert!(fmt.parse(&[0u8; 33]).is_ok());
    }

    #[test]
    fn trailing_payload_ignored() {
        let fmt = objnet_format();
        let mut pkt = vec![3u8];
        pkt.extend(42u128.to_le_bytes());
        pkt.extend(7u128.to_le_bytes());
        pkt.extend([0xau8; 100]); // body
        let fields = fmt.parse(&pkt).unwrap();
        assert_eq!(fields[OBJNET_MSG_TYPE], 3);
        assert_eq!(fields[OBJNET_DST_OBJ], 42);
        assert_eq!(fields[OBJNET_SRC_OBJ], 7);
    }

    #[test]
    fn field_lookup() {
        let fmt = objnet_format();
        assert_eq!(fmt.field_index("dst_obj"), Some(OBJNET_DST_OBJ));
        assert_eq!(fmt.field_index("nope"), None);
        assert_eq!(fmt.field_bits(OBJNET_DST_OBJ).unwrap(), 128);
        assert!(matches!(fmt.field_bits(9), Err(P4Error::BadField(9))));
    }

    #[test]
    #[should_panic(expected = "unsupported field width")]
    fn bad_width_panics_at_construction() {
        HeaderFormat::new("t", vec![FieldSpec { name: "x".into(), offset: 0, width: 3 }]);
    }

    #[test]
    #[should_panic(expected = "at most 8 are supported")]
    fn too_many_fields_panics_at_construction() {
        let fields = (0..=MAX_FIELDS)
            .map(|i| FieldSpec { name: format!("f{i}"), offset: i, width: 1 })
            .collect();
        HeaderFormat::new("t", fields);
    }

    /// The oracle: each field assembled byte by byte into a `Vec`.
    fn reference_parse(fields: &[FieldSpec], packet: &[u8]) -> P4Result<Vec<u128>> {
        let needed = fields.iter().map(|f| f.offset + f.width).max().unwrap_or(0);
        if packet.len() < needed {
            return Err(P4Error::ShortPacket { needed, got: packet.len() });
        }
        Ok(fields
            .iter()
            .map(|f| {
                let bytes = &packet[f.offset..f.offset + f.width];
                bytes.iter().enumerate().fold(0u128, |v, (i, &b)| v | u128::from(b) << (8 * i))
            })
            .collect())
    }

    proptest! {
        #[test]
        fn prop_parse_matches_the_byte_loop(
            shape in proptest::collection::vec((0usize..5, 0usize..40), 0..=MAX_FIELDS),
            packet in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let specs: Vec<FieldSpec> = shape
                .iter()
                .enumerate()
                .map(|(i, &(w, offset))| FieldSpec {
                    name: format!("f{i}"),
                    offset,
                    width: [1, 2, 4, 8, 16][w],
                })
                .collect();
            let fmt = HeaderFormat::new("p", specs.clone());
            let got = fmt.parse(&packet).map(|f| f.to_vec());
            prop_assert_eq!(got, reference_parse(&specs, &packet));
        }
    }
}
