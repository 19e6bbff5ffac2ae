//! The message grammar.
//!
//! Wire layout of every packet:
//!
//! ```text
//! +0   u8     msg_type     (discriminates MsgBody; ≥ 0xF0 is p4rt control)
//! +1   u128   dst_obj      (object the packet is routed TOWARDS)
//! +17  u128   src_obj      (sender's inbox object — the reply address)
//! +33  ...    body         (per-type fields, rdv-wire encoding)
//! ```
//!
//! The first 33 bytes are exactly `rdv_p4rt::header::objnet_format()`:
//! switches route on `dst_obj` without understanding bodies, which is the
//! paper's "pointers … interpreted by the network layer as well as the OS".
//!
//! An object image travels as [`MsgBody::ObjImageFrag`]s, and two encoders
//! write the same bytes for them. [`Msg::encode`] writes a message that
//! carries a [`Fragment`] — a view of a joined image or of a decoded packet.
//! [`Msg::encode_image`], what the runtime's serve and push call, takes the
//! image as the object holds it (head and heap, never joined) and writes
//! every packet straight from it: those packet buffers are the sender's
//! only copy of the bytes. Golden vectors below pin the wire form; the
//! runtime's wire oracle holds `encode_image` to `encode`.

use std::ops::Range;

use bytes::Bytes;
use rdv_objspace::ObjId;
use rdv_wire::varint::uvarint_len;
use rdv_wire::{Decode, Encode, WireError, WireReader, WireResult, WireWriter};

use crate::frag::{self, Fragment};

/// Byte length of the objnet header.
pub const HEADER_LEN: usize = 33;

/// The routing header present on every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Object the packet is routed towards.
    pub dst: ObjId,
    /// Sender's inbox object (reply address).
    pub src: ObjId,
}

/// Message bodies. The enum discriminant doubles as the wire `msg_type`.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgBody {
    /// Load `len` bytes at `offset` of `target`.
    ///
    /// In controller mode the packet routes directly on the object
    /// (`header.dst == target`); in E2E mode it routes to the holder's
    /// inbox (`header.dst == holder_inbox`), so the target is named
    /// explicitly in the body.
    ReadReq {
        /// Request correlation ID.
        req: u64,
        /// The object being read.
        target: ObjId,
        /// Byte offset within the object.
        offset: u64,
        /// Bytes requested.
        len: u64,
    },
    /// Reply to [`MsgBody::ReadReq`].
    ReadResp {
        /// Correlates with the request.
        req: u64,
        /// Offset echoed from the request.
        offset: u64,
        /// Object version at read time.
        version: u64,
        /// The bytes.
        data: Vec<u8>,
    },
    /// Store `data` at `offset` of `target`.
    WriteReq {
        /// Request correlation ID.
        req: u64,
        /// The object being written.
        target: ObjId,
        /// Byte offset within the object.
        offset: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// Reply to [`MsgBody::WriteReq`].
    WriteAck {
        /// Correlates with the request.
        req: u64,
        /// Object version after the write.
        version: u64,
    },
    /// Fetch the whole image of `target`.
    ObjImageReq {
        /// Request correlation ID.
        req: u64,
        /// The object being fetched.
        target: ObjId,
    },
    /// Reply to [`MsgBody::ObjImageReq`] (fragmented when large).
    ObjImageResp {
        /// Correlates with the request.
        req: u64,
        /// Object version of the image.
        version: u64,
        /// The serialized object image ([`rdv_objspace::Object::to_image`]).
        image: Vec<u8>,
    },
    /// One fragment of a large object image (see [`crate::frag`]), whose
    /// `msg_id` equals `req`. The message carries the fragment itself, not
    /// an encoding of it: after [`Msg::decode_bytes`] its body is a view of
    /// the arrived packet. A sender holding the object need not build one
    /// at all — [`Msg::encode_image`] writes the same packets from the
    /// object's head and heap. On the wire it is the fragment's encoding
    /// behind a length prefix, as it always was.
    ObjImageFrag {
        /// Correlates with the [`MsgBody::ObjImageReq`].
        req: u64,
        /// Object version of the full image.
        version: u64,
        /// The fragment.
        frag: Fragment,
    },
    /// Coherence/discovery: revoke cached copies and destination-cache
    /// entries for the destination object (broadcast on movement).
    Invalidate {
        /// Version being invalidated (cached copies at or below drop).
        version: u64,
    },
    /// Directed coherence invalidation: routed to a host inbox, naming the
    /// object explicitly (issued by a home's [`crate::coherence::Directory`]).
    DirInvalidate {
        /// The object whose cached copy must drop.
        obj: ObjId,
        /// Version being invalidated.
        version: u64,
    },
    /// Coherence: request exclusive (write) access.
    UpgradeReq {
        /// Request correlation ID.
        req: u64,
    },
    /// Coherence: exclusive access granted.
    UpgradeAck {
        /// Correlates with the request.
        req: u64,
        /// Version at grant time.
        version: u64,
    },
    /// The destination object is not here (stale route or moved object).
    Nack {
        /// Correlates with the failed request.
        req: u64,
        /// Machine-readable reason.
        code: NackCode,
    },
    /// E2E discovery: "who holds this object?" (broadcast).
    DiscoverReq {
        /// Request correlation ID.
        req: u64,
    },
    /// E2E discovery reply: "I do — reach me at my inbox object."
    DiscoverResp {
        /// Correlates with the request.
        req: u64,
        /// The responder's inbox object.
        holder_inbox: ObjId,
    },
    /// Controller scheme: advertise that the sender now holds `obj`.
    /// Routed to the controller's well-known inbox.
    Advertise {
        /// The object now held by `src`.
        obj: ObjId,
    },
    /// Journal-synchronized discovery (`rdv-gossip`): anti-entropy digest
    /// — the sender's journal version vector, asking `target` for the
    /// facts it is missing. `header.dst` may be a relay inbox; the relay
    /// forwards toward `target` (relay-first path selection).
    GossipDigest {
        /// The sender's anti-entropy round (for tracing/debugging).
        round: u64,
        /// The gossip peer this digest is ultimately for.
        target: ObjId,
        /// Encoded `rdv_gossip::Digest` (after [`Msg::decode_bytes`], a
        /// view of the arrived packet).
        data: Bytes,
    },
    /// Journal-synchronized discovery: anti-entropy delta — the holder
    /// facts a digest showed missing, merged CRDT-wise at `target`.
    GossipDelta {
        /// Round echoed from the triggering digest.
        round: u64,
        /// The gossip peer this delta is ultimately for.
        target: ObjId,
        /// Encoded `rdv_gossip::Delta` (after [`Msg::decode_bytes`], a
        /// view of the arrived packet).
        data: Bytes,
    },
    /// Rendezvous invocation request: run code object `code` with the
    /// destination object as its primary argument (see `rdv-core`).
    Invoke {
        /// Request correlation ID.
        req: u64,
        /// The code object to execute.
        code: ObjId,
        /// Additional argument objects.
        args: Vec<ObjId>,
    },
    /// Result of an [`MsgBody::Invoke`].
    InvokeResult {
        /// Correlates with the request.
        req: u64,
        /// Raw result bytes (application-defined).
        result: Vec<u8>,
    },
    /// Reliable-transport data envelope (see [`crate::transport`]).
    RelData {
        /// Sequence number within the (src, dst) flow.
        seq: u64,
        /// Cumulative ack for the reverse direction.
        ack: u64,
        /// The wrapped message (a serialized [`Msg`] without outer header —
        /// i.e. `inner_type` byte + inner body).
        inner: Vec<u8>,
    },
    /// Reliable-transport pure ack.
    RelAck {
        /// Cumulative ack.
        ack: u64,
    },
}

/// Reasons a request can be refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackCode {
    /// The destination object is not present at the receiving host.
    NotHere,
    /// The requested range is out of bounds.
    BadRange,
    /// The receiver is over capacity.
    Overloaded,
}

impl NackCode {
    fn to_byte(self) -> u8 {
        match self {
            NackCode::NotHere => 0,
            NackCode::BadRange => 1,
            NackCode::Overloaded => 2,
        }
    }
    fn from_byte(b: u8) -> WireResult<NackCode> {
        match b {
            0 => Ok(NackCode::NotHere),
            1 => Ok(NackCode::BadRange),
            2 => Ok(NackCode::Overloaded),
            _ => Err(WireError::InvalidTag { tag: u32::from(b), ty: "NackCode" }),
        }
    }
}

/// Body length of an [`MsgBody::ObjImageFrag`] whose fragment encodes to
/// `frag_len` bytes.
fn image_frag_len(req: u64, version: u64, frag_len: usize) -> usize {
    uvarint_len(req) + uvarint_len(version) + uvarint_len(frag_len as u64) + frag_len
}

/// A complete message: header + body.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Routing header.
    pub header: MsgHeader,
    /// Payload.
    pub body: MsgBody,
}

impl MsgBody {
    /// The wire `msg_type` of [`MsgBody::ObjImageFrag`].
    pub const OBJ_IMAGE_FRAG: u8 = 0x0B;

    /// The wire `msg_type` for this body.
    pub fn msg_type(&self) -> u8 {
        match self {
            MsgBody::ReadReq { .. } => 0x01,
            MsgBody::ReadResp { .. } => 0x02,
            MsgBody::WriteReq { .. } => 0x03,
            MsgBody::WriteAck { .. } => 0x04,
            MsgBody::ObjImageReq { .. } => 0x05,
            MsgBody::ObjImageResp { .. } => 0x06,
            MsgBody::ObjImageFrag { .. } => Self::OBJ_IMAGE_FRAG,
            MsgBody::Invalidate { .. } => 0x07,
            MsgBody::DirInvalidate { .. } => 0x0C,
            MsgBody::UpgradeReq { .. } => 0x08,
            MsgBody::UpgradeAck { .. } => 0x09,
            MsgBody::Nack { .. } => 0x0A,
            MsgBody::DiscoverReq { .. } => 0x10,
            MsgBody::DiscoverResp { .. } => 0x11,
            MsgBody::Advertise { .. } => 0x12,
            MsgBody::GossipDigest { .. } => 0x13,
            MsgBody::GossipDelta { .. } => 0x14,
            MsgBody::Invoke { .. } => 0x20,
            MsgBody::InvokeResult { .. } => 0x21,
            MsgBody::RelData { .. } => 0x40,
            MsgBody::RelAck { .. } => 0x41,
        }
    }

    /// Encode just the body fields (no type byte, no header).
    fn encode_fields(&self, w: &mut WireWriter) {
        match self {
            MsgBody::ReadReq { req, target, offset, len } => {
                w.put_uvarint(*req);
                target.encode(w);
                w.put_uvarint(*offset);
                w.put_uvarint(*len);
            }
            MsgBody::ReadResp { req, offset, version, data } => {
                w.put_uvarint(*req);
                w.put_uvarint(*offset);
                w.put_uvarint(*version);
                w.put_len_prefixed(data);
            }
            MsgBody::WriteReq { req, target, offset, data } => {
                w.put_uvarint(*req);
                target.encode(w);
                w.put_uvarint(*offset);
                w.put_len_prefixed(data);
            }
            MsgBody::WriteAck { req, version } => {
                w.put_uvarint(*req);
                w.put_uvarint(*version);
            }
            MsgBody::ObjImageReq { req, target } => {
                w.put_uvarint(*req);
                target.encode(w);
            }
            MsgBody::ObjImageResp { req, version, image } => {
                w.put_uvarint(*req);
                w.put_uvarint(*version);
                w.put_len_prefixed(image);
            }
            MsgBody::ObjImageFrag { req, version, frag } => {
                w.put_uvarint(*req);
                w.put_uvarint(*version);
                w.put_uvarint(frag.encoded_len() as u64);
                frag.encode_into(w);
            }
            MsgBody::Invalidate { version } => w.put_uvarint(*version),
            MsgBody::DirInvalidate { obj, version } => {
                obj.encode(w);
                w.put_uvarint(*version);
            }
            MsgBody::UpgradeReq { req } => w.put_uvarint(*req),
            MsgBody::UpgradeAck { req, version } => {
                w.put_uvarint(*req);
                w.put_uvarint(*version);
            }
            MsgBody::Nack { req, code } => {
                w.put_uvarint(*req);
                w.put_u8(code.to_byte());
            }
            MsgBody::DiscoverReq { req } => w.put_uvarint(*req),
            MsgBody::DiscoverResp { req, holder_inbox } => {
                w.put_uvarint(*req);
                holder_inbox.encode(w);
            }
            MsgBody::Advertise { obj } => obj.encode(w),
            MsgBody::GossipDigest { round, target, data }
            | MsgBody::GossipDelta { round, target, data } => {
                w.put_uvarint(*round);
                target.encode(w);
                w.put_len_prefixed(data);
            }
            MsgBody::Invoke { req, code, args } => {
                w.put_uvarint(*req);
                code.encode(w);
                args.encode(w);
            }
            MsgBody::InvokeResult { req, result } => {
                w.put_uvarint(*req);
                w.put_len_prefixed(result);
            }
            MsgBody::RelData { seq, ack, inner } => {
                w.put_uvarint(*seq);
                w.put_uvarint(*ack);
                w.put_len_prefixed(inner);
            }
            MsgBody::RelAck { ack } => w.put_uvarint(*ack),
        }
    }

    /// Bytes [`MsgBody::encode_fields`] will write, where that is worth
    /// knowing exactly: an image fragment goes into a buffer of precisely
    /// its size, everything else is small and starts from a guess.
    fn fields_len_hint(&self) -> usize {
        match self {
            MsgBody::ObjImageFrag { req, version, frag } => {
                image_frag_len(*req, *version, frag.encoded_len())
            }
            _ => 32,
        }
    }

    /// Decode body fields for `msg_type`. `share` turns a byte range of
    /// `r`'s buffer into owned bytes — a copy, or a view of the packet —
    /// for the one field a body keeps as [`Bytes`]: a fragment's body, or
    /// a gossip digest or delta.
    fn decode_fields(
        msg_type: u8,
        r: &mut WireReader<'_>,
        share: impl FnOnce(Range<usize>) -> Bytes,
    ) -> WireResult<MsgBody> {
        const MAX: u64 = 1 << 30;
        Ok(match msg_type {
            0x01 => MsgBody::ReadReq {
                req: r.get_uvarint()?,
                target: ObjId::decode(r)?,
                offset: r.get_uvarint()?,
                len: r.get_uvarint()?,
            },
            0x02 => MsgBody::ReadResp {
                req: r.get_uvarint()?,
                offset: r.get_uvarint()?,
                version: r.get_uvarint()?,
                data: r.get_len_prefixed(MAX)?.to_vec(),
            },
            0x03 => MsgBody::WriteReq {
                req: r.get_uvarint()?,
                target: ObjId::decode(r)?,
                offset: r.get_uvarint()?,
                data: r.get_len_prefixed(MAX)?.to_vec(),
            },
            0x04 => MsgBody::WriteAck { req: r.get_uvarint()?, version: r.get_uvarint()? },
            0x05 => MsgBody::ObjImageReq { req: r.get_uvarint()?, target: ObjId::decode(r)? },
            0x06 => MsgBody::ObjImageResp {
                req: r.get_uvarint()?,
                version: r.get_uvarint()?,
                image: r.get_len_prefixed(MAX)?.to_vec(),
            },
            Self::OBJ_IMAGE_FRAG => {
                let req = r.get_uvarint()?;
                let version = r.get_uvarint()?;
                let encoded = r.get_len_prefixed(MAX)?;
                let base = r.position() - encoded.len();
                let frag = Fragment::read(&mut WireReader::new(encoded), |body| {
                    share(base + body.start..base + body.end)
                })?;
                MsgBody::ObjImageFrag { req, version, frag }
            }
            0x07 => MsgBody::Invalidate { version: r.get_uvarint()? },
            0x0C => MsgBody::DirInvalidate { obj: ObjId::decode(r)?, version: r.get_uvarint()? },
            0x08 => MsgBody::UpgradeReq { req: r.get_uvarint()? },
            0x09 => MsgBody::UpgradeAck { req: r.get_uvarint()?, version: r.get_uvarint()? },
            0x0A => {
                MsgBody::Nack { req: r.get_uvarint()?, code: NackCode::from_byte(r.get_u8()?)? }
            }
            0x10 => MsgBody::DiscoverReq { req: r.get_uvarint()? },
            0x11 => {
                MsgBody::DiscoverResp { req: r.get_uvarint()?, holder_inbox: ObjId::decode(r)? }
            }
            0x12 => MsgBody::Advertise { obj: ObjId::decode(r)? },
            0x13 | 0x14 => {
                let round = r.get_uvarint()?;
                let target = ObjId::decode(r)?;
                let len = r.get_len_prefixed(MAX)?.len();
                let data = share(r.position() - len..r.position());
                if msg_type == 0x13 {
                    MsgBody::GossipDigest { round, target, data }
                } else {
                    MsgBody::GossipDelta { round, target, data }
                }
            }
            0x20 => MsgBody::Invoke {
                req: r.get_uvarint()?,
                code: ObjId::decode(r)?,
                args: Vec::<ObjId>::decode(r)?,
            },
            0x21 => MsgBody::InvokeResult {
                req: r.get_uvarint()?,
                result: r.get_len_prefixed(MAX)?.to_vec(),
            },
            0x40 => MsgBody::RelData {
                seq: r.get_uvarint()?,
                ack: r.get_uvarint()?,
                inner: r.get_len_prefixed(MAX)?.to_vec(),
            },
            0x41 => MsgBody::RelAck { ack: r.get_uvarint()? },
            t => return Err(WireError::InvalidTag { tag: u32::from(t), ty: "MsgBody" }),
        })
    }

    /// Encode as a *bare* body (type byte + fields, no routing header) —
    /// the form carried inside [`MsgBody::RelData`] and [`crate::frag`].
    pub fn encode_bare(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u8(self.msg_type());
        self.encode_fields(&mut w);
        w.into_vec()
    }

    /// Decode a bare body produced by [`MsgBody::encode_bare`].
    pub fn decode_bare(data: &[u8]) -> WireResult<MsgBody> {
        let mut r = WireReader::new(data);
        let t = r.get_u8()?;
        let body = Self::decode_fields(t, &mut r, |body| Bytes::from(&data[body]))?;
        if !r.is_exhausted() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(body)
    }
}

impl Msg {
    /// Build a message.
    pub fn new(dst: ObjId, src: ObjId, body: MsgBody) -> Msg {
        Msg { header: MsgHeader { dst, src }, body }
    }

    /// Serialize to packet bytes (header + body). An image fragment is
    /// written — routing header, fragment header, body — straight into one
    /// buffer of exactly its size: the sender's only copy of those bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(HEADER_LEN + self.body.fields_len_hint());
        Msg::put_header(&mut w, self.body.msg_type(), self.header);
        self.body.encode_fields(&mut w);
        w.into_vec()
    }

    /// The packets that carry an object image from `header.src` to
    /// `header.dst` as [`MsgBody::ObjImageFrag`]s of `req` (the fragments'
    /// `msg_id`) at `version`, cut at `mtu`. The image is given in two
    /// parts that are never joined — `Object::image_parts`' head and heap —
    /// and each packet is written once, routing header to last body byte,
    /// into a buffer of exactly its size, taking its body from whichever
    /// parts its range covers. The bytes are those [`Msg::encode`] writes
    /// for the fragments [`crate::frag::fragment_bytes`] cuts from the
    /// joined image.
    pub fn encode_image<'a>(
        header: MsgHeader,
        req: u64,
        version: u64,
        image: [&'a [u8]; 2],
        mtu: usize,
    ) -> impl ExactSizeIterator<Item = Vec<u8>> + 'a {
        let [head, heap] = image;
        let split = head.len();
        frag::spans(split + heap.len(), mtu).map(move |(index, count, range)| {
            let frag_len = frag::encoded_len(req, range.len());
            let mut w =
                WireWriter::with_capacity(HEADER_LEN + image_frag_len(req, version, frag_len));
            Msg::put_header(&mut w, MsgBody::OBJ_IMAGE_FRAG, header);
            w.put_uvarint(req);
            w.put_uvarint(version);
            w.put_uvarint(frag_len as u64);
            frag::put_header(&mut w, req, index, count, range.len());
            w.put_bytes(&head[range.start.min(split)..range.end.min(split)]);
            w.put_bytes(&heap[range.start.max(split) - split..range.end.max(split) - split]);
            w.into_vec()
        })
    }

    /// The routing header: type byte, `dst`, `src`.
    fn put_header(w: &mut WireWriter, msg_type: u8, header: MsgHeader) {
        w.put_u8(msg_type);
        w.put_u128(header.dst.as_u128());
        w.put_u128(header.src.as_u128());
    }

    /// Parse packet bytes, copying out whatever the message keeps.
    pub fn decode(data: &[u8]) -> WireResult<Msg> {
        Msg::decode_with(data, |body| Bytes::from(&data[body]))
    }

    /// Parse a packet's payload. A fragment's body comes back as a view of
    /// `data` — the arrived packet stays the only copy until reassembly.
    pub fn decode_bytes(data: &Bytes) -> WireResult<Msg> {
        Msg::decode_with(data, |body| data.slice(body))
    }

    fn decode_with(data: &[u8], share: impl FnOnce(Range<usize>) -> Bytes) -> WireResult<Msg> {
        let mut r = WireReader::new(data);
        let t = r.get_u8()?;
        let dst = ObjId(r.get_u128()?);
        let src = ObjId(r.get_u128()?);
        let body = MsgBody::decode_fields(t, &mut r, share)?;
        if !r.is_exhausted() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(Msg { header: MsgHeader { dst, src }, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One body of every variant, its numbers, ids and payloads drawn from
    /// the arguments.
    fn bodies(n: u64, id: u128, data: &[u8]) -> Vec<MsgBody> {
        let (obj, data) = (ObjId(id), data.to_vec());
        let count = (n >> 8) as u32 % crate::frag::MAX_FRAGMENTS + 1;
        vec![
            MsgBody::ReadReq { req: n, target: obj, offset: n / 3, len: n / 5 },
            MsgBody::ReadResp { req: n, offset: 64, version: n / 7, data: data.clone() },
            MsgBody::WriteReq { req: n, target: obj, offset: n / 2, data: data.clone() },
            MsgBody::WriteAck { req: n, version: 4 },
            MsgBody::ObjImageReq { req: n, target: obj },
            MsgBody::ObjImageResp { req: n, version: 9, image: data.clone() },
            MsgBody::ObjImageFrag {
                req: n,
                version: n / 11,
                frag: Fragment {
                    msg_id: n,
                    index: n as u32 % count,
                    count,
                    data: data.clone().into(),
                },
            },
            MsgBody::Invalidate { version: n },
            MsgBody::DirInvalidate { obj, version: n },
            MsgBody::UpgradeReq { req: n },
            MsgBody::UpgradeAck { req: n, version: 13 },
            MsgBody::Nack { req: n, code: NackCode::NotHere },
            MsgBody::DiscoverReq { req: n },
            MsgBody::DiscoverResp { req: n, holder_inbox: obj },
            MsgBody::Advertise { obj },
            MsgBody::GossipDigest { round: n, target: obj, data: data.clone().into() },
            MsgBody::GossipDelta { round: n, target: obj, data: data.clone().into() },
            MsgBody::Invoke { req: n, code: obj, args: vec![ObjId(1), obj] },
            MsgBody::InvokeResult { req: n, result: data.clone() },
            MsgBody::RelData { seq: n, ack: n / 2, inner: data },
            MsgBody::RelAck { ack: n },
        ]
    }

    fn sample_bodies() -> Vec<MsgBody> {
        bodies(0x0307, 5, &[1, 2, 3])
    }

    #[test]
    fn every_body_roundtrips() {
        for body in sample_bodies() {
            let msg = Msg::new(ObjId(42), ObjId(77), body.clone());
            let bytes = msg.encode();
            let back = Msg::decode(&bytes).unwrap();
            assert_eq!(back, msg, "{body:?}");
        }
    }

    #[test]
    fn header_is_route_parsable_by_p4() {
        // The first 33 bytes must parse with the objnet format and expose
        // dst_obj as field 1 — that is what switches route on.
        fn check(bytes: &[u8], dst: u128, src: u128, t: u8) {
            assert!(bytes.len() >= 33);
            assert_eq!(bytes[0], t);
            assert_eq!(u128::from_le_bytes(bytes[1..17].try_into().unwrap()), dst);
            assert_eq!(u128::from_le_bytes(bytes[17..33].try_into().unwrap()), src);
        }
        let msg = Msg::new(
            ObjId(4242),
            ObjId(7),
            MsgBody::ReadReq { req: 1, target: ObjId(4242), offset: 0, len: 8 },
        );
        check(&msg.encode(), 4242, 7, 0x01);
    }

    #[test]
    fn bare_roundtrip_and_rel_nesting() {
        let inner = MsgBody::ReadReq { req: 9, target: ObjId(1), offset: 16, len: 32 };
        let bare = inner.encode_bare();
        assert_eq!(MsgBody::decode_bare(&bare).unwrap(), inner);
        // Nest in RelData and unwrap.
        let rel = MsgBody::RelData { seq: 1, ack: 0, inner: bare.clone() };
        let msg = Msg::new(ObjId(1), ObjId(2), rel);
        let decoded = Msg::decode(&msg.encode()).unwrap();
        match decoded.body {
            MsgBody::RelData { inner: got, .. } => {
                assert_eq!(MsgBody::decode_bare(&got).unwrap(), inner);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let msg = Msg::new(ObjId(1), ObjId(2), MsgBody::Advertise { obj: ObjId(3) });
        let mut bytes = msg.encode();
        bytes[0] = 0x7E;
        assert!(matches!(Msg::decode(&bytes), Err(WireError::InvalidTag { tag: 0x7E, .. })));
    }

    #[test]
    fn truncation_never_panics() {
        for body in sample_bodies() {
            let bytes = Msg::new(ObjId(3), ObjId(4), body).encode();
            for cut in 0..bytes.len() {
                let _ = Msg::decode(&bytes[..cut]);
            }
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn image_fragment_wire_bytes_are_the_parents() {
        // Captured from the encoder this one replaced (`Fragment::encode`
        // into a `Vec`, that `Vec` length-prefixed into `Msg::encode`): the
        // bytes up to the body, the message length, and FNV-1a over the
        // whole message. The body itself is the image's bytes, verbatim.
        let image: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let golden = [
            ("0bbbaa0000000000000000000000000000ddcc0000000000000000000000000000b424098c20b42400000000030000008020", 4146, 0xc7e7_6be8_9c0c_8ed4u64),
            ("0bbbaa0000000000000000000000000000ddcc0000000000000000000000000000b424098c20b42401000000030000008020", 4146, 0xb03e_77f8_844f_3815),
            ("0bbbaa0000000000000000000000000000ddcc0000000000000000000000000000b424099c0eb4240200000003000000900e", 1858, 0xd3ee_1aae_58bc_27ae),
        ];
        let frags = crate::frag::fragment(0x1234, &image, 4096);
        assert_eq!(frags.len(), golden.len());
        for (frag, (head, len, fnv)) in frags.into_iter().zip(golden) {
            let body = frag.data.clone();
            let msg = Msg::new(
                ObjId(0xAABB),
                ObjId(0xCCDD),
                MsgBody::ObjImageFrag { req: 0x1234, version: 9, frag },
            );
            let wire = msg.encode();
            assert_eq!(wire, [unhex(head), body.to_vec()].concat());
            assert_eq!(wire.len(), len);
            let hash = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(hash, fnv);
            assert_eq!(wire.capacity(), wire.len(), "written into a buffer of exactly its size");
            assert_eq!(Msg::decode(&wire).unwrap(), msg);
        }
        // The empty image: one fragment, no body.
        let frag = crate::frag::fragment(5, b"", 4096).remove(0);
        let msg = Msg::new(ObjId(1), ObjId(2), MsgBody::ObjImageFrag { req: 5, version: 0, frag });
        let empty = "0b010000000000000000000000000000000200000000000000000000000000000005000a05000000000100000000";
        assert_eq!(msg.encode(), unhex(empty));
        assert_eq!(Msg::decode(&unhex(empty)).unwrap(), msg);
    }

    #[test]
    fn image_packets_from_two_parts_are_the_fragment_encoders_bytes() {
        // Every split of a 300-byte image into head and heap, at MTUs that
        // put the split inside, at and past a fragment's end.
        let image: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let header = MsgHeader { dst: ObjId(0xAABB), src: ObjId(0xCCDD) };
        for mtu in [1, 16, 61, 62, 63, 299, 300, 4096] {
            for split in [0, 1, 15, 16, 17, 61, 62, 150, 299, 300] {
                let parts = [&image[..split], &image[split..]];
                let packets: Vec<Vec<u8>> = Msg::encode_image(header, 7, 3, parts, mtu).collect();
                let expected: Vec<Vec<u8>> =
                    crate::frag::fragment_bytes(7, &image.clone().into(), mtu)
                        .map(|frag| {
                            Msg { header, body: MsgBody::ObjImageFrag { req: 7, version: 3, frag } }
                                .encode()
                        })
                        .collect();
                assert_eq!(packets, expected, "mtu {mtu}, split {split}");
                assert!(packets.iter().all(|p| p.capacity() == p.len()), "mtu {mtu}");
            }
        }
    }

    #[test]
    fn a_decoded_fragment_body_is_a_view_of_the_packet() {
        let frag = Fragment { msg_id: 8, index: 0, count: 2, data: vec![0xEE; 4096].into() };
        let msg = Msg::new(ObjId(1), ObjId(2), MsgBody::ObjImageFrag { req: 8, version: 1, frag });
        let packet = Bytes::from(msg.encode());
        let inside = |data: &Bytes| crate::frag::tests::within(data, &packet);
        match Msg::decode_bytes(&packet).unwrap().body {
            MsgBody::ObjImageFrag { frag, .. } => assert!(inside(&frag.data)),
            other => panic!("wrong body {other:?}"),
        }
        match Msg::decode(&packet).unwrap().body {
            MsgBody::ObjImageFrag { frag, .. } => {
                assert!(!inside(&frag.data), "the slice decoder copies")
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn a_decoded_gossip_frame_is_a_view_of_the_packet() {
        let frame = Bytes::from(vec![0x5A; 300]);
        for body in [
            MsgBody::GossipDigest { round: 3, target: ObjId(9), data: frame.clone() },
            MsgBody::GossipDelta { round: 3, target: ObjId(9), data: frame.clone() },
        ] {
            let packet = Bytes::from(Msg::new(ObjId(1), ObjId(2), body).encode());
            let inside = |data: &Bytes| crate::frag::tests::within(data, &packet);
            match Msg::decode_bytes(&packet).unwrap().body {
                MsgBody::GossipDigest { data, .. } | MsgBody::GossipDelta { data, .. } => {
                    assert!(data == frame && inside(&data))
                }
                other => panic!("wrong body {other:?}"),
            }
            match Msg::decode(&packet).unwrap().body {
                MsgBody::GossipDigest { data, .. } | MsgBody::GossipDelta { data, .. } => {
                    assert!(data == frame && !inside(&data), "the slice decoder copies")
                }
                other => panic!("wrong body {other:?}"),
            }
        }
    }

    proptest! {
        #[test]
        fn prop_slice_and_bytes_decoders_agree(
            n in any::<u64>(),
            id in any::<u128>(),
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cut in any::<usize>(),
            extra in proptest::collection::vec(any::<u8>(), 1..4),
        ) {
            // Every variant: both decoders return the message; cut short or
            // run long, both give the same error.
            for body in bodies(n, id, &data) {
                let msg = Msg::new(ObjId(id ^ 1), ObjId(id), body);
                let wire = msg.encode();
                prop_assert_eq!(Msg::decode(&wire), Ok(msg.clone()));
                prop_assert_eq!(Msg::decode_bytes(&wire.clone().into()), Ok(msg));
                let short = &wire[..cut % wire.len()];
                let got = Msg::decode(short);
                prop_assert!(got.is_err(), "{:?} decoded from a truncation", got);
                prop_assert_eq!(Msg::decode_bytes(&short.into()), got);
                let long = [&wire[..], &extra[..]].concat();
                prop_assert_eq!(Msg::decode(&long), Err(WireError::TrailingBytes(extra.len())));
                prop_assert_eq!(Msg::decode_bytes(&long.into()), Err(WireError::TrailingBytes(extra.len())));
            }
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Hostile input: decoding must return an error or a message,
            // never panic or loop.
            let got = Msg::decode(&bytes);
            prop_assert_eq!(Msg::decode_bytes(&bytes.clone().into()), got);
            let _ = MsgBody::decode_bare(&bytes);
        }

        #[test]
        fn prop_read_roundtrip(req in any::<u64>(), offset in any::<u64>(), len in any::<u64>(), dst in any::<u128>(), src in any::<u128>()) {
            let msg = Msg::new(ObjId(dst), ObjId(src), MsgBody::ReadReq { req, target: ObjId(dst), offset, len });
            prop_assert_eq!(Msg::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn prop_write_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512), offset in any::<u64>()) {
            let msg = Msg::new(ObjId(1), ObjId(2), MsgBody::WriteReq { req: 0, target: ObjId(1), offset, data });
            prop_assert_eq!(Msg::decode(&msg.encode()).unwrap(), msg);
        }
    }
}
