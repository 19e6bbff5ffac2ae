//! Fragmentation and reassembly.
//!
//! Whole-object images routinely exceed the fabric MTU. A large image is
//! split into [`Fragment`]s, each of which fits one packet; the receiver's
//! [`Reassembler`] accepts fragments in any order, tolerates duplicates
//! while a message is incomplete, and yields the original bytes when the
//! last piece arrives.
//!
//! No stage owns a private copy of the body. The runtime's sender never
//! builds a fragment at all: `Msg::encode_image` writes each packet
//! straight from the object's image head and heap, cut at the `spans`
//! every fragmenter shares. Where a [`Fragment`] exists its `data` is a
//! [`Bytes`] *slice*: of a whole image ([`fragment_bytes`] — thirteen
//! fragments of a 48 KiB image are thirteen views of one allocation), or on
//! the receiver of the packet it arrived in (`Msg::decode_bytes`). The
//! reassembler keeps those views, and [`Reassembler::accept_pieces`] hands
//! them back in order when the message completes — nothing is joined, the
//! object is built from the pieces (`Object::from_pieces`). The slice-taking
//! [`fragment`], [`Fragment::decode`] and [`Reassembler::accept`] (which
//! joins the pieces into one buffer sized from their summed lengths) are
//! adapters over the same code. The wire format is what it always was.

use std::ops::Range;

use bytes::Bytes;
use rdv_det::DetMap;
use rdv_wire::varint::uvarint_len;
use rdv_wire::{WireError, WireReader, WireResult, WireWriter};

/// Default fabric MTU in bytes (payload budget per fragment). The fabric is
/// not Ethernet (§3.2 argues even Ethernet is too much overhead), so we use
/// a 4 KiB datagram typical of memory-fabric cells rather than 1500.
pub const DEFAULT_MTU: usize = 4096;

/// Most fragments one message may have: 256 MiB at the default MTU, well
/// above any object's capacity. `count` arrives off the wire and sizes the
/// reassembly table, so it is bounded before anything is allocated for it.
pub const MAX_FRAGMENTS: u32 = 1 << 16;

/// One fragment of a larger message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Identifies the original message within the (src → dst) flow.
    pub msg_id: u64,
    /// This fragment's index, 0-based.
    pub index: u32,
    /// Total fragments in the message.
    pub count: u32,
    /// The bytes: a view of the image (sender) or of the packet (receiver).
    pub data: Bytes,
}

/// `count` must be in `1..=MAX_FRAGMENTS` and `index` below it.
fn check_bounds(index: u32, count: u32) -> WireResult<()> {
    if count == 0 || index >= count {
        return Err(WireError::InvalidTag { tag: index, ty: "Fragment index/count" });
    }
    if count > MAX_FRAGMENTS {
        return Err(WireError::LengthOverflow {
            len: u64::from(count),
            max: u64::from(MAX_FRAGMENTS),
        });
    }
    Ok(())
}

/// Wire length of a fragment of `msg_id` whose body is `body_len` bytes.
pub(crate) fn encoded_len(msg_id: u64, body_len: usize) -> usize {
    uvarint_len(msg_id) + 8 + uvarint_len(body_len as u64) + body_len
}

/// A fragment's wire form up to its body: `msg_id`, `index`, `count` and
/// the body's length prefix. The `body_len` bytes of body follow.
pub(crate) fn put_header(w: &mut WireWriter, msg_id: u64, index: u32, count: u32, body_len: usize) {
    w.put_uvarint(msg_id);
    w.put_u32(index);
    w.put_u32(count);
    w.put_uvarint(body_len as u64);
}

/// Where each fragment of a `len`-byte message lies: `(index, count,
/// byte range)` for fragments of at most `mtu` bytes, in order. An empty
/// message is one empty fragment.
pub(crate) fn spans(
    len: usize,
    mtu: usize,
) -> impl ExactSizeIterator<Item = (u32, u32, Range<usize>)> {
    assert!(mtu > 0, "mtu must be positive");
    let count = len.div_ceil(mtu).max(1);
    assert!(count <= MAX_FRAGMENTS as usize, "{count} fragments exceed MAX_FRAGMENTS");
    (0..count).map(move |i| {
        let start = i * mtu;
        (i as u32, count as u32, start..(start + mtu).min(len))
    })
}

impl Fragment {
    /// Bytes [`Fragment::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        encoded_len(self.msg_id, self.data.len())
    }

    /// Append the wire form: `msg_id`, `index`, `count`, length-prefixed body.
    pub fn encode_into(&self, w: &mut WireWriter) {
        put_header(w, self.msg_id, self.index, self.count, self.data.len());
        w.put_bytes(&self.data);
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Parse one fragment from `r`, which must hold exactly one. `body`
    /// turns the body's byte range *within `r`* into the fragment's data
    /// — a copy, or a share of the buffer `r` reads. Nothing is allocated
    /// until the header has passed its checks.
    pub(crate) fn read(
        r: &mut WireReader<'_>,
        body: impl FnOnce(Range<usize>) -> Bytes,
    ) -> WireResult<Fragment> {
        let msg_id = r.get_uvarint()?;
        let index = r.get_u32()?;
        let count = r.get_u32()?;
        check_bounds(index, count)?;
        let len = r.get_len_prefixed(1 << 30)?.len();
        if !r.is_exhausted() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(Fragment { msg_id, index, count, data: body(r.position() - len..r.position()) })
    }

    /// Parse, copying the body out of `data`.
    pub fn decode(data: &[u8]) -> WireResult<Fragment> {
        Fragment::read(&mut WireReader::new(data), |body| Bytes::from(&data[body]))
    }

    /// Parse, sharing the body with `data`.
    pub fn decode_bytes(data: &Bytes) -> WireResult<Fragment> {
        Fragment::read(&mut WireReader::new(data), |body| data.slice(body))
    }
}

/// Split `image` into fragments of at most `mtu` data bytes each, every
/// one a view of `image`'s allocation.
pub fn fragment_bytes(
    msg_id: u64,
    image: &Bytes,
    mtu: usize,
) -> impl Iterator<Item = Fragment> + '_ {
    spans(image.len(), mtu).map(move |(index, count, range)| Fragment {
        msg_id,
        index,
        count,
        data: image.slice(range),
    })
}

/// Split a borrowed `payload` into fragments: copies it once, then
/// [`fragment_bytes`].
pub fn fragment(msg_id: u64, payload: &[u8], mtu: usize) -> Vec<Fragment> {
    fragment_bytes(msg_id, &Bytes::from(payload), mtu).collect()
}

/// Reassembles fragments into complete messages, per `msg_id`.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: DetMap<u64, PartialMsg>,
}

#[derive(Debug)]
struct PartialMsg {
    received: Vec<Option<Bytes>>,
    have: u32,
}

impl Reassembler {
    /// New, empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Number of messages currently in flight.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Accept one fragment. When it completes its message, returns the
    /// message's pieces in order — the views held, nothing copied; a
    /// duplicate of a piece already held is ignored. A fragment that cannot
    /// belong (bad index or count, or a count that differs from the
    /// message's first fragment) is an error and changes nothing.
    ///
    /// Completion *forgets* the message, so nothing here recognises what
    /// arrives afterwards: a straggling duplicate opens a fresh partial
    /// message that can never complete (and pins the packet it is a view
    /// of), and a full second set of fragments completes a second time.
    /// Bounding that is the caller's job today — see ROADMAP item 7c.
    pub fn accept_pieces(&mut self, frag: Fragment) -> WireResult<Option<Vec<Bytes>>> {
        check_bounds(frag.index, frag.count)?;
        let entry = self
            .partial
            .entry(frag.msg_id)
            .or_insert_with(|| PartialMsg { received: vec![None; frag.count as usize], have: 0 });
        if entry.received.len() != frag.count as usize {
            return Err(WireError::InvalidTag { tag: frag.index, ty: "Fragment (inconsistent)" });
        }
        let slot = &mut entry.received[frag.index as usize];
        if slot.is_none() {
            entry.have += 1;
            *slot = Some(frag.data);
        }
        if entry.have < frag.count {
            return Ok(None);
        }
        let entry = self.partial.remove(&frag.msg_id).expect("present");
        // Every slot is full; the pieces reuse the slot table's allocation.
        Ok(Some(entry.received.into_iter().map(Option::unwrap_or_default).collect()))
    }

    /// [`Reassembler::accept_pieces`], joining a completed message's
    /// pieces into one buffer of exactly its length.
    pub fn accept(&mut self, frag: Fragment) -> WireResult<Option<Vec<u8>>> {
        Ok(self.accept_pieces(frag)?.map(|pieces| {
            let mut out = Vec::with_capacity(pieces.iter().map(|p| p.len()).sum());
            for piece in &pieces {
                out.extend_from_slice(piece);
            }
            out
        }))
    }

    /// Drop the in-flight state for `msg_id` (e.g. on flow reset).
    pub fn forget(&mut self, msg_id: u64) {
        self.partial.remove(&msg_id);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_fragment_for_small_payloads() {
        let frags = fragment(1, b"hello", DEFAULT_MTU);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].count, 1);
        let mut r = Reassembler::new();
        assert_eq!(r.accept(frags[0].clone()).unwrap(), Some(b"hello".to_vec()));
    }

    #[test]
    fn empty_payload_still_one_fragment() {
        let frags = fragment(1, b"", 100);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(r.accept(frags[0].clone()).unwrap(), Some(vec![]));
    }

    #[test]
    fn exact_mtu_boundaries_never_produce_an_empty_tail() {
        // len == mtu: one full fragment, not one full + one empty.
        let frags = fragment(1, &[7u8; 100], 100);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].data.len(), 100);
        // len == k * mtu: exactly k fragments, every one full.
        let payload = vec![8u8; 400];
        let frags = fragment(2, &payload, 100);
        assert_eq!(frags.len(), 4);
        assert!(frags.iter().all(|f| f.data.len() == 100));
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            done = r.accept(f).unwrap().or(done);
        }
        assert_eq!(done.unwrap(), payload);
        // len == k * mtu + 1 tips into k + 1 with a 1-byte tail.
        let frags = fragment(3, &[9u8; 401], 100);
        assert_eq!(frags.len(), 5);
        assert_eq!(frags.last().unwrap().data.len(), 1);
    }

    #[test]
    fn max_fragment_count_reassembles() {
        // A worst-case fan-out: MTU of 1 byte yields one fragment per byte.
        // Completion must fire exactly on the final fragment, regardless of
        // arrival order, and clear all in-flight state.
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut frags = fragment(11, &payload, 1);
        assert_eq!(frags.len(), 256);
        assert!(frags.iter().all(|f| f.count == 256 && f.data.len() == 1));
        // Even-index fragments first, then odd, so the last to arrive is
        // an interior fragment rather than the tail.
        frags.sort_by_key(|f| (f.index % 2, f.index));
        let mut r = Reassembler::new();
        for f in &frags[..255] {
            assert_eq!(r.accept(f.clone()).unwrap(), None);
            assert_eq!(r.pending(), 1);
        }
        assert_eq!(r.accept(frags[255].clone()).unwrap(), Some(payload));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut frags = fragment(7, &payload, 1000);
        assert_eq!(frags.len(), 10);
        frags.reverse();
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            if let Some(out) = r.accept(f).unwrap() {
                done = Some(out);
            }
        }
        assert_eq!(done.unwrap(), payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicates_ignored() {
        let payload = vec![9u8; 2500];
        let frags = fragment(3, &payload, 1000);
        let mut r = Reassembler::new();
        assert!(r.accept(frags[0].clone()).unwrap().is_none());
        assert!(r.accept(frags[0].clone()).unwrap().is_none(), "duplicate");
        assert!(r.accept(frags[1].clone()).unwrap().is_none());
        assert_eq!(r.accept(frags[2].clone()).unwrap(), Some(payload));
    }

    #[test]
    fn interleaved_messages() {
        let a = vec![1u8; 3000];
        let b = vec![2u8; 3000];
        let fa = fragment(1, &a, 1000);
        let fb = fragment(2, &b, 1000);
        let mut r = Reassembler::new();
        r.accept(fa[0].clone()).unwrap();
        r.accept(fb[0].clone()).unwrap();
        r.accept(fa[1].clone()).unwrap();
        r.accept(fb[1].clone()).unwrap();
        assert_eq!(r.pending(), 2);
        assert_eq!(r.accept(fa[2].clone()).unwrap(), Some(a));
        assert_eq!(r.accept(fb[2].clone()).unwrap(), Some(b));
    }

    #[test]
    fn inconsistent_count_rejected() {
        let mut r = Reassembler::new();
        r.accept(Fragment { msg_id: 1, index: 0, count: 3, data: Bytes::new() }).unwrap();
        assert!(r.accept(Fragment { msg_id: 1, index: 1, count: 4, data: Bytes::new() }).is_err());
        assert_eq!(r.pending(), 1, "the live message is untouched");
        // It still completes with the count it started with.
        r.accept(Fragment { msg_id: 1, index: 1, count: 3, data: Bytes::new() }).unwrap();
        let done = r.accept(Fragment { msg_id: 1, index: 2, count: 3, data: Bytes::new() });
        assert_eq!(done.unwrap(), Some(vec![]));
    }

    /// Header of a fragment as it appears on the wire, body cut off.
    fn wire_header(msg_id: u64, index: u32, count: u32, body_len: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_uvarint(msg_id);
        w.put_u32(index);
        w.put_u32(count);
        w.put_uvarint(body_len);
        w.into_vec()
    }

    #[test]
    fn hostile_count_is_rejected_before_anything_is_sized_from_it() {
        // Ten bytes asking for a 4-billion-slot table (64 GiB of `Option`s).
        let wire = wire_header(1, 0, u32::MAX, 0);
        let over = WireError::LengthOverflow { len: u64::from(u32::MAX), max: 1 << 16 };
        assert_eq!(Fragment::decode(&wire), Err(over.clone()));
        assert_eq!(Fragment::decode_bytes(&wire.into()), Err(over.clone()));
        // One past the bound is out; the bound itself is in.
        assert!(Fragment::decode(&wire_header(1, 0, MAX_FRAGMENTS + 1, 0)).is_err());
        assert!(Fragment::decode(&wire_header(1, 0, MAX_FRAGMENTS, 0)).is_ok());
        // `Fragment`'s fields are public: the reassembler holds the same line.
        let mut r = Reassembler::new();
        let big = Fragment { msg_id: 1, index: 0, count: u32::MAX, data: Bytes::new() };
        assert_eq!(r.accept(big), Err(over));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn malformed_fragments_are_typed_errors_and_open_nothing() {
        let invalid = |r: WireResult<Fragment>| matches!(r, Err(WireError::InvalidTag { .. }));
        assert!(invalid(Fragment::decode(&wire_header(1, 0, 0, 0))), "count 0");
        assert!(invalid(Fragment::decode(&wire_header(1, 3, 3, 0))), "index == count");
        // Body shorter than its prefix says, at every cut.
        let whole = Fragment { msg_id: 7, index: 1, count: 2, data: vec![5u8; 40].into() }.encode();
        for cut in 0..whole.len() {
            let got = Fragment::decode(&whole[..cut]);
            assert!(matches!(got, Err(WireError::UnexpectedEof { .. })), "cut {cut}: {got:?}");
            assert_eq!(Fragment::decode_bytes(&whole[..cut].into()), got);
        }
        // Bytes after the body.
        let mut long = whole.clone();
        long.push(0);
        assert_eq!(Fragment::decode(&long), Err(WireError::TrailingBytes(1)));
        // The reassembler refuses the same index/count shapes, and a
        // refused first fragment leaves no half-open message behind.
        let mut r = Reassembler::new();
        for (index, count) in [(0, 0), (3, 3), (9, 2)] {
            let bad = Fragment { msg_id: 4, index, count, data: Bytes::new() };
            assert!(r.accept(bad).is_err());
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn completion_forgets_the_message_so_late_fragments_start_over() {
        // What `accept` does today with fragments that arrive after their
        // message completed (ROADMAP 7c is the fix; this pins the behaviour
        // it will change).
        let payload = vec![3u8; 2500];
        let frags = fragment(9, &payload, 1000);
        let mut r = Reassembler::new();
        for f in &frags[..2] {
            assert_eq!(r.accept(f.clone()).unwrap(), None);
        }
        assert_eq!(r.accept(frags[2].clone()).unwrap(), Some(payload.clone()));
        assert_eq!(r.pending(), 0);
        // A straggler is not recognised: it opens a new partial message
        // that nothing will ever finish, holding the bytes it views.
        assert_eq!(r.accept(frags[1].clone()).unwrap(), None);
        assert_eq!(r.pending(), 1);
        // A full duplicate set (a retried fetch racing the slow reply)
        // completes a second time.
        assert_eq!(r.accept(frags[0].clone()).unwrap(), None);
        assert_eq!(r.accept(frags[2].clone()).unwrap(), Some(payload));
        assert_eq!(r.pending(), 0);
    }

    /// True when `inner` lies wholly inside `outer`'s memory.
    pub(crate) fn within(inner: &[u8], outer: &[u8]) -> bool {
        let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
        o.start <= i.start && i.end <= o.end
    }

    #[test]
    fn fragments_are_views_and_reassembly_allocates_the_image_once() {
        let image = Bytes::from((0..=255u8).cycle().take(10_000).collect::<Vec<u8>>());
        let mut r = Reassembler::new();
        let mut done = None;
        for f in fragment_bytes(5, &image, DEFAULT_MTU) {
            // Sender: the fragment's body is the image's own memory.
            assert!(within(&f.data, &image));
            assert_eq!(f.data.as_ptr(), image[f.index as usize * DEFAULT_MTU..].as_ptr());
            // Receiver: the decoded body is the packet's own memory.
            let packet = Bytes::from(f.encode());
            assert_eq!(packet.len(), f.encoded_len());
            let got = Fragment::decode_bytes(&packet).unwrap();
            assert_eq!(got, f);
            assert!(within(&got.data, &packet) && !within(&got.data, &image));
            // The slice-taking decoder copies instead, to the same value.
            let copied = Fragment::decode(&packet).unwrap();
            assert_eq!(copied, f);
            assert!(!within(&copied.data, &packet));
            done = r.accept(got).unwrap().or(done);
        }
        let out = done.expect("complete");
        assert_eq!(image, out);
        assert_eq!(out.capacity(), image.len(), "sized once, from the pieces");
    }

    #[test]
    fn completed_messages_come_back_as_the_pieces_held() {
        let image = Bytes::from((0..=255u8).cycle().take(10_000).collect::<Vec<u8>>());
        let packets: Vec<Bytes> =
            fragment_bytes(6, &image, DEFAULT_MTU).map(|f| Bytes::from(f.encode())).collect();
        let mut r = Reassembler::new();
        // Last fragment first: the pieces still come back in index order.
        for packet in packets.iter().rev().take(2) {
            assert_eq!(r.accept_pieces(Fragment::decode_bytes(packet).unwrap()).unwrap(), None);
        }
        let pieces = r.accept_pieces(Fragment::decode_bytes(&packets[0]).unwrap()).unwrap();
        let pieces = pieces.expect("complete");
        assert_eq!(pieces.len(), 3);
        for (piece, packet) in pieces.iter().zip(&packets) {
            assert!(within(piece, packet), "a piece is a view of the packet it came in");
        }
        assert_eq!(
            pieces.iter().flat_map(|p| p.iter().copied()).collect::<Vec<u8>>(),
            image.to_vec()
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn fragment_wire_roundtrip() {
        let f = Fragment { msg_id: 99, index: 2, count: 5, data: vec![1, 2, 3].into() };
        assert_eq!(Fragment::decode(&f.encode()).unwrap(), f);
        // Invalid index >= count rejected on decode.
        let bad = Fragment { msg_id: 1, index: 5, count: 5, data: Bytes::new() };
        assert!(Fragment::decode(&bad.encode()).is_err());
    }

    proptest! {
        #[test]
        fn prop_fragment_reassemble_any_order(
            payload in proptest::collection::vec(any::<u8>(), 0..20_000),
            mtu in 1usize..5000,
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut frags = fragment(42, &payload, mtu);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
            frags.shuffle(&mut rng);
            let mut r = Reassembler::new();
            let mut done = None;
            for f in frags {
                if let Some(out) = r.accept(f).unwrap() {
                    prop_assert!(done.is_none());
                    done = Some(out);
                }
            }
            prop_assert_eq!(done.unwrap(), payload);
        }
    }
}
