//! Objects: flat memory pools with identity.
//!
//! An [`Object`] is the unit of the global address space: a 128-bit ID, a
//! small header, a [`Fot`] at a known location, and a byte heap managed by
//! an [`ObjAllocator`]. The critical property, tested heavily below, is
//! **movability**: [`Object::to_image`] / [`Object::from_image`] convert to
//! and from a self-contained byte image with *no pointer translation* — the
//! raw 64-bit invariant-pointer words inside the heap are copied verbatim
//! and remain valid on the destination host.
//!
//! The image never has to exist in one buffer. It is a short *head* (magic
//! through heap length) followed by the heap, byte for byte, so a sender
//! takes the two parts from [`Object::image_parts`] and writes its packets
//! straight from them, and a receiver hands [`Object::from_pieces`] the
//! fragments it reassembled: the head is parsed from the first and the
//! heap is written once, into a buffer of exactly its size. Two copies of
//! the heap cross the fabric — the sender's packets and the receiver's
//! heap — where `to_image` + `from_image` alone would make four.

use crate::alloc::ObjAllocator;
use crate::error::{ObjError, ObjResult};
use crate::fot::{Fot, FotFlags};
use crate::id::ObjId;
use crate::ptr::{InvPtr, MAX_OFFSET};
use rdv_wire::{Decode, Encode, WireReader, WireWriter};

/// Image magic: "RDVO".
pub const OBJECT_MAGIC: [u8; 4] = *b"RDVO";

/// Default heap capacity for new objects (16 MiB).
pub const DEFAULT_OBJECT_CAPACITY: u64 = 16 << 20;

/// What an object holds — the paper places *code and data* in one space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Ordinary data.
    Data,
    /// A code object (see `rdv-core`'s code registry).
    Code,
}

impl ObjectKind {
    fn to_byte(self) -> u8 {
        match self {
            ObjectKind::Data => 0,
            ObjectKind::Code => 1,
        }
    }

    fn from_byte(b: u8) -> ObjResult<ObjectKind> {
        match b {
            0 => Ok(ObjectKind::Data),
            1 => Ok(ObjectKind::Code),
            _ => Err(ObjError::CorruptImage("unknown object kind")),
        }
    }
}

/// Object metadata (the header of the image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's global identity.
    pub id: ObjId,
    /// Data or code.
    pub kind: ObjectKind,
    /// Version, bumped on every mutation — used by caching/coherence.
    pub version: u64,
}

/// A global-address-space object.
///
/// ```
/// use rdv_objspace::{Object, ObjectKind, ObjId, FotFlags};
///
/// let mut obj = Object::new(ObjId(7), ObjectKind::Data);
/// let cell = obj.alloc(8).unwrap();
/// let ptr = obj.make_ptr(ObjId(9), 128, FotFlags::RO).unwrap();
/// obj.write_ptr(cell, ptr).unwrap();
///
/// // Movement is a byte copy; the stored pointer still resolves:
/// let moved = Object::from_image(&obj.to_image()).unwrap();
/// let p = moved.read_ptr(cell).unwrap();
/// assert_eq!(moved.resolve_ptr(p).unwrap(), (ObjId(9), 128));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    meta: ObjectMeta,
    fot: Fot,
    allocator: ObjAllocator,
    heap: Vec<u8>,
}

impl Object {
    /// Create an empty object with the default heap capacity.
    pub fn new(id: ObjId, kind: ObjectKind) -> Object {
        Object::with_capacity(id, kind, DEFAULT_OBJECT_CAPACITY)
    }

    /// Create an empty object whose heap may grow to `capacity` bytes.
    pub fn with_capacity(id: ObjId, kind: ObjectKind, capacity: u64) -> Object {
        let capacity = capacity.min(MAX_OFFSET);
        Object {
            meta: ObjectMeta { id, kind, version: 0 },
            fot: Fot::new(),
            allocator: ObjAllocator::new(capacity),
            heap: Vec::new(),
        }
    }

    /// The object's ID.
    pub fn id(&self) -> ObjId {
        self.meta.id
    }

    /// The object's kind.
    pub fn kind(&self) -> ObjectKind {
        self.meta.kind
    }

    /// Current version (bumped on each mutation).
    pub fn version(&self) -> u64 {
        self.meta.version
    }

    /// Metadata snapshot.
    pub fn meta(&self) -> ObjectMeta {
        self.meta
    }

    /// The foreign-object table (read).
    pub fn fot(&self) -> &Fot {
        &self.fot
    }

    /// Bytes of heap in use (high-water mark).
    pub fn heap_len(&self) -> u64 {
        self.heap.len() as u64
    }

    /// Total image size if serialized now.
    pub fn image_len(&self) -> usize {
        // magic + kind + id + version + fot + allocator + heap-len prefix + heap
        4 + 1
            + 16
            + 8
            + self.fot.image_len()
            + 28
            + self.allocator_extra_len()
            + 8
            + self.heap.len()
    }

    fn allocator_extra_len(&self) -> usize {
        self.allocator.encoded_len() - 20
    }

    fn bump_version(&mut self) {
        self.meta.version += 1;
    }

    /// Allocate `size` bytes in this object's heap; returns the offset.
    pub fn alloc(&mut self, size: u64) -> ObjResult<u64> {
        let off = self.allocator.alloc(size)?;
        let end = (off + crate::alloc::round_up(size)) as usize;
        if self.heap.len() < end {
            self.heap.resize(end, 0);
        }
        self.bump_version();
        Ok(off)
    }

    /// Free a previously allocated block.
    pub fn free(&mut self, offset: u64, size: u64) -> ObjResult<()> {
        self.allocator.free(offset, size)?;
        self.bump_version();
        Ok(())
    }

    fn check_range(&self, offset: u64, len: u64) -> ObjResult<(usize, usize)> {
        let end = offset.checked_add(len).ok_or(ObjError::OutOfBounds {
            offset,
            len,
            size: self.heap.len() as u64,
        })?;
        if end > self.heap.len() as u64 {
            return Err(ObjError::OutOfBounds { offset, len, size: self.heap.len() as u64 });
        }
        Ok((offset as usize, end as usize))
    }

    /// Read `len` bytes at `offset`.
    pub fn read(&self, offset: u64, len: u64) -> ObjResult<&[u8]> {
        let (s, e) = self.check_range(offset, len)?;
        Ok(&self.heap[s..e])
    }

    /// Write `data` at `offset` (must be within allocated heap).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> ObjResult<()> {
        let (s, e) = self.check_range(offset, data.len() as u64)?;
        self.heap[s..e].copy_from_slice(data);
        self.bump_version();
        Ok(())
    }

    /// Read a little-endian `u64` at `offset`.
    pub fn read_u64(&self, offset: u64) -> ObjResult<u64> {
        let b = self.read(offset, 8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Write a little-endian `u64` at `offset`.
    pub fn write_u64(&mut self, offset: u64, value: u64) -> ObjResult<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Read an invariant pointer stored at `offset`.
    pub fn read_ptr(&self, offset: u64) -> ObjResult<InvPtr> {
        Ok(InvPtr::from_raw(self.read_u64(offset)?))
    }

    /// Store an invariant pointer at `offset`.
    pub fn write_ptr(&mut self, offset: u64, ptr: InvPtr) -> ObjResult<()> {
        self.write_u64(offset, ptr.to_raw())
    }

    /// Read `count` little-endian `f32`s at `offset`.
    pub fn read_f32s(&self, offset: u64, count: usize) -> ObjResult<Vec<f32>> {
        let b = self.read(offset, count as u64 * 4)?;
        Ok(b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Write a slice of `f32`s at `offset`.
    pub fn write_f32s(&mut self, offset: u64, values: &[f32]) -> ObjResult<()> {
        let mut buf = Vec::with_capacity(values.len() * 4);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.write(offset, &buf)
    }

    /// Intern a reference to `target` in the FOT, returning the index for
    /// use in pointers.
    pub fn ref_to(&mut self, target: ObjId, flags: FotFlags) -> ObjResult<u32> {
        if target == self.meta.id {
            return Ok(InvPtr::SELF_INDEX);
        }
        let idx = self.fot.intern(target, flags)?;
        self.bump_version();
        Ok(idx)
    }

    /// Build an invariant pointer to `offset` within `target` (interning the
    /// FOT entry as needed).
    pub fn make_ptr(&mut self, target: ObjId, offset: u64, flags: FotFlags) -> ObjResult<InvPtr> {
        let idx = self.ref_to(target, flags)?;
        InvPtr::new(idx, offset).ok_or(ObjError::OutOfBounds { offset, len: 0, size: MAX_OFFSET })
    }

    /// Resolve a pointer read from this object to `(object id, offset)`.
    ///
    /// This is the only step between a pointer and a global address — no
    /// host names, no serialization context.
    pub fn resolve_ptr(&self, ptr: InvPtr) -> ObjResult<(ObjId, u64)> {
        if ptr.is_null() {
            return Err(ObjError::NullPointer);
        }
        if ptr.is_internal() {
            return Ok((self.meta.id, ptr.offset()));
        }
        let entry = self.fot.get(ptr.fot_index())?;
        Ok((entry.id, ptr.offset()))
    }

    /// The image in its two parts, never joined: the *head* — magic, kind,
    /// id, version, FOT, allocator and heap length, everything before the
    /// heap bytes — written into a buffer of its own with room for
    /// `reserve` more bytes, and the heap as it lies in the object. The
    /// image is the head followed by the heap.
    pub fn image_parts(&self, reserve: usize) -> (Vec<u8>, &[u8]) {
        // Magic, kind, id, version and heap length are 37 fixed bytes.
        let len = 37 + self.fot.image_len() + self.allocator.encoded_len();
        let mut w = WireWriter::with_capacity(len + reserve);
        w.put_bytes(&OBJECT_MAGIC);
        w.put_u8(self.meta.kind.to_byte());
        w.put_u128(self.meta.id.as_u128());
        w.put_u64(self.meta.version);
        self.fot.encode(&mut w);
        self.allocator.encode(&mut w);
        w.put_u64(self.heap.len() as u64);
        (w.into_vec(), &self.heap)
    }

    /// Serialize to a self-contained byte image, in a buffer of exactly its
    /// size. Heap bytes — including any stored pointer words — are copied
    /// verbatim.
    pub fn to_image(&self) -> Vec<u8> {
        let (mut image, heap) = self.image_parts(self.heap.len());
        image.extend_from_slice(heap);
        image
    }

    /// Reconstruct an object from an image produced by [`Object::to_image`],
    /// copying the heap out of it.
    pub fn from_image(image: &[u8]) -> ObjResult<Object> {
        Object::from_pieces(&[image])
    }

    /// Reconstruct an object from its image held in pieces — a reassembled
    /// message's fragments, in order — without joining them. The head is
    /// parsed from the first piece and the heap is written once, into a
    /// buffer of exactly its size, from the rest of the first piece and
    /// the others. Errors are [`Object::from_image`]'s on the pieces
    /// joined. A head that does not fit in the first piece (a fabric MTU
    /// below the head's length) is parsed from the joined pieces instead.
    pub fn from_pieces<P: AsRef<[u8]>>(pieces: &[P]) -> ObjResult<Object> {
        let first = pieces.first().map_or(&[][..], AsRef::as_ref);
        let (mut object, heap_len, head_len) = match Object::parse_head(first) {
            Ok(head) => head,
            // Either the head straddles pieces or it is bad; the joined
            // pieces give `from_image`'s verdict on both.
            Err(_) if pieces.len() > 1 => {
                let mut joined = Vec::with_capacity(pieces.iter().map(|p| p.as_ref().len()).sum());
                for piece in pieces {
                    joined.extend_from_slice(piece.as_ref());
                }
                return Object::from_image(&joined);
            }
            Err(e) => return Err(e),
        };
        let rest = pieces.iter().map(|p| p.as_ref().len()).sum::<usize>() - head_len;
        if heap_len > rest {
            return Err(ObjError::CorruptImage("truncated heap"));
        }
        if heap_len < rest {
            return Err(ObjError::CorruptImage("trailing bytes"));
        }
        let mut heap = Vec::with_capacity(heap_len);
        heap.extend_from_slice(&first[head_len..]);
        for piece in &pieces[1..] {
            heap.extend_from_slice(piece.as_ref());
        }
        object.heap = heap;
        Ok(object)
    }

    /// Parse and check an image's head from the start of `bytes`; returns
    /// the object with its heap still empty, the heap length the head
    /// declares, and the head's length.
    fn parse_head(bytes: &[u8]) -> ObjResult<(Object, usize, usize)> {
        let mut r = WireReader::new(bytes);
        let magic = r.get_bytes(4).map_err(|_| ObjError::CorruptImage("truncated magic"))?;
        if magic != OBJECT_MAGIC {
            return Err(ObjError::CorruptImage("bad magic"));
        }
        let kind = ObjectKind::from_byte(r.get_u8().map_err(|_| ObjError::CorruptImage("kind"))?)?;
        let id = ObjId(r.get_u128().map_err(|_| ObjError::CorruptImage("id"))?);
        if id.is_nil() {
            return Err(ObjError::CorruptImage("nil id"));
        }
        let version = r.get_u64().map_err(|_| ObjError::CorruptImage("version"))?;
        let fot = Fot::decode(&mut r).map_err(|_| ObjError::CorruptImage("fot"))?;
        let allocator =
            ObjAllocator::decode(&mut r).map_err(|_| ObjError::CorruptImage("allocator"))?;
        let heap_len = r.get_u64().map_err(|_| ObjError::CorruptImage("heap length"))?;
        let heap_len = usize::try_from(heap_len).unwrap_or(usize::MAX);
        Ok((
            Object { meta: ObjectMeta { id, kind, version }, fot, allocator, heap: Vec::new() },
            heap_len,
            r.position(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(n: u128) -> ObjId {
        ObjId(n)
    }

    fn obj() -> Object {
        Object::with_capacity(id(42), ObjectKind::Data, 1 << 16)
    }

    #[test]
    fn alloc_write_read() {
        let mut o = obj();
        let off = o.alloc(16).unwrap();
        o.write(off, b"hello world!!!!!").unwrap();
        assert_eq!(o.read(off, 16).unwrap(), b"hello world!!!!!");
    }

    #[test]
    fn bounds_are_enforced() {
        let mut o = obj();
        let off = o.alloc(8).unwrap();
        assert!(o.read(off, 1 << 20).is_err());
        assert!(o.write(1 << 20, b"x").is_err());
        assert!(o.read(u64::MAX, 2).is_err(), "offset+len overflow must not panic");
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut o = obj();
        let off = o.alloc(8).unwrap();
        o.write_u64(off, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(o.read_u64(off).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        let foff = o.alloc(16).unwrap();
        o.write_f32s(foff, &[1.0, -2.5, 3.25, 0.0]).unwrap();
        assert_eq!(o.read_f32s(foff, 4).unwrap(), vec![1.0, -2.5, 3.25, 0.0]);
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut o = obj();
        let v0 = o.version();
        let off = o.alloc(8).unwrap();
        let v1 = o.version();
        assert!(v1 > v0);
        o.read(off, 8).unwrap();
        assert_eq!(o.version(), v1);
        o.write_u64(off, 1).unwrap();
        assert!(o.version() > v1);
    }

    #[test]
    fn self_reference_uses_index_zero() {
        let mut o = obj();
        assert_eq!(o.ref_to(id(42), FotFlags::RW).unwrap(), InvPtr::SELF_INDEX);
        let p = o.make_ptr(id(42), 64, FotFlags::RW).unwrap();
        assert!(p.is_internal());
        assert_eq!(o.resolve_ptr(p).unwrap(), (id(42), 64));
    }

    #[test]
    fn cross_object_pointers_resolve_via_fot() {
        let mut o = obj();
        let p = o.make_ptr(id(99), 128, FotFlags::RO).unwrap();
        assert_eq!(p.fot_index(), 1);
        assert_eq!(o.resolve_ptr(p).unwrap(), (id(99), 128));
        // Same target interns to the same index.
        let q = o.make_ptr(id(99), 256, FotFlags::RO).unwrap();
        assert_eq!(q.fot_index(), 1);
    }

    #[test]
    fn resolving_null_fails() {
        let o = obj();
        assert!(matches!(o.resolve_ptr(InvPtr::NULL), Err(ObjError::NullPointer)));
    }

    #[test]
    fn image_roundtrip_is_exact() {
        let mut o = obj();
        let a = o.alloc(24).unwrap();
        o.write(a, b"payload payload payload!").unwrap();
        let p = o.make_ptr(id(7), 512, FotFlags::RW).unwrap();
        let cell = o.alloc(8).unwrap();
        o.write_ptr(cell, p).unwrap();
        let image = o.to_image();
        let back = Object::from_image(&image).unwrap();
        assert_eq!(back, o);
        // The stored pointer is bit-identical and still resolves.
        let p2 = back.read_ptr(cell).unwrap();
        assert_eq!(p2, p);
        assert_eq!(back.resolve_ptr(p2).unwrap(), (id(7), 512));
    }

    #[test]
    fn movability_no_fixups_needed() {
        // Build a pointer-rich object, move it twice (image copy), and keep
        // allocating/dereferencing on the destination: everything works
        // without any pointer rewriting — the paper's central mechanism.
        let mut o = obj();
        let mut cells = Vec::new();
        for i in 0..32u64 {
            let cell = o.alloc(8).unwrap();
            let p = o.make_ptr(id(1000 + u128::from(i % 4)), 8 * (i + 1), FotFlags::RO).unwrap();
            o.write_ptr(cell, p).unwrap();
            cells.push((cell, p));
        }
        let hop1 = Object::from_image(&o.to_image()).unwrap();
        let mut hop2 = Object::from_image(&hop1.to_image()).unwrap();
        for (cell, p) in &cells {
            assert_eq!(hop2.read_ptr(*cell).unwrap(), *p);
        }
        // Destination can continue allocating where the source left off.
        let fresh = hop2.alloc(8).unwrap();
        assert!(cells.iter().all(|(c, _)| *c != fresh));
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut o = obj();
        let off = o.alloc(8).unwrap();
        o.write_u64(off, 5).unwrap();
        let image = o.to_image();
        // Bad magic.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(matches!(Object::from_image(&bad), Err(ObjError::CorruptImage(_))));
        // Truncation at every byte boundary either errors or roundtrips — it
        // must never panic.
        for cut in 0..image.len() {
            let _ = Object::from_image(&image[..cut]);
        }
        // Trailing garbage.
        let mut long = image.clone();
        long.push(0);
        assert!(matches!(Object::from_image(&long), Err(ObjError::CorruptImage(_))));
    }

    /// `image` cut at the sorted offsets `cuts`: the pieces a reassembler
    /// would hand back, empty ones included.
    fn split<'a>(image: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut pieces = Vec::new();
        let mut start = 0;
        for &cut in cuts {
            pieces.push(&image[start..cut]);
            start = cut;
        }
        pieces.push(&image[start..]);
        pieces
    }

    /// The pieces of `image` must build the object `from_image` makes of
    /// it, its heap written once into a buffer of exactly its size.
    fn build(image: &[u8], cuts: &[usize]) -> Object {
        let expected = Object::from_image(image).unwrap();
        let built = Object::from_pieces(&split(image, cuts)).unwrap();
        assert_eq!(built, expected, "cuts {cuts:?}");
        assert_eq!(built.heap.capacity(), built.heap.len(), "cuts {cuts:?}");
        built
    }

    /// A pointer-carrying object, its image, and the length of its head.
    /// The pointer to `(7, 512)` is stored at offset [`POINTER_CELL`].
    fn pointer_rich() -> (Object, Vec<u8>, usize) {
        let mut o = obj();
        let a = o.alloc(24).unwrap();
        o.write(a, b"payload payload payload!").unwrap();
        let p = o.make_ptr(id(7), 512, FotFlags::RW).unwrap();
        let cell = o.alloc(8).unwrap();
        assert_eq!(cell, POINTER_CELL);
        o.write_ptr(cell, p).unwrap();
        let image = o.to_image();
        let head = o.image_parts(0).0.len();
        (o, image, head)
    }

    const POINTER_CELL: u64 = 32;

    #[test]
    fn an_object_is_built_from_pieces_with_one_heap_copy() {
        let (o, image, head) = pointer_rich();
        assert_eq!(image.capacity(), image.len(), "an image is written once, into its own size");
        let (head_bytes, heap) = o.image_parts(0);
        assert_eq!([&head_bytes[..], heap].concat(), image, "the image is head then heap");
        assert_eq!(head_bytes.capacity(), head, "the head alone is sized exactly too");
        // Cut inside the head (the joined fallback), at its end, and
        // through the heap; empty pieces anywhere.
        for cuts in [
            vec![],
            vec![3],
            vec![head - 1],
            vec![head],
            vec![head + 1],
            vec![head, head],
            vec![0, head + 8, image.len()],
            vec![head + 5, head + 9, image.len() - 1],
        ] {
            let mut moved = build(&image, &cuts);
            assert_eq!(moved.to_image(), image);
            let p = moved.read_ptr(POINTER_CELL).unwrap();
            assert_eq!(moved.resolve_ptr(p).unwrap(), (id(7), 512));
            // The built heap is an ordinary heap: it grows on the next alloc.
            let fresh = moved.alloc(4096).unwrap();
            moved.write_u64(fresh, 1).unwrap();
        }
        // An object with no heap at all: the head is the whole image.
        let empty = obj().to_image();
        build(&empty, &[]);
        build(&empty, &[empty.len()]);
        build(&empty, &[10]);
    }

    #[test]
    fn pieces_and_whole_images_fail_for_the_same_reasons() {
        let (_, image, head) = pointer_rich();
        let reason = |r: ObjResult<Object>| match r {
            Err(ObjError::CorruptImage(why)) => why,
            other => panic!("expected CorruptImage, got {other:?}"),
        };
        let mut nil = image.clone();
        nil[5..21].fill(0);
        let mut long = image.clone();
        long.push(0);
        let cases = [
            (image[..3].to_vec(), "truncated magic"),
            (nil, "nil id"),
            (image[..image.len() - 1].to_vec(), "truncated heap"),
            (long, "trailing bytes"),
        ];
        for (bad, why) in cases {
            assert_eq!(reason(Object::from_image(&bad)), why);
            // One cut anywhere, and two around the end of the head.
            for cut in 0..=bad.len() {
                assert_eq!(reason(Object::from_pieces(&split(&bad, &[cut]))), why, "cut {cut}");
            }
            let around = [head.min(bad.len()) - 1, (head + 1).min(bad.len())];
            assert_eq!(reason(Object::from_pieces(&split(&bad, &around))), why);
        }
        // Every truncation, cut into two pieces every way, fails as the
        // joined bytes do.
        for len in 0..image.len() {
            let short = &image[..len];
            let whole = Object::from_image(short);
            assert!(whole.is_err());
            for cut in 0..=len {
                assert_eq!(
                    Object::from_pieces(&split(short, &[cut])),
                    whole,
                    "len {len} cut {cut}"
                );
            }
        }
        assert_eq!(reason(Object::from_pieces::<&[u8]>(&[])), "truncated magic");
    }

    #[test]
    fn pieces_that_disagree_with_the_heap_length_are_errors_not_panics() {
        let (_, image, head) = pointer_rich();
        let pieces = split(&image, &[head + 4]);
        let reason = |pieces: &[&[u8]]| match Object::from_pieces(pieces) {
            Err(ObjError::CorruptImage(why)) => why,
            other => panic!("expected CorruptImage, got {other:?}"),
        };
        // A piece missing, a piece too many, a piece repeated.
        assert_eq!(reason(&pieces[..1]), "truncated heap");
        assert_eq!(reason(&[pieces[0], pieces[1], &b"x"[..]]), "trailing bytes");
        assert_eq!(reason(&[pieces[0], pieces[1], pieces[1]]), "trailing bytes");
        // A head that declares more heap than any buffer could hold.
        let mut huge = image[..head].to_vec();
        huge[head - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(reason(&[&huge[..], &image[head..]]), "truncated heap");
        assert_eq!(reason(&[&huge[..]]), "truncated heap");
    }

    #[test]
    fn capacity_is_respected() {
        let mut o = Object::with_capacity(id(1), ObjectKind::Data, 64);
        assert!(o.alloc(32).is_ok());
        assert!(matches!(o.alloc(64), Err(ObjError::OutOfMemory { .. })));
    }

    proptest! {
        #[test]
        fn prop_image_roundtrip(
            writes in proptest::collection::vec((0u64..64, any::<u64>()), 0..20),
            refs in proptest::collection::vec(1u128..50, 0..10),
        ) {
            let mut o = Object::with_capacity(id(9), ObjectKind::Data, 1 << 16);
            let base = o.alloc(64 * 8).unwrap();
            for (slot, val) in &writes {
                o.write_u64(base + slot * 8, *val).unwrap();
            }
            for r in &refs {
                o.make_ptr(id(*r), 8, FotFlags::RO).unwrap();
            }
            let back = Object::from_image(&o.to_image()).unwrap();
            prop_assert_eq!(&back, &o);
            for (slot, _) in &writes {
                prop_assert_eq!(back.read_u64(base + slot * 8).unwrap(), o.read_u64(base + slot * 8).unwrap());
            }
        }

        #[test]
        fn prop_every_split_builds_the_object(
            writes in proptest::collection::vec((0u64..64, any::<u64>()), 0..20),
            refs in proptest::collection::vec(1u128..50, 0..10),
            cuts in proptest::collection::vec(any::<usize>(), 0..16),
        ) {
            let mut o = Object::with_capacity(id(9), ObjectKind::Data, 1 << 16);
            let base = o.alloc(64 * 8).unwrap();
            for (slot, val) in &writes {
                o.write_u64(base + slot * 8, *val).unwrap();
            }
            for r in &refs {
                o.make_ptr(id(*r), 8, FotFlags::RO).unwrap();
            }
            let image = o.to_image();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (image.len() + 1)).collect();
            cuts.sort_unstable();
            prop_assert_eq!(build(&image, &cuts), o);
        }
    }
}
