//! Intra-object memory allocator.
//!
//! Objects "act like pools of memory where smaller data structures can be
//! placed" (§3.1). [`ObjAllocator`] manages the data heap of one object: a
//! bump frontier plus size-class free lists. Its state is part of the object
//! and is serialized into the object image, so an object that moves hosts
//! keeps its allocator exactly.
//!
//! Offset 0 is permanently reserved: a null [`crate::ptr::InvPtr`] has
//! offset 0, so no allocation may ever be placed there.

use std::collections::BTreeMap;

use crate::error::{ObjError, ObjResult};
use rdv_wire::{Decode, Encode, WireReader, WireResult, WireWriter};

/// Allocation granularity and minimum alignment, in bytes.
pub const ALLOC_ALIGN: u64 = 8;

/// Bump + free-list allocator over a single object's heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjAllocator {
    /// Next never-allocated offset.
    bump: u64,
    /// Heap capacity limit.
    limit: u64,
    /// size → offsets of freed blocks of exactly that (rounded) size.
    free: BTreeMap<u64, Vec<u64>>,
}

/// Round `size` up to the allocation granularity (zero-size requests take
/// one granule so every allocation has a distinct address).
pub fn round_up(size: u64) -> u64 {
    size.div_ceil(ALLOC_ALIGN).max(1) * ALLOC_ALIGN
}

impl ObjAllocator {
    /// New allocator for a heap of `limit` bytes. The first granule is
    /// reserved (offset 0 must stay unallocated).
    pub fn new(limit: u64) -> ObjAllocator {
        ObjAllocator { bump: ALLOC_ALIGN, limit, free: BTreeMap::new() }
    }

    /// Heap capacity.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Current bump frontier (high-water mark of the heap).
    pub fn high_water(&self) -> u64 {
        self.bump
    }

    /// Bytes currently reusable from free lists.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|(sz, offs)| sz * offs.len() as u64).sum()
    }

    /// Allocate `size` bytes (rounded up to the granule), returning the
    /// offset of the block.
    pub fn alloc(&mut self, size: u64) -> ObjResult<u64> {
        let size = round_up(size);
        // Exact-fit free list first.
        if let Some(offs) = self.free.get_mut(&size) {
            if let Some(off) = offs.pop() {
                if offs.is_empty() {
                    self.free.remove(&size);
                }
                return Ok(off);
            }
        }
        let off = self.bump;
        let end =
            off.checked_add(size).ok_or(ObjError::OutOfMemory { requested: size, available: 0 })?;
        if end > self.limit {
            return Err(ObjError::OutOfMemory {
                requested: size,
                available: self.limit - self.bump,
            });
        }
        self.bump = end;
        Ok(off)
    }

    /// Bytes [`Encode::encode`] writes for this allocator.
    pub fn encoded_len(&self) -> usize {
        20 + self.free.values().map(|offs| 12 + 8 * offs.len()).sum::<usize>()
    }

    /// Return a block to the allocator.
    ///
    /// The caller must pass the same `size` it allocated with (as is
    /// conventional for pool allocators). Freeing offset 0 is rejected.
    pub fn free(&mut self, offset: u64, size: u64) -> ObjResult<()> {
        if offset == 0 {
            return Err(ObjError::NullPointer);
        }
        let size = round_up(size);
        if offset + size > self.bump {
            return Err(ObjError::OutOfBounds { offset, len: size, size: self.bump });
        }
        self.free.entry(size).or_default().push(offset);
        Ok(())
    }
}

impl Encode for ObjAllocator {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.bump);
        w.put_u64(self.limit);
        w.put_u32(self.free.len() as u32);
        for (size, offs) in &self.free {
            w.put_u64(*size);
            w.put_u32(offs.len() as u32);
            for off in offs {
                w.put_u64(*off);
            }
        }
    }
}

impl Decode for ObjAllocator {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let bump = r.get_u64()?;
        let limit = r.get_u64()?;
        let classes = r.get_u32()?;
        let mut free = BTreeMap::new();
        for _ in 0..classes {
            let size = r.get_u64()?;
            let count = r.get_u32()?;
            let mut offs = Vec::with_capacity((count as usize).min(4096));
            for _ in 0..count {
                offs.push(r.get_u64()?);
            }
            free.insert(size, offs);
        }
        Ok(ObjAllocator { bump, limit, free })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn never_returns_offset_zero() {
        let mut a = ObjAllocator::new(1 << 20);
        for _ in 0..100 {
            assert_ne!(a.alloc(8).unwrap(), 0);
        }
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut a = ObjAllocator::new(1 << 20);
        let x = a.alloc(16).unwrap();
        let y = a.alloc(16).unwrap();
        assert!(x + 16 <= y || y + 16 <= x);
    }

    #[test]
    fn rounding_and_zero_size() {
        assert_eq!(round_up(0), ALLOC_ALIGN);
        assert_eq!(round_up(1), ALLOC_ALIGN);
        assert_eq!(round_up(8), 8);
        assert_eq!(round_up(9), 16);
        let mut a = ObjAllocator::new(64);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn exhaustion_reports_available() {
        let mut a = ObjAllocator::new(32);
        a.alloc(16).unwrap(); // bump now 24 (8 reserved + 16)
        match a.alloc(16) {
            Err(ObjError::OutOfMemory { requested: 16, available }) => {
                assert_eq!(available, 8);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut a = ObjAllocator::new(1 << 12);
        let x = a.alloc(32).unwrap();
        a.free(x, 32).unwrap();
        let y = a.alloc(32).unwrap();
        assert_eq!(x, y);
        assert_eq!(a.free_bytes(), 0);
    }

    #[test]
    fn free_rejects_bad_args() {
        let mut a = ObjAllocator::new(1 << 12);
        assert!(matches!(a.free(0, 8), Err(ObjError::NullPointer)));
        assert!(matches!(a.free(1 << 11, 8), Err(ObjError::OutOfBounds { .. })));
    }

    #[test]
    fn state_survives_image_roundtrip() {
        let mut a = ObjAllocator::new(1 << 12);
        let x = a.alloc(32).unwrap();
        a.alloc(64).unwrap();
        a.free(x, 32).unwrap();
        let y = a.alloc(16).unwrap();
        a.free(y, 16).unwrap();
        let bytes = rdv_wire::encode_to_vec(&a);
        assert_eq!(bytes.len(), a.encoded_len());
        assert_eq!(ObjAllocator::new(64).encoded_len(), 20);
        let back: ObjAllocator = rdv_wire::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, a);
    }

    proptest! {
        #[test]
        fn prop_live_allocations_never_overlap(sizes in proptest::collection::vec(1u64..256, 1..64)) {
            let mut a = ObjAllocator::new(1 << 20);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (i, &sz) in sizes.iter().enumerate() {
                let off = a.alloc(sz).unwrap();
                let rsz = round_up(sz);
                for &(o, s) in &live {
                    prop_assert!(off + rsz <= o || o + s <= off, "overlap: [{off},{}) vs [{o},{})", off + rsz, o + s);
                }
                live.push((off, rsz));
                // Periodically free one block to exercise reuse.
                if i % 5 == 4 {
                    let (o, s) = live.swap_remove(i % live.len());
                    a.free(o, s).unwrap();
                }
            }
        }

        #[test]
        fn prop_roundtrip_preserves_behaviour(sizes in proptest::collection::vec(1u64..64, 1..32)) {
            let mut a = ObjAllocator::new(1 << 16);
            for &sz in &sizes {
                a.alloc(sz).unwrap();
            }
            let bytes = rdv_wire::encode_to_vec(&a);
            let mut back: ObjAllocator = rdv_wire::decode_from_slice(&bytes).unwrap();
            // Next allocation from the copy matches the original.
            prop_assert_eq!(back.alloc(8).unwrap(), a.alloc(8).unwrap());
        }
    }
}
