//! Observed-remove set.
//!
//! Add wins over concurrent remove; removal only deletes the *observed*
//! add-tags, so a re-add after removal is a distinct element instance.
//!
//! Storage is flat — live and tombstoned add-tags are two ascending vectors
//! of `(element, tag)` pairs, an element's tags one contiguous run — so a
//! clone is three copies and a merge a linear walk. The wire format is the
//! nested one: element → tag list, live then tombstoned, then the counters.

use rdv_wire::{Decode, Encode, WireReader, WireResult, WireWriter};

use crate::sorted::{decode_pairs, max_into, union_into};
use crate::{Merge, ReplicaId};

/// A unique tag for one add operation.
type Tag = (ReplicaId, u64);

/// An observed-remove set over ordered element types.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrSet<T: Ord> {
    /// Live add-tags, ascending; never holds a pair that is also in `dead`.
    live: Vec<(T, Tag)>,
    /// Tombstoned add-tags, ascending (kept for correct merges).
    dead: Vec<(T, Tag)>,
    /// Per-replica tag counter, ascending by replica.
    next: Vec<(ReplicaId, u64)>,
    /// Distinct elements in `live`.
    len: usize,
}

/// The runs of pairs sharing one element, in element order.
fn runs<T: Ord>(pairs: &[(T, Tag)]) -> impl Iterator<Item = &[(T, Tag)]> {
    pairs.chunk_by(|a, b| a.0 == b.0)
}

impl<T: Ord + Clone> OrSet<T> {
    /// Empty set.
    pub fn new() -> OrSet<T> {
        OrSet { live: Vec::new(), dead: Vec::new(), next: Vec::new(), len: 0 }
    }

    /// Add `value` at `replica`.
    pub fn add(&mut self, replica: ReplicaId, value: T) {
        let slot = self.next.partition_point(|e| e.0 < replica);
        if self.next.get(slot).is_none_or(|e| e.0 != replica) {
            self.next.insert(slot, (replica, 0));
        }
        let pair = (value, (replica, self.next[slot].1));
        self.next[slot].1 += 1;
        // A decoded counter table may lag the tags it came with: a tag we
        // already hold is not a new add.
        if let Err(at) = self.live.binary_search(&pair) {
            self.len += usize::from(!self.contains(&pair.0));
            self.live.insert(at, pair);
        }
    }

    /// Remove `value`: tombstones every currently observed add-tag.
    pub fn remove(&mut self, value: &T) {
        let lo = self.live.partition_point(|p| p.0 < *value);
        let hi = lo + self.live[lo..].partition_point(|p| p.0 == *value);
        if lo < hi {
            let observed: Vec<(T, Tag)> = self.live.drain(lo..hi).collect();
            union_into(&mut self.dead, &observed);
            self.len -= 1;
        }
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        let at = self.live.partition_point(|p| p.0 < *value);
        self.live.get(at).is_some_and(|p| p.0 == *value)
    }

    /// Live elements in order, without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        runs(&self.live).map(|run| &run[0].0)
    }

    /// Live elements in order.
    pub fn elements(&self) -> Vec<&T> {
        self.iter().collect()
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live elements exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`Merge::merge`] that also reports whether `self` changed. When
    /// `other` holds nothing new this is three read-only walks.
    pub fn join(&mut self, other: &Self) -> bool {
        // Union tombstones, strip what they newly kill, then union the
        // adds that are not tombstoned.
        let dead_grew = union_into(&mut self.dead, &other.dead);
        let before = self.live.len();
        let dead = &self.dead;
        if dead_grew {
            self.live.retain(|p| dead.binary_search(p).is_err());
        }
        let live_moved = union_into(
            &mut self.live,
            other.live.iter().filter(|p| dead.binary_search(p).is_err()),
        ) || self.live.len() != before;
        if live_moved {
            self.len = runs(&self.live).count();
        }
        // Advance per-replica counters to avoid tag reuse after a merge.
        let next_moved = max_into(&mut self.next, &other.next);
        dead_grew || live_moved || next_moved
    }
}

impl<T: Ord + Clone> Merge for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        self.join(other);
    }
}

fn encode_runs<T: Ord + Encode>(pairs: &[(T, Tag)], w: &mut WireWriter) {
    w.put_uvarint(runs(pairs).count() as u64);
    for run in runs(pairs) {
        run[0].0.encode(w);
        w.put_uvarint(run.len() as u64);
        for (_, tag) in run {
            tag.encode(w);
        }
    }
}

impl<T: Ord + Encode> Encode for OrSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        encode_runs(&self.live, w);
        encode_runs(&self.dead, w);
        self.next.encode(w);
    }
}

/// Smallest encoding of one element (value + tag count) or one tag (two
/// varints): what a count prefix is checked against before reserving.
const MIN_ENTRY_BYTES: usize = 2;

fn decode_runs<T: Ord + Decode + Clone>(r: &mut WireReader<'_>) -> WireResult<Vec<(T, Tag)>> {
    let n = r.get_count(MIN_ENTRY_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let v = T::decode(r)?;
        for _ in 0..r.get_count(MIN_ENTRY_BYTES)? {
            out.push((v.clone(), Tag::decode(r)?));
        }
    }
    // Our own encoder writes ascending pairs; anything else is put in order.
    if !out.is_sorted_by(|a, b| a < b) {
        out.sort();
        out.dedup();
    }
    Ok(out)
}

impl<T: Ord + Decode + Clone> Decode for OrSet<T> {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let mut live = decode_runs(r)?;
        let dead = decode_runs(r)?;
        live.retain(|p| dead.binary_search(p).is_err());
        let len = runs(&live).count();
        Ok(OrSet { live, dead, next: decode_pairs(r)?, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn add_then_remove() {
        let mut s = OrSet::new();
        s.add(1, "x");
        assert!(s.contains(&"x"));
        s.remove(&"x");
        assert!(!s.contains(&"x"));
        assert!(s.is_empty());
    }

    #[test]
    fn add_wins_over_concurrent_remove() {
        // Replica A adds x; replica B (having seen an older add) removes x
        // concurrently while A re-adds. A's unobserved add survives.
        let mut base: OrSet<&str> = OrSet::new();
        base.add(1, "x");
        let mut a = base.clone();
        let mut b = base.clone();
        b.remove(&"x"); // observes only the original add
        a.add(1, "x"); // a fresh, unobserved add
        a.merge(&b);
        assert!(a.contains(&"x"), "unobserved add must survive the remove");
        // Symmetric merge agrees.
        let mut b2 = b.clone();
        b2.merge(&a);
        assert!(b2.contains(&"x"));
    }

    #[test]
    fn re_add_after_remove_works() {
        let mut s = OrSet::new();
        s.add(1, 7u64);
        s.remove(&7);
        s.add(1, 7);
        assert!(s.contains(&7));
    }

    #[test]
    fn wire_roundtrip() {
        let mut s = OrSet::new();
        s.add(1, String::from("a"));
        s.add(2, String::from("b"));
        s.remove(&String::from("a"));
        let bytes = rdv_wire::encode_to_vec(&s);
        let back: OrSet<String> = rdv_wire::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, s);
        assert!(back.contains(&String::from("b")));
        assert!(!back.contains(&String::from("a")));
    }

    /// Bytes the nested-map implementation wrote for this set at the
    /// commit before the flat storage landed. `results/a4.json` and the
    /// gossip delta format both ride on this layout.
    #[test]
    fn encoding_is_pinned() {
        let mut a: OrSet<u64> = OrSet::new();
        a.add(1, 10);
        a.add(2, 20);
        a.add(1, 10);
        a.add(1, 30);
        a.remove(&20);
        a.add(2, 20);
        let mut b: OrSet<u64> = OrSet::new();
        b.add(3, 40);
        b.add(3, 10);
        b.remove(&10);
        a.merge(&b);
        let golden = [
            0x04, 0x0a, 0x02, 0x01, 0x00, 0x01, 0x01, 0x14, 0x01, 0x02, 0x01, 0x1e, 0x01, 0x01,
            0x02, 0x28, 0x01, 0x03, 0x00, 0x02, 0x0a, 0x01, 0x03, 0x01, 0x14, 0x01, 0x02, 0x00,
            0x03, 0x01, 0x03, 0x02, 0x02, 0x03, 0x02,
        ];
        assert_eq!(rdv_wire::encode_to_vec(&a), golden);
        assert_eq!(a.elements(), [&10, &20, &30, &40]);
        assert_eq!(rdv_wire::decode_from_slice::<OrSet<u64>>(&golden).unwrap(), a);
    }

    #[test]
    fn decode_puts_foreign_order_right() {
        // Elements descending, one element's tags descending and repeated,
        // a live tag that is also tombstoned, counters out of order.
        let mut w = WireWriter::new();
        w.put_uvarint(2);
        for (v, tags) in [(9u64, &[(2u64, 1u64), (1, 0), (2, 1)][..]), (4, &[(1, 1)][..])] {
            w.put_uvarint(v);
            w.put_uvarint(tags.len() as u64);
            for (r, n) in tags {
                w.put_uvarint(*r);
                w.put_uvarint(*n);
            }
        }
        w.put_uvarint(1); // tombstones: 4 → {(1, 1)}
        for x in [4, 1, 1, 1] {
            w.put_uvarint(x);
        }
        w.put_uvarint(3); // counters: 2 → 2, 1 → 2, 2 → 1
        for x in [2, 2, 1, 2, 2, 1] {
            w.put_uvarint(x);
        }
        let s: OrSet<u64> = rdv_wire::decode_from_slice(&w.into_vec()).unwrap();
        assert_eq!((s.elements(), s.len()), (vec![&9], 1));
        let mut clean = OrSet::new();
        clean.add(1, 9);
        clean.add(2, 7);
        clean.add(2, 9);
        clean.add(1, 4);
        clean.remove(&7);
        clean.remove(&4);
        let mut merged = clean.clone();
        assert!(!merged.join(&s), "the decoded set is a sub-state of its honest twin");
        assert_eq!(merged, clean);
    }

    #[test]
    fn hostile_counts_fail_typed_before_reserving() {
        for frame in [&[0xff, 0xff, 0xff, 0x07][..], &[0x01, 0x05, 0xff, 0xff, 0xff, 0x07]] {
            assert!(matches!(
                rdv_wire::decode_from_slice::<OrSet<u64>>(frame),
                Err(rdv_wire::WireError::UnexpectedEof { .. })
            ));
        }
    }

    /// The nested-map OR-set this module used to be, kept as the oracle for
    /// the flat one: same operations and wire layout, written the obvious
    /// way.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Model {
        adds: BTreeMap<u64, BTreeSet<Tag>>,
        removed: BTreeMap<u64, BTreeSet<Tag>>,
        next: BTreeMap<ReplicaId, u64>,
    }

    impl Model {
        fn add(&mut self, replica: ReplicaId, value: u64) {
            let n = self.next.entry(replica).or_insert(0);
            self.adds.entry(value).or_default().insert((replica, *n));
            *n += 1;
        }

        fn remove(&mut self, value: u64) {
            if let Some(observed) = self.adds.remove(&value) {
                self.removed.entry(value).or_default().extend(observed);
            }
        }

        fn merge(&mut self, other: &Model) {
            for (v, tags) in &other.removed {
                self.removed.entry(*v).or_default().extend(tags);
            }
            for (v, tags) in &other.adds {
                self.adds.entry(*v).or_default().extend(tags);
            }
            let removed = &self.removed;
            self.adds.retain(|v, tags| {
                if let Some(dead) = removed.get(v) {
                    tags.retain(|t| !dead.contains(t));
                }
                !tags.is_empty()
            });
            for (&r, &n) in &other.next {
                let slot = self.next.entry(r).or_insert(0);
                *slot = (*slot).max(n);
            }
        }

        fn encode(&self) -> Vec<u8> {
            let mut w = WireWriter::new();
            for m in [&self.adds, &self.removed] {
                w.put_uvarint(m.len() as u64);
                for (v, tags) in m {
                    w.put_uvarint(*v);
                    w.put_uvarint(tags.len() as u64);
                    for (r, n) in tags {
                        w.put_uvarint(*r);
                        w.put_uvarint(*n);
                    }
                }
            }
            self.next.encode(&mut w);
            w.into_vec()
        }
    }

    fn build(ops: &[(u8, u8, bool)]) -> OrSet<u64> {
        let mut s = OrSet::new();
        for &(rep, v, add) in ops {
            if add {
                s.add(u64::from(rep % 3), u64::from(v % 8));
            } else {
                s.remove(&u64::from(v % 8));
            }
        }
        s
    }

    proptest! {
        /// Three replicas (sharing replica IDs, so tags collide across
        /// them) take random adds, removes and merges; after every step
        /// the flat set must be indistinguishable from the model.
        #[test]
        fn prop_flat_matches_nested_model(
            ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3, 0u64..8), 1..40),
        ) {
            let mut flat: [OrSet<u64>; 3] = Default::default();
            let mut model: [Model; 3] = Default::default();
            for (kind, a, b, v) in ops {
                let (a, b) = (a as usize, b as usize);
                match kind {
                    0 | 1 => {
                        flat[a].add(b as u64, v);
                        model[a].add(b as u64, v);
                    }
                    2 => {
                        flat[a].remove(&v);
                        model[a].remove(v);
                    }
                    _ => {
                        let (src, before) = (flat[b].clone(), model[a].clone());
                        let changed = flat[a].join(&src);
                        let theirs = model[b].clone();
                        model[a].merge(&theirs);
                        prop_assert_eq!(changed, model[a] != before, "join misreported change");
                    }
                }
                let (f, m) = (&flat[a], &model[a]);
                prop_assert_eq!(f.elements(), m.adds.keys().collect::<Vec<_>>());
                prop_assert_eq!(f.len(), m.adds.len());
                prop_assert_eq!(f.is_empty(), m.adds.is_empty());
                for probe in 0..8 {
                    prop_assert_eq!(f.contains(&probe), m.adds.contains_key(&probe));
                }
                let bytes = rdv_wire::encode_to_vec(f);
                prop_assert_eq!(&bytes, &m.encode(), "wire bytes drifted from the nested layout");
                prop_assert_eq!(&rdv_wire::decode_from_slice::<OrSet<u64>>(&bytes).unwrap(), f);
            }
        }

        #[test]
        fn prop_laws(
            a in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
            b in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
            c in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        ) {
            // Disjoint replica spaces per proptest case would be unrealistic;
            // shared replicas with shared tag counters stress merge harder.
            let (a, b, c) = (build(&a), build(&b), build(&c));
            laws::commutative(&a, &b);
            laws::associative(&a, &b, &c);
            laws::idempotent(&a);
        }
    }
}
