//! Deterministic hash collections.
//!
//! `std::collections::HashMap` iterates in an order derived from a
//! per-process random hasher seed, so any code that walks a map — emitting
//! packets, merging stats, picking "the first" matching entry — is a latent
//! cross-process nondeterminism bug even when every run uses the same sim
//! seed. [`DetMap`] and [`DetSet`] keep the O(1) hashed lookup but iterate
//! in **first-insertion order**, which is a pure function of the operation
//! sequence and therefore identical across processes, platforms, and runs.
//!
//! Ordering contract (also documented in DESIGN.md "Determinism rules"):
//!
//! * Iteration yields entries in the order their keys were first inserted.
//! * Re-inserting a live key updates the value **in place** (position kept).
//! * Removing a key keeps the order of the survivors; re-inserting a
//!   removed key appends at the end like a fresh key.
//! * [`DetMap::retain`] preserves the order of surviving entries.
//!
//! # What a table costs
//!
//! | `get` / `contains_key` | `insert` / `entry` | `remove` | `iter` |
//! |---|---|---|---|
//! | O(1) expected | O(1) amortised | O(1) amortised | O(live), at most 2 × live slots walked |
//!
//! Entries live in slots in insertion order (`keys` beside `vals`, so the
//! liveness tag of a slot costs what `Option<V>` costs over `V`: one byte
//! in a [`DetSet`], nothing when `V` has a niche). `remove` tombstones the
//! slot instead of shifting every later entry: trailing tombstones are
//! popped at once, and when dead slots outnumber live ones the live
//! entries are packed down and their index buckets re-slotted. Each
//! compaction is paid for by the removals that caused it, and *when* it
//! runs depends only on the operation sequence, so it cannot perturb a
//! run.
//!
//! The key → slot index stores no key. It is an open-addressed
//! `Vec<u64>` with a power-of-two length; a bucket is 0 when empty, else
//! `tag << 32 | (slot + 1)`, where `tag` is the low 32 bits of the key's
//! hash. An entry's home bucket is `tag & mask`, and lookups probe
//! linearly from there, comparing the tag and then `keys[slot]`. The load
//! stays at most 3/4, with 8 buckets at least. A home bucket is a function
//! of the tag alone, so growing re-places buckets without hashing a key,
//! and `remove` shifts the rest of its probe run back instead of leaving a
//! tombstone.
//!
//! Per entry a table therefore holds its slot, `size_of::<K>()` plus
//! `size_of::<Option<V>>()`, and 10.7–21.3 B of index (8 B a bucket, at
//! 4/3 to 8/3 buckets per entry). A switch's flood-dedup set at the end of
//! rdvperf's `discovery_stale`, a `DetSet<(u128, u64)>` of 39 505 members,
//! holds 2.69 MB: 2.10 MB of keys, 66 kB of liveness bytes and 524 kB of
//! buckets, 68 B a 32 B member. With a std `HashMap<K, usize>` as the
//! index, which kept a second copy of every key, it held 5.37 MB.
//!
//! # The hasher
//!
//! The index is never iterated, so its hash function cannot leak into
//! observable behavior; it only has to be fast and spread well. It is
//! `FixedHasher`, a multiply-rotate hasher with a constant key: no
//! per-process random state. What SipHash's random key buys — resistance
//! to colliding keys chosen by an adversary — buys nothing here: every key
//! in these tables is minted by the simulation itself (object ids, request
//! counters, script indices), never read from outside the process.
//!
//! Workspace code in the deterministic crates must use these types
//! instead of the std hash collections; `rdv-lint` rule D1 enforces that.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Multiply-rotate hasher with a constant key (see the module docs).
///
/// Each word is folded in Fx-style (`rotate ^ word`, then one multiply).
/// A bare multiply only carries input bits *upwards*, and the index picks
/// the home bucket from the low bits, so [`Hasher::finish`] folds the
/// 128-bit product of a second multiply: keys that differ only in high
/// bits (`inbox << 20 ^ n` trace ids, `ObjId(0x1_0000 + i)`) still spread
/// over the low-bit bucket mask.
#[derive(Clone, Copy, Default)]
struct FixedHasher(u64);
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const FOLD: u64 = 0xD6E8_FEB8_6659_FD93;

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MUL);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(FOLD);
        (wide as u64) ^ (wide >> 64) as u64
    }
}

/// `key`'s hash under [`FixedHasher`].
fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut hasher = FixedHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// The bucket that points a key of hash `hash` at slot `pos`.
fn bucket(hash: u64, pos: usize) -> u64 {
    hash << 32 | u64::from(u32::try_from(pos + 1).expect("fewer than 2^32 - 1 slots"))
}

/// The slot a full bucket points at.
fn slot_of(bucket: u64) -> usize {
    (bucket as u32 - 1) as usize
}

/// Fewest buckets an index holds once it holds any.
const MIN_BUCKETS: usize = 8;

/// Buckets that hold `len` entries at a load of at most 3/4.
fn buckets_for(len: usize) -> usize {
    match len {
        0 => 0,
        _ => (len * 4).div_ceil(3).next_power_of_two().max(MIN_BUCKETS),
    }
}

/// The key → slot index (see the module docs for the bucket layout). It
/// holds exactly the live slots.
#[derive(Clone, Default)]
struct Index {
    buckets: Vec<u64>,
}

impl Index {
    fn with_capacity(len: usize) -> Index {
        Index { buckets: vec![0; buckets_for(len)] }
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The home bucket of a full bucket's entry.
    fn home(&self, bucket: u64) -> usize {
        (bucket >> 32) as usize & self.mask()
    }

    /// The bucket of the entry whose key is `key` (of hash `hash`).
    fn find<K: Borrow<Q>, Q: Eq + ?Sized>(&self, keys: &[K], hash: u64, key: &Q) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let tag = hash as u32;
        let mut i = tag as usize & self.mask();
        loop {
            match self.buckets[i] {
                0 => return None,
                b if (b >> 32) as u32 == tag && keys[slot_of(b)].borrow() == key => return Some(i),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Put `bucket` in the first empty bucket of its probe run; the caller
    /// has made room.
    fn place(&mut self, bucket: u64) {
        let mut i = self.home(bucket);
        while self.buckets[i] != 0 {
            i = (i + 1) & self.mask();
        }
        self.buckets[i] = bucket;
    }

    /// Make room for `len` entries, re-placing every entry from its tag
    /// when the bucket array doubles.
    fn reserve(&mut self, len: usize) {
        if len * 4 > self.buckets.len() * 3 {
            let old = std::mem::replace(&mut self.buckets, vec![0; buckets_for(len)]);
            for b in old.into_iter().filter(|&b| b != 0) {
                self.place(b);
            }
        }
    }

    /// Empty bucket `hole` by backward-shift deletion: each later entry of
    /// the probe run moves back into the hole unless its home lies
    /// (cyclically) after the hole, so no lookup ever meets a gap before
    /// its entry and no tombstone is needed.
    fn erase(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let b = self.buckets[i];
            if b == 0 {
                break;
            }
            if i.wrapping_sub(self.home(b)) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = b;
                hole = i;
            }
        }
        self.buckets[hole] = 0;
    }

    /// Point the entry of hash `hash` at slot `to` instead of `from`.
    fn reslot(&mut self, hash: u64, from: usize, to: usize) {
        let old = bucket(hash, from);
        let mut i = self.home(old);
        while self.buckets[i] != old {
            i = (i + 1) & self.mask();
        }
        self.buckets[i] = bucket(hash, to);
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
    }
}

/// A hash map with deterministic (first-insertion-order) iteration.
///
/// Lookup, insert, and removal are O(1) expected (removal amortised: see
/// the module docs), backed by a private key → slot index; all iteration
/// is over the slot vectors.
#[derive(Clone)]
pub struct DetMap<K, V> {
    index: Index,
    /// Slot keys, in first-insertion order. `keys[i]` of a dead slot is
    /// the removed key, kept until the slot is trimmed or compacted away.
    keys: Vec<K>,
    /// Slot values; `None` marks a dead (removed) slot.
    vals: Vec<Option<V>>,
    /// Number of live slots (`Some` values) — the map's length.
    live: usize,
}

impl<K: Eq + Hash, V> DetMap<K, V> {
    /// Empty map.
    pub fn new() -> DetMap<K, V> {
        DetMap { index: Index::default(), keys: Vec::new(), vals: Vec::new(), live: 0 }
    }

    /// Empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> DetMap<K, V> {
        DetMap {
            index: Index::with_capacity(cap),
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn val(&self, pos: usize) -> &V {
        self.vals[pos].as_ref().expect("indexed slot is live")
    }

    fn val_mut(&mut self, pos: usize) -> &mut V {
        self.vals[pos].as_mut().expect("indexed slot is live")
    }

    /// The slot of live key `key` (of hash `hash`).
    fn slot<Q>(&self, hash: u64, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.index.find(&self.keys, hash, key).map(|i| slot_of(self.index.buckets[i]))
    }

    /// Append a fresh key of hash `hash` in a new last slot; returns the
    /// slot.
    fn push(&mut self, key: K, value: V, hash: u64) -> usize {
        let pos = self.keys.len();
        self.index.reserve(self.live + 1);
        self.index.place(bucket(hash, pos));
        self.keys.push(key);
        self.vals.push(Some(value));
        self.live += 1;
        pos
    }

    /// Insert `key → value`. Returns the previous value if the key was live
    /// (the key keeps its original iteration position in that case).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_of(&key);
        match self.slot(hash, &key) {
            Some(pos) => Some(std::mem::replace(self.val_mut(pos), value)),
            None => {
                self.push(key, value, hash);
                None
            }
        }
    }

    /// Shared reference to the value for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.slot(hash_of(key), key).map(|pos| self.val(pos))
    }

    /// Mutable reference to the value for `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.slot(hash_of(key), key) {
            Some(pos) => Some(self.val_mut(pos)),
            None => None,
        }
    }

    /// True when `key` is live.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.slot(hash_of(key), key).is_some()
    }

    /// Remove `key`, returning its value. Survivor iteration order is
    /// unchanged; O(1) amortised (the slot is tombstoned, not shifted out).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.index.find(&self.keys, hash_of(key), key)?;
        let pos = slot_of(self.index.buckets[i]);
        self.index.erase(i);
        let value = self.vals[pos].take();
        self.live -= 1;
        self.reclaim();
        value
    }

    /// Keep only entries for which `f` returns true, preserving order.
    /// When any entry goes, the index is rebuilt from the surviving slots.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let live = self.live;
        for (key, slot) in self.keys.iter().zip(self.vals.iter_mut()) {
            if let Some(value) = slot {
                if !f(key, value) {
                    *slot = None;
                    self.live -= 1;
                }
            }
        }
        if self.live < live {
            self.index.clear();
            for (pos, key) in self.keys.iter().enumerate() {
                if self.vals[pos].is_some() {
                    self.index.place(bucket(hash_of(key), pos));
                }
            }
            self.reclaim();
        }
    }

    /// Give back dead slots after a removal: pop trailing tombstones, and
    /// once dead slots outnumber live ones, pack the live entries down (in
    /// order) and re-slot their index buckets.
    fn reclaim(&mut self) {
        while let Some(None) = self.vals.last() {
            self.vals.pop();
            self.keys.pop();
        }
        if self.keys.len() - self.live <= self.live {
            return;
        }
        let mut to = 0;
        for from in 0..self.keys.len() {
            if self.vals[from].is_none() {
                continue;
            }
            if from != to {
                self.keys.swap(to, from);
                self.vals.swap(to, from);
                self.index.reslot(hash_of(&self.keys[to]), from, to);
            }
            to += 1;
        }
        self.keys.truncate(to);
        self.vals.truncate(to);
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
        self.vals.clear();
        self.live = 0;
    }

    /// In-place access to the entry for `key` (insert-if-absent patterns).
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let hash = hash_of(&key);
        let pos = self.slot(hash, &key);
        Entry { map: self, key, hash, pos }
    }

    /// Iterate `(key, value)` in first-insertion order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter { keys: self.keys.iter(), vals: self.vals.iter(), left: self.live }
    }

    /// Iterate `(key, mutable value)` in first-insertion order.
    pub fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        IterMut { keys: self.keys.iter(), vals: self.vals.iter_mut(), left: self.live }
    }

    /// Iterate keys in first-insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in first-insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate mutable values in first-insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Eq + Hash, V> Default for DetMap<K, V> {
    fn default() -> DetMap<K, V> {
        DetMap::new()
    }
}

impl<K: Eq + Hash + fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Content equality (order-insensitive, matching `std::collections::HashMap`).
impl<K: Eq + Hash, V: PartialEq> PartialEq for DetMap<K, V> {
    fn eq(&self, other: &DetMap<K, V>) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for DetMap<K, V> {}

impl<K, V, Q> std::ops::Index<&Q> for DetMap<K, V>
where
    K: Eq + Hash + Borrow<Q>,
    Q: Hash + Eq + ?Sized,
{
    type Output = V;
    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("key not present in DetMap")
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> DetMap<K, V> {
        let mut map = DetMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Eq + Hash, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;
    fn into_iter(self) -> IntoIter<K, V> {
        IntoIter { keys: self.keys.into_iter(), vals: self.vals.into_iter(), left: self.live }
    }
}

impl<'a, K: Eq + Hash, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<'a, K: Eq + Hash, V> IntoIterator for &'a mut DetMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = IterMut<'a, K, V>;
    fn into_iter(self) -> IterMut<'a, K, V> {
        self.iter_mut()
    }
}

/// One step of a slot walk: advance both slot vectors together, skip dead
/// slots, and count down the live entries left (so `size_hint` is exact
/// and `collect` allocates once).
fn next_live<K, V>(
    keys: &mut impl Iterator<Item = K>,
    mut vals: impl Iterator<Item = Option<V>>,
    left: &mut usize,
) -> Option<(K, V)> {
    loop {
        let key = keys.next()?;
        if let Some(value) = vals.next()? {
            *left -= 1;
            return Some((key, value));
        }
    }
}

/// Borrowing iterator over a [`DetMap`] in first-insertion order.
pub struct Iter<'a, K, V> {
    keys: std::slice::Iter<'a, K>,
    vals: std::slice::Iter<'a, Option<V>>,
    left: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        next_live(&mut self.keys, self.vals.by_ref().map(Option::as_ref), &mut self.left)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Mutably borrowing iterator over a [`DetMap`] in first-insertion order.
pub struct IterMut<'a, K, V> {
    keys: std::slice::Iter<'a, K>,
    vals: std::slice::IterMut<'a, Option<V>>,
    left: usize,
}

impl<'a, K, V> Iterator for IterMut<'a, K, V> {
    type Item = (&'a K, &'a mut V);
    fn next(&mut self) -> Option<(&'a K, &'a mut V)> {
        next_live(&mut self.keys, self.vals.by_ref().map(Option::as_mut), &mut self.left)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Owning iterator over a [`DetMap`] in first-insertion order.
pub struct IntoIter<K, V> {
    keys: std::vec::IntoIter<K>,
    vals: std::vec::IntoIter<Option<V>>,
    left: usize,
}

impl<K, V> Iterator for IntoIter<K, V> {
    type Item = (K, V);
    fn next(&mut self) -> Option<(K, V)> {
        next_live(&mut self.keys, self.vals.by_ref(), &mut self.left)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// View into a single [`DetMap`] slot, resolved once at [`DetMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
    hash: u64,
    pos: Option<usize>,
}

impl<'a, K: Eq + Hash, V> Entry<'a, K, V> {
    /// The value, inserting `default` when the key was absent.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// The value, inserting `default()` when the key was absent.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let pos = match self.pos {
            Some(pos) => pos,
            None => self.map.push(self.key, default(), self.hash),
        };
        self.map.val_mut(pos)
    }

    /// The value, inserting `V::default()` when the key was absent.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    /// Mutate the value in place when present, then continue the builder.
    pub fn and_modify(self, f: impl FnOnce(&mut V)) -> Entry<'a, K, V> {
        if let Some(pos) = self.pos {
            f(self.map.val_mut(pos));
        }
        self
    }
}
/// A hash set with deterministic (first-insertion-order) iteration.
///
/// Thin wrapper over [`DetMap<T, ()>`]; see the module docs for the
/// ordering contract.
#[derive(Clone)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T: Eq + Hash> DetSet<T> {
    /// Empty set.
    pub fn new() -> DetSet<T> {
        DetSet { map: DetMap::new() }
    }

    /// Empty set with room for `cap` members.
    pub fn with_capacity(cap: usize) -> DetSet<T> {
        DetSet { map: DetMap::with_capacity(cap) }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add `value`; returns true when it was not already a member.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// True when `value` is a member.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Remove `value`; returns true when it was a member.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(value).is_some()
    }

    /// Keep only members for which `f` returns true, preserving order.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        self.map.retain(|t, ()| f(t));
    }

    /// Drop every member.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterate members in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }
}

impl<T: Eq + Hash> Default for DetSet<T> {
    fn default() -> DetSet<T> {
        DetSet::new()
    }
}

impl<T: Eq + Hash + fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Content equality (order-insensitive, matching `std::collections::HashSet`).
impl<T: Eq + Hash> PartialEq for DetSet<T> {
    fn eq(&self, other: &DetSet<T>) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

impl<T: Eq + Hash> Eq for DetSet<T> {}

impl<T: Eq + Hash> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> DetSet<T> {
        let mut set = DetSet::new();
        for t in iter {
            set.insert(t);
        }
        set
    }
}

impl<T: Eq + Hash> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<'a, T: Eq + Hash> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = SetIter<'a, T>;
    fn into_iter(self) -> SetIter<'a, T> {
        SetIter { inner: self.map.iter() }
    }
}

impl<T: Eq + Hash> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::iter::Map<IntoIter<T, ()>, fn((T, ())) -> T>;
    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(t, ())| t)
    }
}

/// Borrowing iterator over a [`DetSet`] in first-insertion order.
pub struct SetIter<'a, T> {
    inner: Iter<'a, T, ()>,
}

impl<'a, T> Iterator for SetIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        self.inner.next().map(|(t, ())| t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_first_insertion_order() {
        let mut m = DetMap::new();
        for k in [30u32, 10, 20, 5] {
            m.insert(k, k * 2);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![30, 10, 20, 5]);
        // Re-insert keeps position; value updates.
        assert_eq!(m.insert(10, 99), Some(20));
        let pairs: Vec<(u32, u32)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(30, 60), (10, 99), (20, 40), (5, 10)]);
    }

    #[test]
    fn remove_preserves_survivor_order() {
        let mut m = DetMap::new();
        for k in [1u8, 2, 3, 4, 5] {
            m.insert(k, ());
        }
        assert_eq!(m.remove(&3), Some(()));
        assert_eq!(m.remove(&3), None);
        let keys: Vec<u8> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 4, 5]);
        // Removed key re-enters at the end.
        m.insert(3, ());
        let keys: Vec<u8> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 4, 5, 3]);
        // Lookups still work after index fixups.
        for k in keys {
            assert!(m.contains_key(&k));
        }
    }

    #[test]
    fn entry_api_matches_std_semantics() {
        let mut m: DetMap<&str, u64> = DetMap::new();
        *m.entry("a").or_insert(0) += 5;
        *m.entry("a").or_insert(0) += 5;
        *m.entry("b").or_default() += 1;
        m.entry("a").and_modify(|v| *v *= 10).or_insert(0);
        m.entry("c").and_modify(|v| *v *= 10).or_insert(7);
        assert_eq!(m.get(&"a"), Some(&100));
        assert_eq!(m.get(&"b"), Some(&1));
        assert_eq!(m.get(&"c"), Some(&7));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn retain_preserves_order_and_lookup() {
        let mut m: DetMap<u32, u32> = (0..10u32).map(|k| (k, k)).collect();
        m.retain(|&k, v| {
            *v += 100;
            k % 3 == 0
        });
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 3, 6, 9]);
        assert_eq!(m.get(&6), Some(&106));
        assert!(!m.contains_key(&5));
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a: DetMap<u8, u8> = [(1, 10), (2, 20)].into_iter().collect();
        let b: DetMap<u8, u8> = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(a, b);
        let c: DetMap<u8, u8> = [(1, 10), (2, 21)].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn index_and_iter_mut() {
        let mut m: DetMap<u8, String> = DetMap::new();
        m.insert(7, "seven".to_string());
        assert_eq!(&m[&7], "seven");
        for (_, v) in m.iter_mut() {
            v.push('!');
        }
        assert_eq!(&m[&7], "seven!");
    }

    #[test]
    fn set_order_and_membership() {
        let mut s = DetSet::new();
        assert!(s.insert("z"));
        assert!(s.insert("a"));
        assert!(!s.insert("z"));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec!["z", "a"]);
        assert!(s.remove(&"z"));
        assert!(!s.remove(&"z"));
        assert!(!s.contains(&"z"));
        assert_eq!(s.len(), 1);
        let owned: Vec<&str> = s.into_iter().collect();
        assert_eq!(owned, vec!["a"]);
    }

    #[test]
    fn same_op_sequence_same_order_across_instances() {
        // The determinism contract: order is a pure function of the op
        // sequence, never of hasher state. Build two maps through an
        // interleaved insert/remove history and require identical order.
        let build = || {
            let mut m = DetMap::new();
            for k in 0..64u64 {
                m.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32, k);
            }
            for k in (0..64u64).step_by(3) {
                m.remove(&(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32));
            }
            for k in 64..96u64 {
                m.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32, k);
            }
            m.keys().copied().collect::<Vec<u64>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn dead_slots_never_outnumber_live_ones() {
        // FIFO churn (the `deferred` / `pending` pattern) leaves only
        // leading tombstones, which the trailing trim cannot reach: the
        // slot vectors must still stay within 2 x live, or iteration and
        // memory would grow with history.
        let mut m = DetMap::new();
        for n in 0..10_000u64 {
            m.insert(n, n);
            if n >= 8 {
                assert_eq!(m.remove(&(n - 8)), Some(n - 8));
            }
            assert!(m.keys.len() <= 2 * m.len(), "{} slots for {} live", m.keys.len(), m.len());
            assert_eq!(m.keys.len(), m.vals.len());
        }
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), (9_992..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn hasher_has_no_per_process_seed() {
        // Pinned values: a seeded hasher could not reproduce them in every
        // process. Integers take the `write_u64` path on any platform.
        assert_eq!(hash_of(&1u64), 0xC9D8_74CA_57D9_E055);
        assert_eq!(hash_of(&0xBEEFu64), 0xC520_7DEB_46C0_B97A);
        assert_eq!(hash_of(&u64::MAX), 0xE0E3_4B05_C9A3_E2C9);
        assert_eq!(hash_of(&0x1_0000u128), 0x9EAF_477B_59D2_241C);
        assert_eq!(hash_of(&u128::MAX), 0x5674_EAC4_FE12_0618);
        assert_eq!(hash_of(&(0x1111u128, 7u64)), 0x4A75_55DE_9F13_8D5D);
        assert_eq!(hash_of(&(1u128 << 64, 0u64)), 0x051A_6AE3_FA6E_C02E);
    }

    /// Distinct home buckets hit by `keys` in an index of 4 096 buckets
    /// (the low 12 bits of the hash).
    fn buckets_hit(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash_of(&k) & 0xFFF).collect::<std::collections::BTreeSet<u64>>().len()
    }

    #[test]
    fn keys_that_differ_only_in_high_bits_still_spread() {
        // A bare multiply maps both tapes onto a handful of low-bit
        // buckets; the finishing fold must bring the high bits down.
        for shift in [20, 40] {
            let hit = buckets_hit((0..4096u64).map(|i| i << shift));
            assert!(hit >= 2048, "stride 1 << {shift}: only {hit} of 4096 buckets hit");
        }
    }
}
