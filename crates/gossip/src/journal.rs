//! The per-node descriptor journal: CRDT holder-fact envelopes plus
//! replica membership, with version-vector digests and content deltas.
//!
//! Every fact is a [`LwwRegister`] over a [`HolderFact`] keyed by object
//! ID; membership is an [`OrSet`] of host inboxes. Both merge by CRDT
//! join, so any exchange order converges to the same content — the
//! property `tests/convergence.rs` proptests and the chaos soak re-checks
//! under partitions. A digest is the journal's version vector (max origin
//! sequence incorporated per replica) plus a membership fingerprint; a
//! delta carries exactly the entries the digest shows missing. Superseded
//! writes are never shipped: an entry overwritten by a newer stamp travels
//! as its final value under the winner's origin, and merging the sender's
//! version vector records the dominated sequences as covered.

use std::cell::Cell;
use std::sync::Arc;

use rdv_crdt::sorted::{decode_pairs, max_into};
use rdv_crdt::{LwwRegister, Merge, OrSet};
use rdv_det::DetMap;
use rdv_objspace::ObjId;
use rdv_wire::{Decode, Encode, WireReader, WireResult, WireWriter};

/// Smallest encoding of one delta entry: object ID, holder fact (ID +
/// epoch), LWW stamp and origin (two varints each). Count prefixes are
/// checked against the bytes behind them before anything is reserved, so a
/// four-byte frame cannot ask for a 2^24-slot vector.
const MIN_ENTRY_BYTES: usize = 16 + 17 + 2 + 2;

/// One descriptor fact: "the object lives at `holder`, written in that
/// holder's restart `epoch`". A nil `holder` is a tombstone — the previous
/// location is known dead and must not be repaired from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolderFact {
    /// Inbox of the holding host (nil = tombstone).
    pub holder: ObjId,
    /// The writer's restart epoch; bumped on crash/restart so facts from
    /// a dead incarnation are distinguishable.
    pub epoch: u64,
}

impl Encode for HolderFact {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u128(self.holder.as_u128());
        w.put_uvarint(self.epoch);
    }
}

impl Decode for HolderFact {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(HolderFact { holder: ObjId(r.get_u128()?), epoch: r.get_uvarint()? })
    }
}

/// Origin stamp of a journal write: `(replica, per-replica sequence)`.
pub type Origin = (u64, u64);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    fact: LwwRegister<HolderFact>,
    origin: Origin,
}

/// Version-vector summary of a journal, exchanged as the first leg of an
/// anti-entropy round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest {
    /// `(replica, max origin sequence incorporated)`, ascending by replica.
    pub vv: Vec<(u64, u64)>,
    /// Fingerprint of the membership OR-set (full state ships only on
    /// mismatch — membership churn is rare next to holder churn).
    pub members_fp: u64,
}

/// The max origin sequence of `replica` that the version vector `vv`
/// (ascending by replica) has incorporated.
fn seen(vv: &[(u64, u64)], replica: u64) -> u64 {
    vv.binary_search_by_key(&replica, |e| e.0).map_or(0, |at| vv[at].1)
}

impl Encode for Digest {
    fn encode(&self, w: &mut WireWriter) {
        self.vv.encode(w);
        w.put_u64(self.members_fp);
    }
}

impl Decode for Digest {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Digest { vv: decode_pairs(r)?, members_fp: r.get_u64()? })
    }
}

/// The second (and optional third) leg: entries the digest showed missing,
/// the sender's own version vector, and — on membership-fingerprint
/// mismatch — the full membership OR-set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Sender's version vector (merged by pointwise max on apply).
    pub vv: Vec<(u64, u64)>,
    /// `(object, fact, origin)` triples, sorted by object ID.
    pub entries: Vec<(u128, LwwRegister<HolderFact>, Origin)>,
    /// Full membership state, present only when fingerprints differed
    /// (shared with the sending journal, not copied per reply).
    pub members: Option<Arc<OrSet<u128>>>,
    /// Whether the receiver should answer with its own delta (bounded
    /// ping-pong: a digest asks with `true`, the reply ships `false`).
    pub want_reply: bool,
}

impl Encode for Delta {
    fn encode(&self, w: &mut WireWriter) {
        self.vv.encode(w);
        w.put_uvarint(self.entries.len() as u64);
        for (obj, fact, origin) in &self.entries {
            w.put_u128(*obj);
            fact.encode(w);
            w.put_uvarint(origin.0);
            w.put_uvarint(origin.1);
        }
        match &self.members {
            Some(m) => {
                w.put_u8(1);
                m.encode(w);
            }
            None => w.put_u8(0),
        }
        w.put_u8(self.want_reply as u8);
    }
}

impl Decode for Delta {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let vv = decode_pairs(r)?;
        let n = r.get_count(MIN_ENTRY_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let obj = r.get_u128()?;
            let fact = LwwRegister::<HolderFact>::decode(r)?;
            entries.push((obj, fact, (r.get_uvarint()?, r.get_uvarint()?)));
        }
        let members = match r.get_u8()? {
            0 => None,
            _ => Some(Arc::new(OrSet::<u128>::decode(r)?)),
        };
        Ok(Delta { vv, entries, members, want_reply: r.get_u8()? != 0 })
    }
}

/// The journal proper: holder facts + membership + the version vector of
/// incorporated origins.
#[derive(Debug, Clone)]
pub struct Journal {
    replica: u64,
    epoch: u64,
    next_seq: u64,
    last_stamp: u64,
    holders: DetMap<u128, Entry>,
    /// Shared with the deltas that ship it; copied on the next write only
    /// while one of those is still alive.
    members: Arc<OrSet<u128>>,
    /// `orset_fingerprint(&members)` once read since `members` last changed.
    /// A join, a leave or an apply whose merge learned something clears
    /// it; the next digest, delta or `is_ahead_of` hashes the set again, so
    /// a burst of learning merges between two rounds costs one hash.
    members_fp: Cell<Option<u64>>,
    /// `(replica, max origin sequence incorporated)`, ascending by replica.
    vv: Vec<(u64, u64)>,
}

impl Journal {
    /// Empty journal owned by `replica`.
    pub fn new(replica: u64) -> Journal {
        Journal {
            replica,
            epoch: 0,
            next_seq: 0,
            last_stamp: 0,
            holders: DetMap::new(),
            members: Arc::default(),
            members_fp: Cell::new(None),
            vv: Vec::new(),
        }
    }

    /// This journal's replica ID.
    pub fn replica(&self) -> u64 {
        self.replica
    }

    /// The writer's current restart epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bump the restart epoch (call from `on_restart`): facts written
    /// before the crash are distinguishable from re-recorded ones.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Number of holder facts (tombstones included).
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Whether the journal holds no facts.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    fn stamp(&mut self, now_ns: u64) -> u64 {
        // Per-replica monotone stamps keep the LWW uniqueness invariant
        // even for same-tick writes.
        self.last_stamp = now_ns.max(self.last_stamp + 1);
        self.last_stamp
    }

    /// Record "`obj` lives at `holder`" as a local write stamped from
    /// `now_ns` (per-replica monotone; ties across replicas break on
    /// replica ID inside the LWW register).
    pub fn record_holder(&mut self, obj: ObjId, holder: ObjId, now_ns: u64) {
        let time = self.stamp(now_ns);
        let seq = self.next_seq + 1;
        self.next_seq = seq;
        let fact = HolderFact { holder, epoch: self.epoch };
        match self.holders.get_mut(&obj.as_u128()) {
            Some(e) => {
                e.fact.set(self.replica, time, fact);
                e.origin = (self.replica, seq);
            }
            None => {
                let mut reg = LwwRegister::new(HolderFact { holder: ObjId(0), epoch: 0 });
                reg.set(self.replica, time, fact);
                self.holders
                    .insert(obj.as_u128(), Entry { fact: reg, origin: (self.replica, seq) });
            }
        }
        max_into(&mut self.vv, &[(self.replica, seq)]);
    }

    /// Tombstone `obj`'s location: its last known holder is dead and must
    /// not be repaired from.
    pub fn retire_holder(&mut self, obj: ObjId, now_ns: u64) {
        self.record_holder(obj, ObjId(0), now_ns);
    }

    /// The live holder of `obj`, if the journal knows one (tombstones and
    /// unknown objects are `None`).
    pub fn lookup(&self, obj: ObjId) -> Option<ObjId> {
        let fact = self.holders.get(&obj.as_u128())?.fact.get();
        (!fact.holder.is_nil()).then_some(fact.holder)
    }

    /// The raw fact for `obj`, tombstones included.
    pub fn fact(&self, obj: ObjId) -> Option<HolderFact> {
        self.holders.get(&obj.as_u128()).map(|e| *e.fact.get())
    }

    /// Add `inbox` to the membership OR-set.
    pub fn join_member(&mut self, inbox: ObjId) {
        Arc::make_mut(&mut self.members).add(self.replica, inbox.as_u128());
        self.members_fp.set(None);
    }

    /// Remove `inbox` from the membership OR-set (add-wins on races).
    pub fn leave_member(&mut self, inbox: ObjId) {
        Arc::make_mut(&mut self.members).remove(&inbox.as_u128());
        self.members_fp.set(None);
    }

    /// Whether `inbox` is a current member.
    pub fn is_member(&self, inbox: ObjId) -> bool {
        self.members.contains(&inbox.as_u128())
    }

    /// Number of current members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Fingerprint of the membership OR-set alone (the digest field),
    /// hashed on the first read after a change and kept until the next.
    pub fn members_fingerprint(&self) -> u64 {
        self.members_fp.get().unwrap_or_else(|| {
            let fp = orset_fingerprint(&self.members);
            self.members_fp.set(Some(fp));
            fp
        })
    }

    /// Whether our live members are element for element those of
    /// `shipped`: what comparing the two sets' fingerprints answers,
    /// without hashing either.
    pub(crate) fn members_match(&self, shipped: &OrSet<u128>) -> bool {
        self.members.len() == shipped.len() && self.members.iter().eq(shipped.iter())
    }

    /// The digest (version vector + membership fingerprint) for the first
    /// leg of an anti-entropy exchange.
    pub fn digest(&self) -> Digest {
        Digest { vv: self.vv.clone(), members_fp: self.members_fingerprint() }
    }

    /// Whether this journal holds anything `theirs` is missing.
    pub fn is_ahead_of(&self, theirs: &Digest) -> bool {
        self.holds_unseen(&theirs.vv) || self.members_fingerprint() != theirs.members_fp
    }

    /// Whether some holder fact has an origin the version vector `vv` has
    /// not incorporated.
    pub(crate) fn holds_unseen(&self, vv: &[(u64, u64)]) -> bool {
        self.holders.values().any(|e| e.origin.1 > seen(vv, e.origin.0))
    }

    /// The entries `theirs` is missing, as a delta ready to ship.
    pub fn delta_since(&self, theirs: &Digest, want_reply: bool) -> Delta {
        let members = self.members_fingerprint() != theirs.members_fp;
        self.delta_for(&theirs.vv, members, want_reply)
    }

    /// The entries a peer at version vector `vv` is missing, with the full
    /// membership set when `members` is set.
    pub(crate) fn delta_for(&self, vv: &[(u64, u64)], members: bool, want_reply: bool) -> Delta {
        let mut entries: Vec<(u128, LwwRegister<HolderFact>, Origin)> = self
            .holders
            .iter()
            .filter(|(_, e)| e.origin.1 > seen(vv, e.origin.0))
            .map(|(obj, e)| (*obj, e.fact.clone(), e.origin))
            .collect();
        entries.sort_unstable_by_key(|(obj, _, _)| *obj);
        let members = members.then(|| Arc::clone(&self.members));
        Delta { vv: self.vv.clone(), entries, members, want_reply }
    }

    /// Drop nil-holder tombstones whose LWW write time is older than
    /// `now_ns - horizon`. The version vector is untouched — the expired
    /// origins stay covered, so peers never re-request the dominated
    /// writes; a peer that missed the tombstone entirely keeps its stale
    /// fact, which is the standard tombstone-GC trade: pick a horizon
    /// comfortably past anti-entropy convergence time. Returns how many
    /// facts were dropped.
    pub fn expire_tombstones(&mut self, now_ns: u64, horizon: u64) -> usize {
        let cutoff = now_ns.saturating_sub(horizon);
        let before = self.holders.len();
        self.holders.retain(|_, e| !(e.fact.get().holder.is_nil() && e.fact.stamp().0 < cutoff));
        before - self.holders.len()
    }

    /// Merge a delta: LWW-join each entry, join membership if present,
    /// pointwise-max the version vector. Returns how many entries changed
    /// this journal's content.
    pub fn apply(&mut self, delta: &Delta) -> usize {
        let mut applied = 0;
        for (obj, fact, origin) in &delta.entries {
            match self.holders.get_mut(obj) {
                Some(e) => {
                    let before = e.fact.stamp();
                    e.fact.merge(fact);
                    if e.fact.stamp() != before {
                        e.origin = *origin;
                        applied += 1;
                    }
                }
                None => {
                    self.holders.insert(*obj, Entry { fact: fact.clone(), origin: *origin });
                    applied += 1;
                }
            }
        }
        if let Some(members) = &delta.members {
            // `join` only reads until it finds something new and says
            // whether it did: a redundant set costs three walks. A set that
            // taught us something is hashed at the next read, not here.
            if !Arc::ptr_eq(&self.members, members)
                && Arc::make_mut(&mut self.members).join(members)
            {
                self.members_fp.set(None);
            }
        }
        max_into(&mut self.vv, &delta.vv);
        applied
    }

    /// Content fingerprint: FNV-1a over the sorted canonical encoding of
    /// every holder fact and member. Two journals with equal fingerprints
    /// hold the same facts regardless of write or merge order — the
    /// convergence oracle for the proptests and the chaos soak.
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<u128> = self.holders.keys().copied().collect();
        keys.sort_unstable();
        let mut w = WireWriter::new();
        for k in keys {
            let e = &self.holders[&k];
            w.put_u128(k);
            e.fact.encode(&mut w);
        }
        for m in self.members.iter() {
            w.put_u128(*m);
        }
        fnv1a(FNV_OFFSET, w.as_slice())
    }
}

impl std::ops::Index<&u128> for Journal {
    type Output = LwwRegister<HolderFact>;
    fn index(&self, key: &u128) -> &Self::Output {
        &self.holders[key].fact
    }
}

/// Canonical fingerprint of an OR-set of inboxes: FNV-1a over the live
/// elements' little-endian bytes, in element order.
pub fn orset_fingerprint(set: &OrSet<u128>) -> u64 {
    set.iter().fold(FNV_OFFSET, |h, e| fnv1a_u128(h, *e))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=16`.
const FNV_PRIME_POW: [u64; 17] = {
    let mut pow = [1u64; 17];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Continue the FNV-1a hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `fnv1a(h, &e.to_le_bytes())`, with the high zero bytes folded: a zero
/// byte's xor is a no-op, so `k` of them are one multiply by `FNV_PRIME^k`.
/// An inbox ID's top twelve bytes are zero, which leaves four byte steps.
fn fnv1a_u128(h: u64, e: u128) -> u64 {
    let zeros = e.leading_zeros() as usize / 8;
    fnv1a(h, &e.to_le_bytes()[..16 - zeros]).wrapping_mul(FNV_PRIME_POW[zeros])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut j = Journal::new(1);
        let (obj, holder) = (ObjId(0xAB), ObjId(0x10));
        assert_eq!(j.lookup(obj), None);
        j.record_holder(obj, holder, 100);
        assert_eq!(j.lookup(obj), Some(holder));
        j.retire_holder(obj, 200);
        assert_eq!(j.lookup(obj), None, "tombstone hides the holder");
        assert_eq!(j.fact(obj).unwrap().holder, ObjId(0));
    }

    #[test]
    fn same_tick_writes_stay_monotone() {
        let mut j = Journal::new(1);
        j.record_holder(ObjId(1), ObjId(0x10), 50);
        j.record_holder(ObjId(1), ObjId(0x20), 50);
        assert_eq!(j.lookup(ObjId(1)), Some(ObjId(0x20)), "second same-tick write wins");
    }

    #[test]
    fn digest_delta_sync_converges() {
        let mut a = Journal::new(1);
        let mut b = Journal::new(2);
        a.record_holder(ObjId(1), ObjId(0x10), 100);
        a.join_member(ObjId(0x10));
        b.record_holder(ObjId(2), ObjId(0x20), 150);
        b.join_member(ObjId(0x20));

        // A asks, B answers, A reciprocates.
        let delta_for_a = b.delta_since(&a.digest(), true);
        assert_eq!(a.apply(&delta_for_a), 1);
        let delta_for_b = a.delta_since(&b.digest(), false);
        assert_eq!(b.apply(&delta_for_b), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.lookup(ObjId(2)), Some(ObjId(0x20)));
        assert_eq!(b.lookup(ObjId(1)), Some(ObjId(0x10)));
        assert!(a.is_member(ObjId(0x20)) && b.is_member(ObjId(0x10)));

        // In-sync peers exchange empty deltas and nothing changes.
        assert!(!a.is_ahead_of(&b.digest()));
        let empty = a.delta_since(&b.digest(), false);
        assert!(empty.entries.is_empty() && empty.members.is_none());
        assert_eq!(b.apply(&empty), 0);
    }

    #[test]
    fn superseded_writes_never_resurface() {
        let mut a = Journal::new(1);
        let mut b = Journal::new(2);
        let mut c = Journal::new(3);
        a.record_holder(ObjId(7), ObjId(0x10), 100);
        // B learns A's fact, then overwrites it with a newer one.
        b.apply(&a.delta_since(&b.digest(), false));
        b.record_holder(ObjId(7), ObjId(0x20), 200);
        // C syncs from B only: it must land on the final value and its
        // digest must not keep asking for A's dominated write.
        c.apply(&b.delta_since(&c.digest(), false));
        assert_eq!(c.lookup(ObjId(7)), Some(ObjId(0x20)));
        assert!(!a.is_ahead_of(&c.digest()), "dominated origin reads as covered");
        assert_eq!(c.fingerprint(), b.fingerprint());
    }

    #[test]
    fn wire_roundtrip() {
        let mut j = Journal::new(9);
        j.record_holder(ObjId(1), ObjId(0x10), 10);
        j.join_member(ObjId(0x10));
        let digest = j.digest();
        let bytes = rdv_wire::encode_to_vec(&digest);
        assert_eq!(rdv_wire::decode_from_slice::<Digest>(&bytes).unwrap(), digest);
        let delta = j.delta_since(&Digest::default(), true);
        let bytes = rdv_wire::encode_to_vec(&delta);
        assert_eq!(rdv_wire::decode_from_slice::<Delta>(&bytes).unwrap(), delta);
    }

    #[test]
    fn truncated_max_count_frames_fail_typed_without_reserving() {
        use rdv_wire::WireError;
        // 2^24 - 1 as a varint: the largest count the old guard let through
        // to `Vec::with_capacity`, here with nothing behind it.
        let count = [0xff, 0xff, 0xff, 0x07];
        // Rejected at the count itself (the error sizes the whole claim),
        // not after reserving and failing on the first missing entry.
        let eof = |r: WireResult<()>| match r {
            Err(WireError::UnexpectedEof { needed, available: 0 }) => needed >= 1 << 24,
            _ => false,
        };
        assert!(eof(rdv_wire::decode_from_slice::<Digest>(&count).map(drop)));
        assert!(eof(rdv_wire::decode_from_slice::<Delta>(&count).map(drop)));
        // The same count in each later position: entries, then the
        // membership set's three tables.
        let mut frame = vec![0x00];
        frame.extend(count);
        assert!(eof(rdv_wire::decode_from_slice::<Delta>(&frame).map(drop)));
        for tables_before in 0..3 {
            let mut frame = vec![0x00, 0x00, 0x01];
            frame.extend(std::iter::repeat_n(0x00, tables_before));
            frame.extend(count);
            assert!(eof(rdv_wire::decode_from_slice::<Delta>(&frame).map(drop)));
        }
        // A count the bytes do cover still decodes.
        let honest = [0x01, 0x05, 0x09, 0, 0, 0, 0, 0, 0, 0, 0];
        let d = rdv_wire::decode_from_slice::<Digest>(&honest).unwrap();
        assert_eq!(d.vv, [(5, 9)]);
    }

    #[test]
    fn tombstones_expire_past_the_horizon_and_stay_covered() {
        let mut a = Journal::new(1);
        a.record_holder(ObjId(1), ObjId(0x10), 100);
        a.retire_holder(ObjId(1), 200);
        a.record_holder(ObjId(2), ObjId(0x20), 250); // live fact, never expires
        a.retire_holder(ObjId(3), 900); // young tombstone, inside horizon

        assert_eq!(a.expire_tombstones(1_000, 500), 1, "only the old tombstone goes");
        assert_eq!(a.len(), 2);
        assert_eq!(a.fact(ObjId(1)), None, "expired fact is gone entirely");
        assert_eq!(a.lookup(ObjId(2)), Some(ObjId(0x20)));
        assert!(a.fact(ObjId(3)).unwrap().holder.is_nil(), "young tombstone survives");

        // The expired origin stays covered: a fresh journal syncing from A
        // never sees obj 1, and A's digest still claims those sequences, so
        // nobody re-requests the dominated write.
        let mut b = Journal::new(2);
        b.apply(&a.delta_since(&b.digest(), false));
        assert_eq!(b.fact(ObjId(1)), None);
        assert!(!a.is_ahead_of(&b.digest()), "expiry leaves nothing left to ship");

        // Idempotent: nothing else crosses the cutoff.
        assert_eq!(a.expire_tombstones(1_000, 500), 0);
    }

    #[test]
    fn folded_hash_equals_the_byte_loop() {
        let mut values = vec![0, 1, 0xFF, 0x100, 1 << 127, u128::MAX];
        for base in [0x10AD_0000u128, 0x10AD_8000, 0x10AD_A000] {
            values.extend([base, base + 1, base + 0x7F, base + 0x1FFF]);
        }
        // splitmix64, two draws per full-width value.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..256 {
            let wide = (u128::from(next()) << 64) | u128::from(next());
            // Every width from 0 to 16 significant bytes.
            values.extend([wide, wide >> (wide % 128)]);
        }
        let (mut folded, mut looped) = (FNV_OFFSET, FNV_OFFSET);
        for v in values {
            assert_eq!(fnv1a_u128(FNV_OFFSET, v), fnv1a(FNV_OFFSET, &v.to_le_bytes()), "{v:#x}");
            folded = fnv1a_u128(folded, v);
            looped = fnv1a(looped, &v.to_le_bytes());
            assert_eq!(folded, looped, "chained through {v:#x}");
        }
    }

    #[test]
    fn epoch_bumps_are_visible_in_facts() {
        let mut j = Journal::new(1);
        j.record_holder(ObjId(1), ObjId(0x10), 10);
        assert_eq!(j.fact(ObjId(1)).unwrap().epoch, 0);
        j.bump_epoch();
        j.record_holder(ObjId(1), ObjId(0x10), 20);
        assert_eq!(j.fact(ObjId(1)).unwrap().epoch, 1);
    }
}
