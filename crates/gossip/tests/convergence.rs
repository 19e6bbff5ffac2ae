//! Anti-entropy convergence laws (ISSUE 9 satellite): the journal is a
//! CRDT, so digest→delta exchanges must converge to identical content in
//! any order, any grouping, and under arbitrary repetition. Each law is
//! checked on journals built from a random op tape (records, retires,
//! membership joins across several replicas) — the same state space the
//! chaos soak's gossip family drives through a lossy fabric, here with
//! the network stripped away so a violation names the algebra directly.

use proptest::prelude::*;
use rdv_crdt::OrSet;
use rdv_gossip::journal::orset_fingerprint;
use rdv_gossip::{Delta, Digest, GossipConfig, GossipSync, Journal};
use rdv_memproto::{Msg, MsgBody};
use rdv_netsim::stats::Counters;
use rdv_objspace::ObjId;

/// One raw op draw: `(kind, obj, holder, at)`. Kinds 0–3 record, 4
/// retires, 5 joins, 6 leaves — records dominate, mirroring real churn. The value
/// spaces are small so replicas collide on objects (forcing real LWW
/// conflicts, not disjoint merges).
type RawOp = (u8, u8, u8, u16);

/// Op tapes for `n` replicas: each tape is applied to its own journal.
fn tapes(n: usize) -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    collection::vec(collection::vec((0u8..7, 0u8..6, 0u8..5, 0u16..1000), 1..12), n)
}

fn step(j: &mut Journal, (kind, obj, holder, at): RawOp) {
    match kind {
        // Inboxes offset past the object space so a holder is never
        // confused with an object id.
        0..=3 => j.record_holder(ObjId(obj as u128), ObjId(0x100 + holder as u128), at as u64),
        4 => j.retire_holder(ObjId(obj as u128), at as u64),
        5 => j.join_member(ObjId(0x100 + holder as u128)),
        _ => j.leave_member(ObjId(0x100 + holder as u128)),
    }
}

fn build(replica: u64, tape: &[RawOp]) -> Journal {
    let mut j = Journal::new(replica);
    for &op in tape {
        step(&mut j, op);
    }
    j
}

/// The fingerprint the journal keeps against one hashed from scratch over
/// the membership set it would ship right now.
fn kept_and_fresh_fingerprint(j: &Journal) -> (u64, u64) {
    let kept = j.members_fingerprint();
    let disagree = Digest { vv: Vec::new(), members_fp: !kept };
    let shipped = j.delta_since(&disagree, false).members.expect("a mismatch ships the set");
    (kept, orset_fingerprint(&shipped))
}

/// Whether a read of `j`'s kept fingerprint through `path` — a digest, a
/// delta decision, `is_ahead_of` or the accessor — agrees with one hashed
/// from scratch on a copy. The read runs on `j` itself, so it fills a
/// cache that was empty and the next change to `j` meets a filled one.
fn read_is_fresh(j: &Journal, path: u8) -> bool {
    let (_, hashed) = kept_and_fresh_fingerprint(&j.clone());
    // Covers every origin the tapes write (replicas 1 to 3), so only the
    // membership fingerprint can make a journal look ahead.
    let covered = Digest { vv: (1..=3).map(|r| (r, u64::MAX)).collect(), members_fp: hashed };
    match path % 4 {
        0 => j.members_fingerprint() == hashed,
        1 => j.digest().members_fp == hashed,
        2 => !j.is_ahead_of(&covered),
        _ => j.delta_since(&covered, false).members.is_none(),
    }
}

/// A journal with two writers' facts, an overwritten fact, a tombstone, a
/// member that left and a merge behind it; the golden bytes below were
/// captured from it on the commit before the journal went flat.
fn fixed_journal() -> Journal {
    let mut a = Journal::new(7);
    a.join_member(ObjId(0x107));
    a.record_holder(ObjId(1), ObjId(0x107), 100);
    a.record_holder(ObjId(2), ObjId(0x107), 150);
    let mut b = Journal::new(3);
    b.join_member(ObjId(0x103));
    b.join_member(ObjId(0x1FF));
    b.leave_member(ObjId(0x1FF));
    b.record_holder(ObjId(2), ObjId(0x103), 200);
    b.retire_holder(ObjId(9), 250);
    a.apply(&b.delta_since(&a.digest(), false));
    a.record_holder(ObjId(5), ObjId(0x107), 300);
    a
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn fingerprints_are_pinned() {
    let mut three: OrSet<u128> = OrSet::new();
    three.add(1, 0x100);
    three.add(2, 0x101);
    three.add(3, 0x102);
    assert_eq!(orset_fingerprint(&three), 0x335c_bd15_ea28_576d);
    assert_eq!(orset_fingerprint(&OrSet::new()), 0xcbf2_9ce4_8422_2325, "FNV-1a offset basis");
    let j = fixed_journal();
    assert_eq!(j.members_fingerprint(), 0x72e9_c6af_4a73_3ea1);
    assert_eq!(j.fingerprint(), 0x5b94_50ba_8467_d07e);
}

#[test]
fn digest_and_delta_bytes_are_pinned() {
    let j = fixed_journal();
    assert_eq!(hex(&rdv_wire::encode_to_vec(&j.digest())), "0203020703a13e734aafc6e972");
    // Everything, to a peer that knows nothing.
    assert_eq!(
        hex(&rdv_wire::encode_to_vec(&j.delta_since(&Digest::default(), true))),
        "0203020703040100000000000000000000000000000007010000000000000000000000000000\
         0064070701020000000000000000000000000000000301000000000000000000000000000000\
         c801030301050000000000000000000000000000000701000000000000000000000000000000\
         ac02070703090000000000000000000000000000000000000000000000000000000000000000\
         fa01030302010203010000000000000000000000000000010300070100000000000000000000\
         0000000001070001ff010000000000000000000000000000010301020302070101"
    );
    // Two facts, to a peer that is two origins behind and agrees on members.
    let behind = Digest { vv: vec![(3, 1), (7, 2)], members_fp: j.members_fingerprint() };
    assert_eq!(
        hex(&rdv_wire::encode_to_vec(&j.delta_since(&behind, false))),
        "0203020703020500000000000000000000000000000007010000000000000000000000000000\
         00ac020707030900000000000000000000000000000000000000000000000000000000000000\
         00fa010303020000"
    );
}

/// Ship everything `from` knows that `to`'s digest lacks.
fn push(from: &Journal, to: &mut Journal) {
    let delta = from.delta_since(&to.digest(), false);
    to.apply(&delta);
}

/// One full state as a delta (what a brand-new peer would receive).
fn full(j: &Journal) -> rdv_gossip::Delta {
    j.delta_since(&Digest::default(), false)
}

proptest! {
    /// Idempotence: applying the same delta twice is the same as once.
    #[test]
    fn apply_is_idempotent(tapes in tapes(2)) {
        let a = build(1, &tapes[0]);
        let mut b = build(2, &tapes[1]);
        let delta = full(&a);
        b.apply(&delta);
        let once = b.fingerprint();
        b.apply(&delta);
        prop_assert_eq!(b.fingerprint(), once, "re-applying a delta changed content");
    }

    /// Commutativity: merging B-then-C equals merging C-then-B.
    #[test]
    fn apply_commutes(tapes in tapes(3)) {
        let b = build(2, &tapes[1]);
        let c = build(3, &tapes[2]);
        let mut bc = build(1, &tapes[0]);
        let mut cb = build(1, &tapes[0]);
        bc.apply(&full(&b));
        bc.apply(&full(&c));
        cb.apply(&full(&c));
        cb.apply(&full(&b));
        prop_assert_eq!(bc.fingerprint(), cb.fingerprint(), "merge order changed content");
    }

    /// Associativity (grouping): A∪(B∪C) equals (A∪B)∪C — a delta built
    /// from an already-merged journal carries the same information as the
    /// two source deltas applied separately.
    #[test]
    fn apply_associates(tapes in tapes(3)) {
        // Left: B absorbs C, then A absorbs the merged B.
        let mut b_with_c = build(2, &tapes[1]);
        b_with_c.apply(&full(&build(3, &tapes[2])));
        let mut left = build(1, &tapes[0]);
        left.apply(&full(&b_with_c));
        // Right: A absorbs B, then absorbs C.
        let mut right = build(1, &tapes[0]);
        right.apply(&full(&build(2, &tapes[1])));
        right.apply(&full(&build(3, &tapes[2])));
        prop_assert_eq!(left.fingerprint(), right.fingerprint(), "grouping changed content");
    }

    /// Convergence: run pairwise digest→delta exchanges in a random order
    /// until quiescent; every journal ends with the same fingerprint, the
    /// same per-object answer, and the same answer any other exchange
    /// order produces.
    #[test]
    fn random_exchange_orders_converge(
        tapes in tapes(4),
        order_seed in any::<u64>(),
    ) {
        let n = tapes.len();
        // Reference: everyone absorbs everyone's full state directly.
        let mut reference = build(1, &tapes[0]);
        for (i, tape) in tapes.iter().enumerate().skip(1) {
            reference.apply(&full(&build(i as u64 + 1, tape)));
        }

        let mut nodes: Vec<Journal> =
            tapes.iter().enumerate().map(|(i, t)| build(i as u64 + 1, t)).collect();
        // Deterministic pseudo-random pair schedule from the drawn seed.
        let mut state = order_seed | 1;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        // Bounded pump: stop at the first fully-converged sweep. The
        // bound is generous — random pairs cover the 4-clique fast.
        for _ in 0..4 * n * n {
            let i = next(n);
            let j = (i + 1 + next(n - 1)) % n;
            let (lo, hi) = (i.min(j), i.max(j));
            let (a, b) = nodes.split_at_mut(hi);
            let (a, b) = (&mut a[lo], &mut b[0]);
            // Both directions, like the sync engine's 3-leg round.
            push(a, b);
            push(b, a);
            let fp = nodes[0].fingerprint();
            if nodes.iter().all(|x| x.fingerprint() == fp) {
                break;
            }
        }

        let fp = reference.fingerprint();
        for (i, node) in nodes.iter().enumerate() {
            prop_assert_eq!(
                node.fingerprint(), fp,
                "node {} diverged from the direct-merge reference", i
            );
            // The convergence oracle is honest: equal fingerprints must
            // mean equal answers to every lookup the repair path asks.
            for obj in 0u128..6 {
                prop_assert_eq!(node.lookup(ObjId(obj)), reference.lookup(ObjId(obj)));
            }
            for inbox in 0u128..5 {
                prop_assert_eq!(
                    node.is_member(ObjId(0x100 + inbox)),
                    reference.is_member(ObjId(0x100 + inbox))
                );
            }
        }
        // Quiescence: no one is ahead of anyone, and the delta a digest
        // provokes is empty — anti-entropy has nothing left to ship.
        for a in &nodes {
            for b in &nodes {
                prop_assert!(!a.is_ahead_of(&b.digest()));
                let d = a.delta_since(&b.digest(), false);
                prop_assert!(d.entries.is_empty() && d.members.is_none());
            }
        }
    }

    /// Cache coherence: the membership fingerprint a journal keeps equals
    /// one hashed from scratch after every local write, join, leave and
    /// merge, read through whichever of the four reads the draw names —
    /// merges that teach it something, merges that teach it nothing, and a
    /// merge of its own state. Each read fills the journal's cache, so
    /// every change meets a filled one and must clear it.
    #[test]
    fn kept_members_fingerprint_is_never_stale(
        tapes in tapes(3),
        paths in collection::vec(0u8..4, 64),
    ) {
        let mut nodes: Vec<Journal> = (1..=3).map(Journal::new).collect();
        let mut paths = paths.into_iter().cycle();
        let mut read = |j: &Journal| {
            let path = paths.next().expect("cycled");
            prop_assert!(read_is_fresh(j, path), "kept fingerprint went stale");
            Ok(())
        };
        for at in 0..tapes.iter().map(Vec::len).max().unwrap_or(0) {
            for i in 0..nodes.len() {
                if let Some(&op) = tapes[i].get(at) {
                    step(&mut nodes[i], op);
                    read(&nodes[i])?;
                }
                let everything = full(&nodes[i]);
                let to = (i + 1) % nodes.len();
                for _ in 0..2 {
                    nodes[to].apply(&everything);
                    read(&nodes[to])?;
                }
                nodes[i].apply(&everything);
                read(&nodes[i])?;
                // A join and a leave on a peer, each after a read.
                let (inbox, peer) = (ObjId(0x100 + at as u128 % 5), &mut nodes[to]);
                peer.join_member(inbox);
                read(peer)?;
                peer.leave_member(inbox);
                read(peer)?;
            }
        }
    }

    /// The reciprocal rule: the answer `on_msg` gives a delta that asks for
    /// one — nothing, a delta without members, or one with them — is the
    /// one the fingerprint rule computes from scratch on the same state:
    /// apply, hash the set they shipped (theirs matched ours if they
    /// shipped none), then `is_ahead_of` and `delta_since` against that
    /// digest. Exchanges run in a random order between three nodes that
    /// keep writing from their tapes between them.
    #[test]
    fn reciprocal_answer_matches_the_fingerprint_rule(
        tapes in tapes(3),
        order_seed in any::<u64>(),
    ) {
        let inbox = |i: usize| ObjId(0xB000 + i as u128);
        let mut nodes: Vec<GossipSync> = (0..3)
            .map(|i| GossipSync::new(inbox(i), i as u64 + 1, GossipConfig::default()))
            .collect();
        let mut counters = Counters::new();
        let mut state = order_seed | 1;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let delta_of = |m: &Msg| match &m.body {
            MsgBody::GossipDelta { data, .. } => rdv_wire::decode_from_slice::<Delta>(data).ok(),
            _ => None,
        };
        let longest = tapes.iter().map(Vec::len).max().unwrap_or(0);
        for at in 0..2 * longest {
            for (i, tape) in tapes.iter().enumerate() {
                if let Some(&op) = tape.get(at) {
                    step(&mut nodes[i].journal, op);
                }
            }
            let a = next(3);
            let b = (a + 1 + next(2)) % 3;
            // Leg 1: A's digest to B. Leg 2: B's delta, asking for a reply.
            let digest = rdv_wire::encode_to_vec(&nodes[a].journal.digest()).into();
            let ask =
                Msg::new(inbox(b), inbox(a), MsgBody::GossipDigest { round: 0, target: inbox(b), data: digest });
            let mut legs = nodes[b].on_msg(&ask, &mut counters);
            prop_assert_eq!(legs.len(), 1, "a digest is always answered");
            let reply = legs.pop().expect("one leg");
            let delta = delta_of(&reply).expect("a delta");
            prop_assert!(delta.want_reply);
            // The rule from scratch, on a copy of A as it will be.
            let mut reference = nodes[a].journal.clone();
            reference.apply(&delta);
            let (_, ours) = kept_and_fresh_fingerprint(&reference);
            let theirs = Digest {
                vv: delta.vv.clone(),
                members_fp: delta.members.as_deref().map_or(ours, orset_fingerprint),
            };
            let expected = reference.is_ahead_of(&theirs).then(|| reference.delta_since(&theirs, false));
            // Leg 3, as the round machine decides it.
            let answer = nodes[a].on_msg(&reply, &mut counters);
            prop_assert!(answer.len() <= 1);
            let got = answer.first().map(|m| delta_of(m).expect("a delta"));
            prop_assert_eq!(&got, &expected);
            if let Some(m) = answer.first() {
                prop_assert!(nodes[b].on_msg(m, &mut counters).is_empty(), "the third leg ends it");
            }
        }
    }

    /// Deltas are minimal: after one full exchange, the reverse digest
    /// provokes only what the other side is genuinely missing — never a
    /// re-send of entries it already incorporated.
    #[test]
    fn no_redundant_resend(tapes in tapes(2)) {
        let mut a = build(1, &tapes[0]);
        let mut b = build(2, &tapes[1]);
        push(&a, &mut b);
        // B now supersets A's content; what B ships back must exclude
        // every entry whose origin A already covers.
        let back = b.delta_since(&a.digest(), false);
        let a_digest = a.digest();
        for (_, _, (replica, seq)) in &back.entries {
            let seen = a_digest.vv.iter().find(|(r, _)| r == replica).map_or(0, |(_, s)| *s);
            prop_assert!(*seq > seen, "entry {replica}:{seq} was already covered (seen {seen})");
        }
        a.apply(&back);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
