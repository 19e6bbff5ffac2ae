//! `gossip_sync` — anti-entropy throughput of the sans-IO round machine
//! (entries applied per second, no simulation): the digest/delta exchange
//! every gossip-enabled host runs each round, and a full ring convergence
//! sweep. The F7 figure and the chaos soak's gossip family pump these
//! paths constantly, so the exchange must stay cheap relative to the
//! engine's event loop. The `members_256` group is the same exchange on a
//! converged 256-member journal — the state `rdvperf`'s `gossip_256`
//! workload spends its run in, where membership rather than holder facts
//! sets the cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rdv_gossip::sync::ctr;
use rdv_gossip::{Digest, GossipConfig, GossipSync, Journal};
use rdv_memproto::msg::Msg;
use rdv_netsim::stats::Counters;
use rdv_objspace::ObjId;

const INBOX_BASE: u128 = 0xB_0000;

fn inbox(i: usize) -> ObjId {
    ObjId(INBOX_BASE + i as u128)
}

/// A fresh pair: `a` holds `entries` facts, `b` holds none.
fn pair(entries: u64) -> (GossipSync, GossipSync) {
    let cfg = GossipConfig::default();
    let mut a = GossipSync::new(inbox(0), 1, cfg);
    let mut b = GossipSync::new(inbox(1), 2, cfg);
    a.add_peer(inbox(1), None);
    b.add_peer(inbox(0), None);
    for e in 0..entries {
        a.journal.record_holder(ObjId(0xF00 + e as u128), inbox(0), 100 + e);
    }
    (a, b)
}

/// Deliver until quiescent; returns messages delivered.
fn pump(nodes: &mut [GossipSync], counters: &mut Counters, mut inflight: Vec<Msg>) -> u64 {
    let mut delivered = 0u64;
    while let Some(msg) = inflight.pop() {
        delivered += 1;
        // Route on the destination inbox (nodes are inbox-ordered).
        let idx = (msg.header.dst.as_u128() - INBOX_BASE) as usize;
        inflight.extend(nodes[idx].on_msg(&msg, counters));
    }
    delivered
}

/// One node per ring slot, each holding `per_node` facts; pump rounds
/// until every journal fingerprint matches. Returns entries applied.
fn ring_converge(nodes: usize, per_node: u64) -> u64 {
    let cfg = GossipConfig::default();
    let mut ring: Vec<GossipSync> = (0..nodes)
        .map(|i| {
            let mut s = GossipSync::new(inbox(i), i as u64 + 1, cfg);
            s.add_peer(inbox((i + 1) % nodes), None);
            for e in 0..per_node {
                s.journal.record_holder(
                    ObjId(0x1000 * (i as u128 + 1) + e as u128),
                    inbox(i),
                    100 + e,
                );
            }
            s
        })
        .collect();
    let mut counters = Counters::new();
    for _ in 0..2 * nodes {
        let outs: Vec<Msg> = ring.iter_mut().flat_map(|n| n.on_round(0, &mut counters)).collect();
        pump(&mut ring, &mut counters, outs);
        let fp = ring[0].journal.fingerprint();
        if ring.iter().all(|n| n.journal.fingerprint() == fp) {
            break;
        }
    }
    let fp = ring[0].journal.fingerprint();
    assert!(ring.iter().all(|n| n.journal.fingerprint() == fp), "ring must converge");
    counters.get_id(ctr().entries_applied)
}

/// Two peered nodes whose journals hold the same 256 members and one
/// holder fact per member, as after convergence; with `mismatch`, each has
/// also seen one join the other has not, so their fingerprints differ.
fn converged_pair(mismatch: bool) -> (GossipSync, GossipSync) {
    const MEMBERS: usize = 256;
    let mut full = Journal::new(0);
    for i in 0..MEMBERS {
        let mut j = Journal::new(i as u64 + 1);
        j.join_member(inbox(i));
        j.record_holder(ObjId(0xF00 + i as u128), inbox(i), 100);
        full.apply(&j.delta_since(&Digest::default(), false));
    }
    let cfg = GossipConfig::default();
    let mut a = GossipSync::new(inbox(0), 1, cfg);
    let mut b = GossipSync::new(inbox(1), 2, cfg);
    a.add_peer(inbox(1), None);
    b.add_peer(inbox(0), None);
    for (node, late_joiner) in [(&mut a, MEMBERS), (&mut b, MEMBERS + 1)] {
        node.journal.apply(&full.delta_since(&Digest::default(), false));
        if mismatch {
            node.journal.join_member(inbox(late_joiner));
        }
    }
    (a, b)
}

fn bench_members(c: &mut Criterion) {
    let mut group = c.benchmark_group("members_256");
    group.sample_size(20);
    let mut counters = Counters::new();

    let (mut a, b) = converged_pair(false);
    group
        .bench_function("on_round", |bench| bench.iter(|| black_box(a.on_round(0, &mut counters))));

    // Digest -> empty delta -> apply: what every round costs once the
    // fabric agrees.
    let mut nodes = vec![a, b];
    group.bench_function("exchange_in_sync", |bench| {
        bench.iter(|| {
            let first = nodes[0].on_round(0, &mut counters);
            black_box(pump(&mut nodes, &mut counters, first))
        })
    });

    // Digest -> full membership -> merge -> full membership back -> merge.
    // Each iteration restarts from the diverged journals (two clones, timed).
    let (a, b) = converged_pair(true);
    let diverged = [a.journal.clone(), b.journal.clone()];
    let mut nodes = [a, b];
    group.bench_function("exchange_members_mismatch", |bench| {
        bench.iter(|| {
            nodes[0].journal = diverged[0].clone();
            nodes[1].journal = diverged[1].clone();
            let first = nodes[0].on_round(0, &mut counters);
            let delivered = pump(&mut nodes, &mut counters, first);
            debug_assert_eq!(nodes[0].journal.fingerprint(), nodes[1].journal.fingerprint());
            black_box(delivered)
        })
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    let entries = 1024u64;
    let mut group = c.benchmark_group("gossip_sync");
    group.sample_size(10);

    // One full three-leg exchange moving `entries` facts A -> B.
    group.throughput(Throughput::Elements(entries));
    group.bench_function("digest_delta_exchange", |b| {
        b.iter(|| {
            let (mut a, bn) = pair(entries);
            let mut counters = Counters::new();
            let first = a.on_round(0, &mut counters);
            let mut nodes = vec![a, bn];
            let delivered = pump(&mut nodes, &mut counters, first);
            assert_eq!(nodes[0].journal.fingerprint(), nodes[1].journal.fingerprint());
            black_box((delivered, counters.get_id(ctr().entries_applied)))
        })
    });

    // 64-node ring, 4 facts each, pumped to global convergence.
    let applied = ring_converge(64, 4);
    assert!(applied > 0);
    group.throughput(Throughput::Elements(applied));
    group.bench_function("ring_convergence_64", |b| b.iter(|| black_box(ring_converge(64, 4))));
    group.finish();
}

criterion_group!(benches, bench, bench_members);
criterion_main!(benches);
