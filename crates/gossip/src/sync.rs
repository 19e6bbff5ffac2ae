//! The sans-IO anti-entropy round machine.
//!
//! One [`GossipSync`] lives inside each participating node. The owner
//! arms a sim-time timer at `cfg.period`; on each firing it calls
//! [`GossipSync::on_round`] and transmits the returned digests, and for
//! every received gossip packet it calls [`GossipSync::on_msg`] and
//! transmits whatever comes back. The machine never touches a clock or an
//! RNG: peer selection rotates deterministically with the round counter,
//! so a seeded simulation replays the exact same exchange sequence at any
//! shard count.
//!
//! Exchange shape (bounded three-leg ping-pong):
//!
//! 1. A sends its [`Digest`] to a rotation-selected peer (relay-first).
//! 2. B replies with a [`Delta`] of what A lacks — always, even when
//!    empty, because the reply doubles as the liveness ack that keeps the
//!    relay path trusted.
//! 3. A applies, and answers with a reciprocal delta only if B's version
//!    vector shows B behind (`want_reply` stops the ping-pong there).

use rdv_memproto::msg::{Msg, MsgBody};
use rdv_netsim::stats::{CounterId, Counters};
use rdv_netsim::SimTime;
use rdv_objspace::ObjId;

use crate::journal::{orset_fingerprint, Delta, Digest, Journal};
use crate::path::{PeerPath, Route};

/// Pacing and fallback knobs for the round machine.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Sim-time between anti-entropy rounds.
    pub period: SimTime,
    /// Peers contacted per round.
    pub fanout: usize,
    /// Unanswered digests on the relay path before falling back direct.
    pub suspect_after: u32,
    /// Drop nil-holder tombstones older than this sim-time horizon at the
    /// start of each round (`None` keeps them forever). Pick a horizon
    /// comfortably past anti-entropy convergence time, or a peer that
    /// missed the tombstone keeps its stale fact.
    pub expire_after: Option<SimTime>,
}

impl Default for GossipConfig {
    fn default() -> GossipConfig {
        GossipConfig {
            period: SimTime::from_micros(40),
            fanout: 1,
            suspect_after: 2,
            expire_after: None,
        }
    }
}

/// Interned `gossip.*` counter IDs (names registered in the rdv-trace name
/// table).
pub struct GossipCtr {
    /// `gossip.rounds`
    pub rounds: CounterId,
    /// `gossip.digests_sent`
    pub digests_sent: CounterId,
    /// `gossip.deltas_sent`
    pub deltas_sent: CounterId,
    /// `gossip.entries_applied`
    pub entries_applied: CounterId,
    /// `gossip.relay_fallbacks`
    pub relay_fallbacks: CounterId,
    /// `gossip.relayed`
    pub relayed: CounterId,
    /// `gossip.repair_hits`
    pub repair_hits: CounterId,
    /// `gossip.facts_expired`
    pub facts_expired: CounterId,
}

/// The interned gossip counter set (process-wide, intern-once).
pub fn ctr() -> &'static GossipCtr {
    use std::sync::OnceLock;
    static CTRS: OnceLock<GossipCtr> = OnceLock::new();
    CTRS.get_or_init(|| GossipCtr {
        rounds: CounterId::intern("gossip.rounds"),
        digests_sent: CounterId::intern("gossip.digests_sent"),
        deltas_sent: CounterId::intern("gossip.deltas_sent"),
        entries_applied: CounterId::intern("gossip.entries_applied"),
        relay_fallbacks: CounterId::intern("gossip.relay_fallbacks"),
        relayed: CounterId::intern("gossip.relayed"),
        repair_hits: CounterId::intern("gossip.repair_hits"),
        facts_expired: CounterId::intern("gossip.facts_expired"),
    })
}

/// Per-node anti-entropy state: the journal, the peer set with path
/// preferences, and the round counter driving deterministic rotation.
#[derive(Debug)]
pub struct GossipSync {
    inbox: ObjId,
    /// The descriptor journal this node gossips.
    pub journal: Journal,
    cfg: GossipConfig,
    peers: Vec<PeerPath>,
    round: u64,
}

impl GossipSync {
    /// A round machine for `inbox`, journaling as `replica`.
    pub fn new(inbox: ObjId, replica: u64, cfg: GossipConfig) -> GossipSync {
        GossipSync { inbox, journal: Journal::new(replica), cfg, peers: Vec::new(), round: 0 }
    }

    /// Register a peer, optionally reached relay-first through `relay`.
    pub fn add_peer(&mut self, peer: ObjId, relay: Option<ObjId>) {
        self.peers.push(PeerPath::new(peer, relay));
    }

    /// Registered peer count.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The configured round period (owners arm their timer with this).
    pub fn period(&self) -> SimTime {
        self.cfg.period
    }

    /// Rounds fired so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Run one anti-entropy round at sim time `now_ns`: expire aged
    /// tombstones when configured, then pick `fanout` peers by
    /// deterministic rotation and emit a digest to each along its
    /// preferred path.
    pub fn on_round(&mut self, now_ns: u64, counters: &mut Counters) -> Vec<Msg> {
        if let Some(horizon) = self.cfg.expire_after {
            let expired = self.journal.expire_tombstones(now_ns, horizon.as_nanos());
            if expired > 0 {
                counters.add_id(ctr().facts_expired, expired as u64);
            }
        }
        if self.peers.is_empty() {
            return Vec::new();
        }
        counters.inc_id(ctr().rounds);
        let round = self.round;
        self.round += 1;
        let digest = rdv_wire::encode_to_vec(&self.journal.digest());
        let mut out = Vec::new();
        for k in 0..self.cfg.fanout.min(self.peers.len()) {
            let idx = ((round as usize) * self.cfg.fanout + k) % self.peers.len();
            let path = &mut self.peers[idx];
            let (route, fell_back) = path.choose(self.cfg.suspect_after);
            if fell_back {
                counters.inc_id(ctr().relay_fallbacks);
            }
            let wire_dst = match route {
                Route::Relay(relay) => relay,
                Route::Direct => path.peer,
            };
            path.on_sent();
            counters.inc_id(ctr().digests_sent);
            out.push(Msg::new(
                wire_dst,
                self.inbox,
                MsgBody::GossipDigest { round, target: path.peer, data: digest.clone() },
            ));
        }
        out
    }

    /// Handle a received gossip packet; returns the packets to transmit
    /// in response (forwarded frame, delta reply, or reciprocal delta).
    pub fn on_msg(&mut self, msg: &Msg, counters: &mut Counters) -> Vec<Msg> {
        match &msg.body {
            MsgBody::GossipDigest { round, target, data } => {
                if *target != self.inbox {
                    if msg.header.dst != self.inbox {
                        // Flood-delivered overhear (the frame was addressed
                        // past us, not to us): not our relay duty. Only a
                        // frame addressed to our inbox carries a relay leg.
                        return Vec::new();
                    }
                    // Relay leg: forward toward the target, preserving the
                    // originator as source so the reply returns directly.
                    counters.inc_id(ctr().relayed);
                    return vec![Msg::new(
                        *target,
                        msg.header.src,
                        MsgBody::GossipDigest {
                            round: *round,
                            target: *target,
                            data: data.clone(),
                        },
                    )];
                }
                let Ok(theirs) = rdv_wire::decode_from_slice::<Digest>(data) else {
                    return Vec::new();
                };
                // Always answer — an empty delta is still the liveness ack
                // that keeps the initiator's relay path trusted.
                let delta = self.journal.delta_since(&theirs, true);
                counters.inc_id(ctr().deltas_sent);
                vec![Msg::new(
                    msg.header.src,
                    self.inbox,
                    MsgBody::GossipDelta {
                        round: *round,
                        target: msg.header.src,
                        data: rdv_wire::encode_to_vec(&delta),
                    },
                )]
            }
            MsgBody::GossipDelta { round, target, data } => {
                if *target != self.inbox {
                    if msg.header.dst != self.inbox {
                        return Vec::new(); // flood overhear, as above
                    }
                    counters.inc_id(ctr().relayed);
                    return vec![Msg::new(
                        *target,
                        msg.header.src,
                        MsgBody::GossipDelta { round: *round, target: *target, data: data.clone() },
                    )];
                }
                let Ok(delta) = rdv_wire::decode_from_slice::<Delta>(data) else {
                    return Vec::new();
                };
                let their_members_fp = delta.members.as_deref().map(orset_fingerprint);
                let applied = self.journal.apply(&delta);
                counters.add_id(ctr().entries_applied, applied as u64);
                if let Some(path) = self.peers.iter_mut().find(|p| p.peer == msg.header.src) {
                    path.on_answered();
                }
                if !delta.want_reply {
                    return Vec::new();
                }
                // Reciprocate only if their version vector shows them
                // behind. Their membership fingerprint is the one of the
                // set they shipped (their full state); if they shipped
                // none, the fingerprints matched at digest time.
                let theirs = Digest {
                    vv: delta.vv,
                    members_fp: their_members_fp
                        .unwrap_or_else(|| self.journal.members_fingerprint()),
                };
                if !self.journal.is_ahead_of(&theirs) {
                    return Vec::new();
                }
                let reply = self.journal.delta_since(&theirs, false);
                counters.inc_id(ctr().deltas_sent);
                vec![Msg::new(
                    msg.header.src,
                    self.inbox,
                    MsgBody::GossipDelta {
                        round: *round,
                        target: msg.header.src,
                        data: rdv_wire::encode_to_vec(&reply),
                    },
                )]
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(
        nodes: &mut [GossipSync],
        counters: &mut Counters,
        mut inflight: Vec<Msg>,
    ) -> (usize, usize) {
        // Deliver until quiescent; returns (packets delivered, hops).
        let (mut delivered, mut hops) = (0, 0);
        while let Some(msg) = inflight.pop() {
            delivered += 1;
            hops += 1;
            assert!(hops < 10_000, "gossip exchange must terminate");
            let Some(node) = nodes.iter_mut().find(|n| n.inbox == msg.header.dst) else {
                continue;
            };
            inflight.extend(node.on_msg(&msg, counters));
        }
        (delivered, hops)
    }

    #[test]
    fn one_round_converges_two_peers() {
        let mut counters = Counters::new();
        let mut a = GossipSync::new(ObjId(0xA), 1, GossipConfig::default());
        let mut b = GossipSync::new(ObjId(0xB), 2, GossipConfig::default());
        a.add_peer(ObjId(0xB), None);
        b.add_peer(ObjId(0xA), None);
        a.journal.record_holder(ObjId(1), ObjId(0xA), 100);
        b.journal.record_holder(ObjId(2), ObjId(0xB), 120);

        let first = a.on_round(200, &mut counters);
        assert_eq!(first.len(), 1);
        let mut nodes = [a, b];
        pump(&mut nodes, &mut counters, first);
        assert_eq!(nodes[0].journal.fingerprint(), nodes[1].journal.fingerprint());
        assert_eq!(counters.get_id(ctr().entries_applied), 2, "one entry each way");
    }

    #[test]
    fn ring_of_64_converges_to_equal_fingerprints() {
        // One node per ring slot, each peered with its successor and
        // holding 4 facts of its own; pump whole rounds to quiescence.
        const NODES: u128 = 64;
        let mut ring: Vec<GossipSync> = (0..NODES)
            .map(|i| {
                let mut s = GossipSync::new(ObjId(0xB_0000 + i), i as u64 + 1, Default::default());
                s.add_peer(ObjId(0xB_0000 + (i + 1) % NODES), None);
                for e in 0..4 {
                    s.journal.record_holder(ObjId(0x1000 * (i + 1) + e), s.inbox, 100 + e as u64);
                }
                s
            })
            .collect();
        let mut counters = Counters::new();
        let converged = |ring: &[GossipSync]| {
            let fp = ring[0].journal.fingerprint();
            ring.iter().all(|n| n.journal.fingerprint() == fp)
        };
        // A fact crosses at least one ring hop per round.
        for _ in 0..2 * NODES {
            if converged(&ring) {
                break;
            }
            let outs = ring.iter_mut().flat_map(|n| n.on_round(0, &mut counters)).collect();
            pump(&mut ring, &mut counters, outs);
        }
        assert!(converged(&ring), "ring must converge");
        assert_eq!(ring[0].journal.len(), 64 * 4, "every node holds every fact");
        assert!(counters.get_id(ctr().entries_applied) >= 63 * 64 * 4);
    }

    #[test]
    fn relay_leg_forwards_and_partition_falls_back() {
        let mut counters = Counters::new();
        let cfg = GossipConfig { suspect_after: 2, ..GossipConfig::default() };
        let mut a = GossipSync::new(ObjId(0xA), 1, cfg);
        let mut r = GossipSync::new(ObjId(0xE), 3, cfg);
        a.add_peer(ObjId(0xB), Some(ObjId(0xE)));
        a.journal.record_holder(ObjId(1), ObjId(0xA), 100);

        // Healthy: the digest goes to the relay, which forwards it.
        let out = a.on_round(200, &mut counters);
        assert_eq!(out[0].header.dst, ObjId(0xE));
        let fwd = r.on_msg(&out[0], &mut counters);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].header.dst, ObjId(0xB));
        assert_eq!(fwd[0].header.src, ObjId(0xA), "origin preserved through the relay");
        assert_eq!(counters.get_id(ctr().relayed), 1);

        // Partitioned relay: two more unanswered rounds demote to direct.
        let out = a.on_round(300, &mut counters);
        assert_eq!(out[0].header.dst, ObjId(0xE), "still relay-first");
        let out = a.on_round(400, &mut counters);
        assert_eq!(out[0].header.dst, ObjId(0xB), "fallback to the direct route");
        assert_eq!(counters.get_id(ctr().relay_fallbacks), 1);
    }

    #[test]
    fn rounds_expire_aged_tombstones_when_configured() {
        let mut counters = Counters::new();
        let cfg = GossipConfig {
            expire_after: Some(SimTime::from_nanos(500)),
            ..GossipConfig::default()
        };
        let mut a = GossipSync::new(ObjId(0xA), 1, cfg);
        a.add_peer(ObjId(0xB), None);
        a.journal.record_holder(ObjId(1), ObjId(0xA), 100);
        a.journal.retire_holder(ObjId(1), 200);

        // Inside the horizon: the tombstone stays.
        a.on_round(400, &mut counters);
        assert_eq!(a.journal.len(), 1);
        assert_eq!(counters.get_id(ctr().facts_expired), 0);

        // Past it: expired at the next round, tallied once.
        a.on_round(900, &mut counters);
        assert_eq!(a.journal.len(), 0, "aged tombstone dropped");
        assert_eq!(counters.get_id(ctr().facts_expired), 1);
        a.on_round(1_300, &mut counters);
        assert_eq!(counters.get_id(ctr().facts_expired), 1, "no double count");
    }
}
