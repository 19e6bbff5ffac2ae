//! Journal-synchronized descriptor propagation (DESIGN.md §12).
//!
//! Replaces flood rediscovery in `rdv-discovery`: host descriptors and
//! holder facts are CRDT envelopes (`rdv-crdt` LWW registers + OR-set
//! membership) in a per-node [`Journal`], kept convergent by
//! seed-deterministic neighbor anti-entropy ([`GossipSync`]: digest
//! exchange → delta sync, paced on sim-time timers). A churn event costs
//! O(1) gossip messages per round instead of an O(hosts) broadcast, and a
//! stale destination-cache entry is repaired from the local journal
//! without touching the network. Gossip frames travel relay-first with
//! priority fallback to the direct route when a partition cuts the relay
//! off ([`path::PeerPath`]).

pub mod journal;
pub mod path;
pub mod sync;

pub use journal::{Delta, Digest, HolderFact, Journal, Origin};
pub use path::{PeerPath, Route};
pub use sync::{ctr, GossipConfig, GossipCtr, GossipSync};

#[cfg(test)]
mod tests {
    use super::*;

    /// `GossipCtr` interns exactly the table's `gossip.*` counters.
    #[test]
    fn counter_registry_matches_interned_set() {
        use rdv_netsim::stats::Counters;
        use rdv_netsim::trace::names::{Kind, NAMES};
        let mut counters = Counters::new();
        let c = sync::ctr();
        for id in [
            c.rounds,
            c.digests_sent,
            c.deltas_sent,
            c.entries_applied,
            c.relay_fallbacks,
            c.relayed,
            c.repair_hits,
            c.facts_expired,
        ] {
            counters.inc_id(id);
        }
        let mut registered: Vec<(&str, u64)> = NAMES
            .iter()
            .filter(|n| n.kind == Kind::Counter && n.name.starts_with("gossip."))
            .map(|n| (n.name, 1))
            .collect();
        registered.sort_unstable();
        assert_eq!(counters.iter().collect::<Vec<_>>(), registered);
    }
}
