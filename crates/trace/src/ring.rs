//! The event ring: the one bounded buffer of [`TraceEvent`]s behind both
//! the causal tracer and the crash flight recorder.
//!
//! Ids are absolute sequence numbers stamped with the ring's **namespace**
//! in the bits above [`SEQ_BITS`]; the ring retains the most recent
//! `capacity` events. Looking up an evicted (or foreign) id returns
//! `None`, and an ancestry walk stops at the eviction horizon — old
//! history degrades gracefully instead of corrupting causality.
//!
//! - Namespace 0 is the [`crate::Tracer`]'s ring: dense ids from 0, the
//!   ones trace exports print.
//! - A non-zero namespace is a flight-recorder ring. A sharded simulation
//!   runs one per shard (plus one at the coordinator for fault events);
//!   because every id says which ring minted it, a causal ancestry can be
//!   walked *across* rings after a parallel window, with no cross-thread
//!   coordination while events are being recorded.
//!
//! The backing `Vec` grows to capacity once and is overwritten in place
//! forever after, so steady-state recording allocates nothing.
//!
//! Determinism contract: recording order is the simulation's event-
//! processing order and timestamps are sim time, so for a fixed seed the
//! full event sequence — ids included — is identical across processes,
//! machines, and worker counts.

use crate::event::{EventId, EventKind, TraceEvent};

/// Bits of an [`EventId`] used for the per-ring sequence number; the bits
/// above carry the ring's `base` namespace.
pub const SEQ_BITS: u32 = 48;

/// Mask selecting the sequence bits of an id.
pub const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// A bounded, namespaced event ring.
#[derive(Debug, Clone)]
pub struct EventRing {
    /// Namespace stamped into the high bits of every id this ring mints.
    base: u64,
    cap: usize,
    /// Sequence number of the next event; `next - buf.len() .. next` are
    /// retained.
    next: u64,
    /// Circular storage: sequence `i` lives at `i % cap` once full.
    buf: Vec<TraceEvent>,
}

impl EventRing {
    /// A ring minting ids in namespace `base` (which must have no bits
    /// below [`SEQ_BITS`]) and retaining the most recent `capacity`
    /// events (minimum 1).
    pub fn new(base: u64, capacity: usize) -> EventRing {
        debug_assert_eq!(base & SEQ_MASK, 0, "ring base collides with sequence bits");
        EventRing { base, cap: capacity.max(1), next: 0, buf: Vec::new() }
    }

    /// Whether `id` was minted by this ring (it may still be evicted).
    pub fn owns(&self, id: EventId) -> bool {
        id.0 & !SEQ_MASK == self.base
    }

    /// Record an event and return its id.
    pub fn record(
        &mut self,
        at: u64,
        node: u32,
        kind: EventKind,
        cause: Option<EventId>,
        aux: Option<EventId>,
    ) -> EventId {
        let seq = self.next;
        self.next += 1;
        let ev = TraceEvent { at, node, kind, cause, aux };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            let idx = (seq % self.cap as u64) as usize;
            self.buf[idx] = ev;
        }
        EventId(self.base | seq)
    }

    /// Events ever recorded (sequences run `0..count`).
    pub fn count(&self) -> u64 {
        self.next
    }

    /// The oldest sequence number still retained.
    pub fn first_retained(&self) -> u64 {
        self.next - self.buf.len() as u64
    }

    /// The id of the most recently recorded event, if any.
    pub fn latest(&self) -> Option<EventId> {
        self.next.checked_sub(1).map(|seq| EventId(self.base | seq))
    }

    /// Look up a retained event; `None` if evicted, never recorded, or
    /// minted by a different ring.
    pub fn get(&self, id: EventId) -> Option<&TraceEvent> {
        if !self.owns(id) {
            return None;
        }
        let seq = id.0 & SEQ_MASK;
        if seq >= self.next || seq < self.first_retained() {
            return None;
        }
        Some(&self.buf[(seq % self.cap as u64) as usize])
    }

    /// Iterate retained events in id order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &TraceEvent)> {
        (self.first_retained()..self.next).map(move |seq| {
            let id = EventId(self.base | seq);
            (id, self.get(id).expect("retained seq"))
        })
    }

    /// Walk the primary-cause chain from `id` back to a root (or the
    /// eviction horizon, or an id another ring minted). The result starts
    /// with `id` itself and ends at the oldest reachable ancestor.
    pub fn ancestry(&self, id: EventId) -> Vec<EventId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(ev) = self.get(c) else { break };
            chain.push(c);
            cur = ev.cause;
        }
        chain
    }

    /// The ancestry of `id` as `(node, kind name)` pairs, oldest first —
    /// the shape causal-chain tests assert against.
    pub fn chain_names(&self, id: EventId) -> Vec<(u32, &'static str)> {
        let mut chain: Vec<(u32, &'static str)> = self
            .ancestry(id)
            .into_iter()
            .filter_map(|eid| self.get(eid).map(|ev| (ev.node, ev.kind.name())))
            .collect();
        chain.reverse();
        chain
    }

    /// Assert that the ancestry of `id`, oldest first and restricted to
    /// `node`, matches `expected` kind names exactly. Panics with a
    /// readable diff otherwise — for use in causal-chain tests.
    pub fn assert_chain(&self, id: EventId, node: u32, expected: &[&str]) {
        let got: Vec<&'static str> = self
            .chain_names(id)
            .into_iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, name)| name)
            .collect();
        assert_eq!(
            got,
            expected,
            "causal chain on node {node} diverges (oldest first; walked from #{})",
            id.0 & SEQ_MASK
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, FaultKind, ENGINE_NODE};

    fn mark(name: &'static str) -> EventKind {
        EventKind::Mark { name, detail: 0 }
    }

    /// Every ring property holds in the tracer's namespace and in a
    /// flight-recorder namespace alike.
    const BASES: [u64; 2] = [0, 3 << SEQ_BITS];

    #[test]
    fn ids_are_dense_namespaced_and_round_trip() {
        for base in BASES {
            let mut r = EventRing::new(base, 8);
            assert_eq!((r.latest(), r.count()), (None, 0), "empty ring");
            let a = r.record(10, 0, mark("a.a"), None, None);
            let b = r.record(20, 1, mark("a.b"), Some(a), None);
            assert_eq!((a.0, b.0), (base, base | 1));
            assert!(r.owns(a) && r.owns(b));
            assert_eq!(r.get(b).unwrap().cause, Some(a));
            assert_eq!(r.get(EventId(base | 99)), None, "never recorded");
            assert_eq!(r.latest(), Some(b));
        }
    }

    #[test]
    fn foreign_ids_are_rejected_not_aliased() {
        for base in BASES {
            let mut r = EventRing::new(base, 8);
            let a = r.record(0, 0, mark("a.a"), None, None);
            let foreign = EventId((7 << SEQ_BITS) | (a.0 & SEQ_MASK));
            assert!(!r.owns(foreign));
            assert_eq!(r.get(foreign), None, "same sequence, different ring");
        }
    }

    #[test]
    fn ring_evicts_oldest_in_place_and_iterates_oldest_first() {
        for base in BASES {
            let mut r = EventRing::new(base, 4);
            let ids: Vec<EventId> =
                (0..10).map(|i| r.record(i, 0, mark("a.a"), None, None)).collect();
            assert_eq!(r.count(), 10);
            assert_eq!(r.first_retained(), 6);
            assert_eq!(r.buf.capacity(), 4, "no growth past capacity");
            assert_eq!(r.get(ids[5]), None, "evicted");
            assert_eq!(r.get(ids[6]).unwrap().at, 6);
            assert_eq!(r.get(ids[9]).unwrap().at, 9);
            let seen: Vec<(EventId, u64)> = r.iter().map(|(id, ev)| (id, ev.at)).collect();
            assert_eq!(seen, vec![(ids[6], 6), (ids[7], 7), (ids[8], 8), (ids[9], 9)]);
        }
    }

    #[test]
    fn ancestry_walks_to_root() {
        let mut t = EventRing::new(0, 16);
        let root = t.record(0, 0, EventKind::TimerSet { tag: 1 }, None, None);
        let fire = t.record(5, 0, EventKind::TimerFire { tag: 1 }, Some(root), None);
        let enq = t.record(5, 0, EventKind::PacketEnqueue { port: 0, bytes: 64 }, Some(fire), None);
        let tx = t.record(6, 0, EventKind::PacketTransmit, Some(enq), None);
        let dlv = t.record(11, 1, EventKind::PacketDeliver { port: 0 }, Some(tx), None);
        assert_eq!(t.ancestry(dlv), vec![dlv, tx, enq, fire, root]);
        assert_eq!(
            t.chain_names(dlv),
            vec![
                (0, "timer.set"),
                (0, "timer.fire"),
                (0, "packet.enqueue"),
                (0, "packet.transmit"),
                (1, "packet.deliver"),
            ]
        );
        t.assert_chain(dlv, 0, &["timer.set", "timer.fire", "packet.enqueue", "packet.transmit"]);
    }

    #[test]
    fn ancestry_stops_at_eviction_horizon() {
        for base in BASES {
            let mut t = EventRing::new(base, 2);
            let a = t.record(0, 0, mark("a.a"), None, None);
            let b = t.record(1, 0, mark("a.b"), Some(a), None);
            let c = t.record(2, 0, mark("a.c"), Some(b), None);
            // `a` has been evicted: the walk returns only the retained suffix.
            assert_eq!(t.ancestry(c), vec![c, b]);
        }
    }

    #[test]
    fn aux_edges_are_preserved() {
        let mut t = EventRing::new(0, 8);
        let fault = t.record(0, ENGINE_NODE, EventKind::Fault(FaultKind::Crash), None, None);
        let drop = t.record(5, 2, EventKind::PacketDrop(DropReason::Crash), None, Some(fault));
        assert_eq!(t.get(drop).unwrap().aux, Some(fault));
    }
}
