//! Crash flight recorder: ring namespaces and the postmortem rendering
//! helpers.
//!
//! The storage half lives in `rdv-trace` ([`EventRing`]): a bounded,
//! zero-alloc-steady-state event ring whose ids carry a namespace in their
//! high bits — the same type the tracer records into at namespace 0. This
//! module owns the engine-facing half: which namespace each flight ring
//! gets (one per shard, plus a coordinator ring for fault events and
//! external schedules), and how a dump is rendered when a run dies — the
//! causal ancestry of the failing event walked *across* rings (the
//! tracer's included, when it was the one recording), resolved purely by
//! id namespace.
//!
//! Everything rendered here is integer-formatted from sim state, so a dump
//! for a given seed and shard count is byte-deterministic.

use std::fmt::Write as _;

use rdv_trace::ring::{SEQ_BITS, SEQ_MASK};
use rdv_trace::{EventId, EventKind, EventRing, TraceEvent, ENGINE_NODE};

/// Namespace of the coordinator ring (fault events, external schedules).
pub(crate) const COORD_BASE: u64 = 0xFFFF << SEQ_BITS;

/// Namespace of shard `idx`'s ring (shifted by one so namespace 0 — plain
/// tracer ids — can never collide with a flight id).
pub(crate) fn shard_base(idx: usize) -> u64 {
    ((idx as u64) + 1) << SEQ_BITS
}

/// Human label of the ring that minted `id`: `s<n>`, `coord`, or `trace`
/// (namespace 0, the tracer's ring).
pub(crate) fn ring_label(id: EventId) -> String {
    match id.0 >> SEQ_BITS {
        0 => "trace".to_string(),
        ns if ns == COORD_BASE >> SEQ_BITS => "coord".to_string(),
        ns => format!("s{}", ns - 1),
    }
}

/// The per-ring sequence part of a flight id.
pub(crate) fn seq_of(id: EventId) -> u64 {
    id.0 & SEQ_MASK
}

/// How much a ring has seen and still holds, as a postmortem prints it.
pub(crate) fn ring_state(ring: &EventRing) -> String {
    format!("recorded={} retained={}", ring.count(), ring.count() - ring.first_retained())
}

/// One-line rendering of a flight event: ring-qualified id, sim time,
/// node, kind, and its causal edges.
pub(crate) fn fmt_event(id: EventId, ev: &TraceEvent) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}#{} t={} ns ", ring_label(id), seq_of(id), ev.at);
    if ev.node == ENGINE_NODE {
        s.push_str("engine ");
    } else {
        let _ = write!(s, "node {} ", ev.node);
    }
    s.push_str(ev.kind.name());
    match &ev.kind {
        EventKind::PacketEnqueue { port, bytes } => {
            let _ = write!(s, " port={port} bytes={bytes}");
        }
        EventKind::PacketDeliver { port } => {
            let _ = write!(s, " port={port}");
        }
        EventKind::TimerSet { tag }
        | EventKind::TimerFire { tag }
        | EventKind::TimerDrop { tag } => {
            let _ = write!(s, " tag={tag}");
        }
        EventKind::SpanBegin { name, detail } | EventKind::Mark { name, detail } => {
            let _ = write!(s, " {name} detail={detail}");
        }
        EventKind::SpanEnd { name } => {
            let _ = write!(s, " {name}");
        }
        _ => {}
    }
    if let Some(c) = ev.cause {
        let _ = write!(s, " cause={}#{}", ring_label(c), seq_of(c));
    }
    if let Some(a) = ev.aux {
        let _ = write!(s, " aux={}#{}", ring_label(a), seq_of(a));
    }
    s
}

/// Depth bound on ancestry walks — deep enough for any real op chain,
/// finite even if a ring were corrupted into a cycle.
const MAX_ANCESTRY: usize = 64;

/// Append the causal ancestry of `anchor` (most recent first) to `out`,
/// resolving each hop against whichever ring minted it. The walk stops at
/// a root, the eviction horizon, or the depth bound.
pub(crate) fn render_ancestry(rings: &[&EventRing], anchor: EventId, out: &mut String) {
    let mut cur = Some(anchor);
    for _ in 0..MAX_ANCESTRY {
        let Some(id) = cur else { return };
        // `get` answers only for ids its own ring minted.
        match rings.iter().find_map(|r| r.get(id)) {
            Some(ev) => {
                out.push_str("  ");
                out.push_str(&fmt_event(id, ev));
                out.push('\n');
                cur = ev.cause;
            }
            None => {
                let _ = writeln!(out, "  {}#{} (evicted)", ring_label(id), seq_of(id));
                return;
            }
        }
    }
    out.push_str("  … (ancestry depth bound reached)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_labels_name_shards_and_coordinator() {
        assert_eq!(ring_label(EventId(shard_base(0) | 7)), "s0");
        assert_eq!(ring_label(EventId(shard_base(3) | 1)), "s3");
        assert_eq!(ring_label(EventId(COORD_BASE | 2)), "coord");
        assert_eq!(ring_label(EventId(5)), "trace");
        assert_eq!(seq_of(EventId(shard_base(2) | 99)), 99);
    }

    #[test]
    fn ancestry_walks_across_ring_namespaces() {
        let mut a = EventRing::new(shard_base(0), 8);
        let mut b = EventRing::new(shard_base(1), 8);
        let root = a.record(0, 0, EventKind::PacketEnqueue { port: 0, bytes: 64 }, None, None);
        let tx = a.record(5, 0, EventKind::PacketTransmit, Some(root), None);
        let dlv = b.record(10, 1, EventKind::PacketDeliver { port: 0 }, Some(tx), None);
        let mut out = String::new();
        render_ancestry(&[&a, &b], dlv, &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "three hops: {out}");
        assert!(lines[0].starts_with("  s1#0"), "{out}");
        assert!(lines[0].contains("packet.deliver") && lines[0].contains("cause=s0#1"), "{out}");
        assert!(lines[2].starts_with("  s0#0") && lines[2].contains("packet.enqueue"), "{out}");
    }

    #[test]
    fn evicted_ancestors_degrade_gracefully() {
        let mut r = EventRing::new(shard_base(0), 2);
        let a = r.record(0, 0, EventKind::PacketTransmit, None, None);
        let b = r.record(1, 0, EventKind::PacketTransmit, Some(a), None);
        let c = r.record(2, 0, EventKind::PacketTransmit, Some(b), None);
        let d = r.record(3, 0, EventKind::PacketTransmit, Some(c), None);
        let mut out = String::new();
        render_ancestry(&[&r], d, &mut out);
        assert!(out.contains("s0#1 (evicted)"), "walk stops at the horizon: {out}");
    }
}
