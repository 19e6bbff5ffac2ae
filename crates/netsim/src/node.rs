//! The node behaviour trait and its interaction context.
//!
//! A [`Node`] is the software attached to one network element. The engine
//! calls it when a packet arrives on one of its ports or a timer it set
//! fires; the node responds by queuing sends and timers on the
//! [`NodeCtx`] — it never touches the engine directly, which keeps the event
//! loop single-owner and the simulation deterministic.

use rand::rngs::StdRng;
use rdv_metrics::{AuditScope, MetricSample};
use rdv_trace::{EventId, TraceCtx};

use crate::packet::Packet;
use crate::time::SimTime;

/// Identifies a node within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies one of a node's ports (dense, 0-based, assigned as links are
/// attached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// Behaviour attached to a network element.
///
/// The `Any` supertrait lets experiments downcast a node back to its
/// concrete type after a run (see [`crate::engine::Sim::node_as`]). The
/// `Send` supertrait lets the sharded engine move node sets onto worker
/// threads for one lookahead window at a time (see `--shards`); nodes
/// never share state, so no `Sync` is required.
pub trait Node: std::any::Any + Send {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet);

    /// A timer set via [`NodeCtx::set_timer`] fired with its `tag`.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called once when the simulation starts, before any packet flows.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when fault injection restarts this node after a crash.
    ///
    /// The crash discarded every pending delivery and timer for the node,
    /// so protocols that pace themselves with timers must re-arm here.
    /// In-memory state survives (crash-stop of the network stack only).
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "node"
    }

    /// Record this node's gauges for one metrics tick (see
    /// [`crate::Sim::enable_metrics`]). The engine pre-sets the instance
    /// label, so implementations just call `m.gauge("<base>", value)`
    /// with base names from `rdv_metrics::GAUGE_NAMES`. Must read state
    /// only — sampling may never perturb the simulation.
    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        let _ = m;
    }

    /// Make invariant-monitor claims for one audit tick: declare owned
    /// inboxes and claim directory holders / transport high-water marks.
    /// Runs on crashed nodes too (crash-stop kills the network stack,
    /// not in-memory state). Must read state only.
    fn audit(&self, a: &mut AuditScope<'_>) {
        let _ = a;
    }
}

/// Buffered actions a node may take during a callback; drained by the
/// engine afterwards.
///
/// The send/timer buffers are scratch vectors owned by the engine and
/// lent to the context for the duration of one callback, so steady-state
/// event processing allocates nothing.
pub struct NodeCtx<'a> {
    /// This node's ID.
    pub id: NodeId,
    /// Current simulated time.
    pub now: SimTime,
    /// Number of ports attached to this node.
    pub port_count: usize,
    /// Deterministic RNG stream for this node, derived from the root
    /// [`crate::engine::SimConfig`] seed and the node id — per-node
    /// streams keep draws byte-identical for any `--shards` count.
    pub rng: &'a mut StdRng,
    /// Causal-trace handle for this callback: protocol code opens spans and
    /// drops marks here, pre-linked to the event being dispatched. Inert
    /// (every call a no-op) unless tracing was enabled on the [`crate::Sim`].
    pub trace: TraceCtx<'a>,
    /// Buffered sends, each with the causal provenance snapshotted at the
    /// moment of the call: the dispatch cause in full-trace mode (so one
    /// callback's sends all share the dispatch event, exactly as before
    /// selective tracing existed), or the current span anchor in sampled
    /// mode (so a send issued inside a span chains to that span).
    pub(crate) sends: &'a mut Vec<(PortId, Packet, Option<EventId>)>,
    /// Buffered timers, with provenance snapshotted like `sends`.
    pub(crate) timers: &'a mut Vec<(SimTime, u64, Option<EventId>)>,
}

impl<'a> NodeCtx<'a> {
    /// Transmit `packet` out of `port`.
    pub fn send(&mut self, port: PortId, packet: Packet) {
        debug_assert!(port.0 < self.port_count, "send on unattached port");
        let provenance = self.trace.provenance();
        self.sends.push((port, packet, provenance));
    }

    /// Transmit a copy of `packet` out of every port except `except`
    /// (pass `None` to flood all ports) — the broadcast primitive used by
    /// E2E discovery.
    pub fn flood(&mut self, packet: &Packet, except: Option<PortId>) {
        let provenance = self.trace.provenance();
        for p in 0..self.port_count {
            if Some(PortId(p)) != except {
                self.sends.push((PortId(p), packet.clone(), provenance));
            }
        }
    }

    /// Arrange for [`Node::on_timer`] to fire `delay` from now with `tag`.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let provenance = self.trace.provenance();
        self.timers.push((self.now + delay, tag, provenance));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_buffers_actions() {
        let mut rng = StdRng::seed_from_u64(1); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = NodeCtx {
            id: NodeId(0),
            now: SimTime::from_micros(5),
            port_count: 3,
            rng: &mut rng,
            trace: TraceCtx::inert(),
            sends: &mut sends,
            timers: &mut timers,
        };
        ctx.send(PortId(1), Packet::new(vec![1], 0));
        ctx.set_timer(SimTime::from_micros(10), 77);
        assert_eq!(sends.len(), 1);
        assert_eq!(timers, vec![(SimTime::from_micros(15), 77, None)]);
    }

    #[test]
    fn flood_skips_ingress() {
        let mut rng = StdRng::seed_from_u64(1); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = NodeCtx {
            id: NodeId(0),
            now: SimTime::ZERO,
            port_count: 4,
            rng: &mut rng,
            trace: TraceCtx::inert(),
            sends: &mut sends,
            timers: &mut timers,
        };
        ctx.flood(&Packet::new(vec![9], 1), Some(PortId(2)));
        let ports: Vec<usize> = sends.iter().map(|(p, _, _)| p.0).collect();
        assert_eq!(ports, vec![0, 1, 3]);
    }

    #[test]
    fn flood_all_when_no_ingress() {
        let mut rng = StdRng::seed_from_u64(1); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = NodeCtx {
            id: NodeId(0),
            now: SimTime::ZERO,
            port_count: 2,
            rng: &mut rng,
            trace: TraceCtx::inert(),
            sends: &mut sends,
            timers: &mut timers,
        };
        ctx.flood(&Packet::new(vec![9], 1), None);
        assert_eq!(sends.len(), 2);
    }
}
