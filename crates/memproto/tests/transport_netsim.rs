//! Integration: the lightweight reliable transport running over real
//! simulated (and lossy, and faulty) links — the paper's "new, light-weight
//! form of reliable transmission" doing its job end to end.

use rdv_memproto::msg::{Msg, MsgBody};
use rdv_memproto::transport::{ReliableEndpoint, TransportConfig};
use rdv_netsim::trace::EventId;
use rdv_netsim::{
    FaultPlan, LinkSpec, Node, NodeCtx, Observe, Packet, PortId, Sim, SimConfig, SimTime, TraceSpec,
};
use rdv_objspace::ObjId;

const TICK: u64 = 1;

/// A host that pushes `outbox` reliably to `peer`, records deliveries, and
/// keeps exact per-direction transmission counts for accounting checks.
struct TunnelNode {
    ep: ReliableEndpoint,
    peer: ObjId,
    outbox: Vec<Vec<u8>>,
    delivered: Vec<Vec<u8>>,
    trace: u64,
    sent_data: u64,
    sent_acks: u64,
    rx_data: u64,
    rx_acks: u64,
}

impl TunnelNode {
    fn new(local: ObjId, peer: ObjId, outbox: Vec<Vec<u8>>, cfg: TransportConfig) -> TunnelNode {
        TunnelNode {
            ep: ReliableEndpoint::new(local, cfg),
            peer,
            outbox,
            delivered: Vec::new(),
            trace: 1,
            sent_data: 0,
            sent_acks: 0,
            rx_data: 0,
            rx_acks: 0,
        }
    }

    fn push(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        match msg.body {
            MsgBody::RelData { .. } => self.sent_data += 1,
            MsgBody::RelAck { .. } => self.sent_acks += 1,
            _ => {}
        }
        self.trace += 1;
        ctx.send(PortId(0), Packet::new(msg.encode(), (self.ep.local().lo() << 32) | self.trace));
    }

    fn pump_retransmits(&mut self, ctx: &mut NodeCtx<'_>) {
        for (msg, token) in self.ep.poll_retransmits_traced(ctx.now) {
            let seq = match msg.body {
                MsgBody::RelData { seq, .. } => seq,
                _ => 0,
            };
            // The aux edge cites the original send's mark — the causal
            // link the engine cannot infer on its own.
            ctx.trace.mark_linked("transport.retransmit", seq, token.map(EventId::from_raw));
            self.push(ctx, msg);
        }
        if self.ep.in_flight() > 0 {
            ctx.set_timer(SimTime::from_micros(100), TICK);
        }
    }
}

impl Node for TunnelNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // rdv-lint: allow(shard-interference) -- TunnelNode's own outgoing-message buffer, not engine shard state
        let outbox = std::mem::take(&mut self.outbox);
        let peer = self.peer;
        for (i, inner) in outbox.into_iter().enumerate() {
            let token = ctx.trace.mark("transport.send", i as u64).map(EventId::as_raw);
            let msg = self.ep.send_traced(ctx.now, peer, inner, token);
            self.push(ctx, msg);
        }
        if self.ep.in_flight() > 0 {
            ctx.set_timer(SimTime::from_micros(100), TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(msg) = Msg::decode(&packet.payload) else { return };
        match msg.body {
            MsgBody::RelData { .. } => self.rx_data += 1,
            MsgBody::RelAck { .. } => self.rx_acks += 1,
            _ => {}
        }
        let (delivered, ack) = self.ep.on_receive(&msg);
        self.delivered.extend(delivered);
        if let Some(ack) = ack {
            self.push(ctx, ack);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        self.pump_retransmits(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // The crash killed the polling timer; resume driving retransmits.
        self.pump_retransmits(ctx);
    }
}

fn payloads(n: u64) -> Vec<Vec<u8>> {
    (0..n).map(|i| MsgBody::ObjImageReq { req: i, target: ObjId(5) }.encode_bare()).collect()
}

fn tunnel_cfg() -> TransportConfig {
    TransportConfig { rto: SimTime::from_micros(200), max_retries: 100, backoff_cap: 2 }
}

struct TunnelOutcome {
    delivered: Vec<Vec<u8>>,
    retransmits: u64,
    packets_lost: u64,
    sender_failed: Vec<(ObjId, u64)>,
    /// `(data a→b lost, acks b→a lost)` by exact conservation.
    direction_losses: (u64, u64),
}

fn run_tunnel_with(
    loss_permille: u16,
    messages: u64,
    seed: u64,
    plan: Option<FaultPlan>,
) -> TunnelOutcome {
    let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
    let a = sim.add_node(Box::new(TunnelNode::new(
        ObjId(0xA),
        ObjId(0xB),
        payloads(messages),
        tunnel_cfg(),
    )));
    let b =
        sim.add_node(Box::new(TunnelNode::new(ObjId(0xB), ObjId(0xA), Vec::new(), tunnel_cfg())));
    sim.connect(a, b, LinkSpec::rack().with_loss(loss_permille));
    if let Some(plan) = plan {
        sim.install_fault_plan(&plan);
    }
    sim.run_until_idle();
    let receiver = sim.node_as::<TunnelNode>(b).unwrap();
    let sender = sim.node_as::<TunnelNode>(a).unwrap();
    TunnelOutcome {
        delivered: receiver.delivered.clone(),
        retransmits: sender.ep.retransmits,
        packets_lost: sim.counters.get("sim.packets_lost"),
        sender_failed: sender.ep.failed.clone(),
        direction_losses: (
            sender.sent_data - receiver.rx_data,
            receiver.sent_acks - sender.rx_acks,
        ),
    }
}

fn run_tunnel(loss_permille: u16, messages: u64, seed: u64) -> (Vec<Vec<u8>>, u64, u64) {
    let out = run_tunnel_with(loss_permille, messages, seed, None);
    (out.delivered, out.retransmits, out.packets_lost)
}

#[test]
fn lossless_link_delivers_without_retransmission() {
    let (delivered, retransmits, lost) = run_tunnel(0, 50, 1);
    assert_eq!(delivered, payloads(50));
    assert_eq!(retransmits, 0);
    assert_eq!(lost, 0);
}

#[test]
fn twenty_percent_loss_still_delivers_everything_in_order_once() {
    for seed in [1u64, 2, 3] {
        let (delivered, retransmits, lost) = run_tunnel(200, 50, seed);
        assert_eq!(delivered, payloads(50), "seed {seed}");
        assert!(lost > 0, "seed {seed}: loss must have occurred");
        assert!(retransmits > 0, "seed {seed}: recovery must have happened");
    }
}

#[test]
fn heavy_loss_is_masked_exactly_once_in_order() {
    // With heavy loss, later segments often arrive before retransmitted
    // earlier ones; in-order, exactly-once delivery must still hold.
    let (delivered, _, _) = run_tunnel(300, 30, 9);
    assert_eq!(delivered.len(), 30, "exactly once");
    assert_eq!(delivered, payloads(30), "in order");
}

#[test]
fn retransmit_accounting_balances_exactly() {
    // Conservation on the wire: the only traffic is RelData a→b and
    // RelAck b→a, so per-direction transmission minus reception must sum
    // to the engine's random-loss count exactly — no packet unaccounted.
    for seed in [4u64, 5, 6] {
        let out = run_tunnel_with(200, 40, seed, None);
        assert_eq!(out.delivered, payloads(40), "seed {seed}");
        let (data_lost, acks_lost) = out.direction_losses;
        assert_eq!(
            data_lost + acks_lost,
            out.packets_lost,
            "seed {seed}: every random loss is a lost RelData or RelAck"
        );
        // Every retransmission was caused by a missing ack: either the
        // data or its ack was lost, or the wait raced the RTO. At 20%
        // loss with a generous RTO, retransmits cannot exceed losses by
        // more than the in-flight window re-sent after a backoff poll.
        assert!(out.retransmits > 0, "seed {seed}");
        assert!(out.sender_failed.is_empty(), "seed {seed}: nothing should give up");
    }
}

#[test]
fn link_down_window_backs_off_and_recovers() {
    // The link vanishes at 3 µs — after the data is admitted but before
    // the receiver's acks go out — and stays down for 2 ms (~10 base
    // RTOs). Backoff keeps the sender from hammering the dead link; once
    // it heals, every message still arrives exactly once, in order.
    let plan = FaultPlan::new()
        .link_down(SimTime::from_micros(3), rdv_netsim::NodeId(0), rdv_netsim::NodeId(1))
        .link_up(SimTime::from_micros(2003), rdv_netsim::NodeId(0), rdv_netsim::NodeId(1));
    let out = run_tunnel_with(0, 40, 2, Some(plan));
    assert_eq!(out.delivered, payloads(40), "all messages survive the outage");
    assert!(out.retransmits > 0, "the outage must force retransmission");
    assert!(out.sender_failed.is_empty(), "the outage is shorter than the retry budget");
}

#[test]
fn receiver_crash_and_restart_preserves_exactly_once_delivery() {
    // The receiver crash-stops mid-transfer and comes back 1 ms later.
    // Its transport state survives (crash-stop kills the network stack,
    // not memory), so the sender's retransmissions resume the same flow:
    // exactly-once, in-order delivery must hold across the crash.
    // 3 µs is before the 5 µs propagation delay elapses, so the whole
    // first flight of data dies with the crash.
    let plan = FaultPlan::new()
        .crash(SimTime::from_micros(3), rdv_netsim::NodeId(1))
        .restart(SimTime::from_micros(1003), rdv_netsim::NodeId(1));
    let out = run_tunnel_with(0, 40, 3, Some(plan));
    assert_eq!(out.delivered, payloads(40), "delivery is exactly once, in order");
    assert!(out.retransmits > 0, "the dead window must force retransmission");
    assert!(out.sender_failed.is_empty());
}

#[test]
fn retransmit_marks_cite_their_original_send() {
    // Under loss, every `transport.retransmit` mark in the causal trace
    // must carry an aux edge back to the `transport.send` mark of the
    // segment's first transmission — the retransmit→original link the
    // engine cannot infer from packet flow alone.
    let mut sim = Sim::new(SimConfig { seed: 2, ..Default::default() });
    sim.observe(Observe {
        trace: Some(TraceSpec { capacity: 1 << 16, sample: None }),
        ..Observe::default()
    });
    let a =
        sim.add_node(Box::new(TunnelNode::new(ObjId(0xA), ObjId(0xB), payloads(30), tunnel_cfg())));
    let b =
        sim.add_node(Box::new(TunnelNode::new(ObjId(0xB), ObjId(0xA), Vec::new(), tunnel_cfg())));
    sim.connect(a, b, LinkSpec::rack().with_loss(200));
    sim.run_until_idle();

    let tracer = sim.take_tracer();
    let retransmit_marks: Vec<_> = tracer
        .iter()
        .filter(|(_, ev)| ev.kind.label() == Some("transport.retransmit"))
        .map(|(_, ev)| *ev)
        .collect();
    assert!(!retransmit_marks.is_empty(), "20% loss must force retransmission");
    for mark in &retransmit_marks {
        let orig = mark.aux.expect("every retransmit links its original send");
        let orig_ev = tracer.get(orig).expect("original send retained");
        assert_eq!(orig_ev.kind.label(), Some("transport.send"));
        assert_eq!(orig_ev.node, mark.node, "endpoints retransmit their own segments");
        assert!(orig_ev.at < mark.at, "the original strictly precedes the retransmit");
    }
    let sender = sim.node_as::<TunnelNode>(a).unwrap();
    assert_eq!(
        retransmit_marks.len() as u64,
        sender.ep.retransmits,
        "one mark per transport-level retransmission"
    );
}

#[test]
fn unrecovered_peer_death_surfaces_typed_failures() {
    // The receiver dies for good. The sender must not wedge: it burns its
    // retry budget (backed off), then surfaces every unacked segment via
    // `failed`, and the simulation runs to quiescence.
    struct Quiet;
    impl Node for Quiet {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }
    let mut sim = Sim::new(SimConfig { seed: 5, ..Default::default() });
    let cfg = TransportConfig { rto: SimTime::from_micros(200), max_retries: 5, backoff_cap: 2 };
    let a = sim.add_node(Box::new(TunnelNode::new(ObjId(0xA), ObjId(0xB), payloads(10), cfg)));
    let b = sim.add_node(Box::new(Quiet));
    sim.connect(a, b, LinkSpec::rack());
    sim.install_fault_plan(&FaultPlan::new().crash(SimTime::from_micros(10), b));
    sim.run_until_idle();
    let sender = sim.node_as::<TunnelNode>(a).unwrap();
    assert_eq!(sender.ep.in_flight(), 0, "no segment may wedge in flight forever");
    assert_eq!(sender.ep.failed.len(), 10, "every segment surfaces as a typed failure");
    assert!(sender.ep.failed.iter().all(|&(peer, _)| peer == ObjId(0xB)));
    assert!(sim.counters.get("sim.packets_dropped.dead_node") > 0);
}
