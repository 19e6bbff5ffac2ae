//! Seeded-violation tests for the shard-ownership race detector
//! (`Observe::audit`, the dynamic half of rdv-audit — see
//! DESIGN.md §11).
//!
//! Mirrors the invariant-monitor playbook in `rdv_metrics`: first prove
//! an armed detector changes nothing on a clean run (results stay
//! byte-identical to an unarmed run, for every shard count), then seed
//! each class of engine bug through the `debug_audit_*` hooks and prove
//! the detector catches it with a typed, located diagnostic.

use rdv_netsim::{
    LinkSpec, Node, NodeCtx, NodeId, Observe, Packet, PortId, ShardAuditKind, ShardAuditViolation,
    Sim, SimConfig, SimTime,
};

/// A ping-pong endpoint: the initiator serves, each receipt is echoed
/// back until the hop budget runs out. Traffic crosses the link every
/// `latency`, so a two-region layout exercises cross-shard windows
/// continuously.
struct EchoNode {
    initiator: bool,
    hops_left: u64,
    received: u64,
}

impl EchoNode {
    fn new(initiator: bool, hops: u64) -> EchoNode {
        EchoNode { initiator, hops_left: hops, received: 0 }
    }
}

impl Node for EchoNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.initiator {
            ctx.send(PortId(0), Packet::new(vec![0], 0));
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        self.received += 1;
        if self.hops_left > 0 {
            self.hops_left -= 1;
            ctx.send(PortId(0), packet);
        }
    }

    fn name(&self) -> &str {
        "echo"
    }
}

/// Two echo nodes in different regions (different shards when
/// `shards > 1`) over a 10 µs link — the minimal fabric with real
/// cross-shard windows.
fn build_pair(shards: usize, hops: u64) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(SimConfig { seed: 7, shards, ..Default::default() });
    let a = sim.add_node_in_region(Box::new(EchoNode::new(true, hops)), 0);
    let b = sim.add_node_in_region(Box::new(EchoNode::new(false, hops)), 1);
    sim.connect(a, b, LinkSpec { latency: SimTime::from_micros(10), ..LinkSpec::rack() });
    (sim, a, b)
}

/// Canonical result string: counters plus per-node receipt counts.
fn fingerprint(sim: &Sim, a: NodeId, b: NodeId) -> String {
    let mut out = String::new();
    for (name, value) in sim.counters.iter() {
        out.push_str(&format!("{name}={value};"));
    }
    let ra = sim.node_as::<EchoNode>(a).unwrap().received;
    let rb = sim.node_as::<EchoNode>(b).unwrap().received;
    out.push_str(&format!("a={ra};b={rb}"));
    out
}

/// Run the pair to quiescence and return the violation the armed
/// detector aborted with. `seed_fault` runs after `warmup` of simulated
/// traffic, so the violating access happens mid-run, inside real
/// windows, with an event in flight.
fn run_seeded(
    shards: usize,
    warmup: SimTime,
    seed_fault: impl FnOnce(&mut Sim),
) -> ShardAuditViolation {
    let (mut sim, _, _) = build_pair(shards, 1_000);
    sim.observe(Observe { audit: true, ..Observe::default() });
    sim.run_until(warmup);
    seed_fault(&mut sim);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until_idle()))
        .expect_err("the seeded violation must abort the run");
    *err.downcast::<ShardAuditViolation>().expect("panic payload must be the typed violation")
}

#[test]
fn armed_detector_leaves_clean_runs_byte_identical() {
    let mut baseline = None;
    for shards in [1, 2, 8] {
        for armed in [false, true] {
            let (mut sim, a, b) = build_pair(shards, 200);
            if armed {
                sim.observe(Observe { audit: true, ..Observe::default() });
                assert!(sim.shard_audit_enabled());
            }
            sim.run_until_idle();
            let fp = fingerprint(&sim, a, b);
            match &baseline {
                None => baseline = Some(fp),
                Some(base) => assert_eq!(
                    *base, fp,
                    "shards={shards} armed={armed} diverged from the unarmed serial run"
                ),
            }
        }
    }
}

#[test]
fn outbox_bypass_is_caught_with_a_located_diagnostic() {
    let v = run_seeded(2, SimTime::from_micros(55), |sim| sim.debug_audit_bypass_outbox());
    assert_eq!(v.kind, ShardAuditKind::OutboxBypass);
    // The diagnostic points at the engine access site, stamped with the
    // sim time and the canonical key of the event being executed.
    assert!(v.file.ends_with("engine/shard.rs"), "file was {}", v.file);
    assert!(v.line > 0);
    assert!(v.at_ns >= SimTime::from_micros(55).as_nanos());
    assert!(v.event.is_some(), "a queue event was in flight");
    assert_ne!(v.shard, v.owner, "the push crossed an ownership boundary");
    let msg = v.to_string();
    assert!(msg.contains("shard-audit[outbox-bypass]"), "rendered: {msg}");
    assert!(msg.contains("engine/shard.rs:"), "rendered: {msg}");
}

#[test]
fn lookahead_violation_is_caught_inside_the_window() {
    let v = run_seeded(2, SimTime::from_micros(55), |sim| sim.debug_audit_violate_lookahead());
    assert_eq!(v.kind, ShardAuditKind::LookaheadViolation);
    assert!(v.file.ends_with("engine/shard.rs"), "file was {}", v.file);
    // The lookahead bound only binds inside a parallel window, so the
    // violation must carry the window it was checked against — and the
    // offending due time must fall short of that window's end.
    assert_ne!(v.window_end_ns, u64::MAX, "violation must be tagged with its window");
    assert!(v.at_ns < v.window_end_ns);
    assert!(v.event.is_some(), "a queue event was in flight");
    assert!(v.to_string().contains("shard-audit[lookahead-violation]"));
}

#[test]
fn shared_rng_stream_is_caught_at_dispatch() {
    // Co-locate both nodes so the seeded alias can point one node's
    // dispatches at the other's stream (streams are per-shard arenas).
    let mut sim = Sim::new(SimConfig { seed: 7, shards: 2, ..Default::default() });
    let a = sim.add_node_in_region(Box::new(EchoNode::new(true, 100)), 0);
    let b = sim.add_node_in_region(Box::new(EchoNode::new(false, 100)), 0);
    sim.connect(a, b, LinkSpec { latency: SimTime::from_micros(10), ..LinkSpec::rack() });
    sim.observe(Observe { audit: true, ..Observe::default() });
    sim.debug_audit_share_rng(a, b);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until_idle()))
        .expect_err("the shared stream must abort the run");
    let v = *err.downcast::<ShardAuditViolation>().expect("typed violation");
    assert_eq!(v.kind, ShardAuditKind::RngStreamShared);
    assert!(v.file.ends_with("engine/shard.rs"), "file was {}", v.file);
    let msg = v.to_string();
    assert!(msg.contains("shard-audit[rng-stream-shared]"), "rendered: {msg}");
    assert!(msg.contains(&format!("node {}", b.0)), "names the offender: {msg}");
}

#[test]
fn debug_hooks_require_an_armed_detector() {
    let (mut sim, _, _) = build_pair(2, 10);
    let err =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.debug_audit_bypass_outbox()))
            .expect_err("seeding a fault without arming must be refused");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("Observe::audit"), "got: {msg}");
}
