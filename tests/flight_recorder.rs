//! Integration tests for the crash flight recorder (DESIGN.md §13).
//!
//! Mirrors the seeded-violation playbook of `shard_audit.rs` at fabric
//! scale: first prove the armed recorder is free on healthy runs — a
//! full load-plane soak stays byte-identical at every shard count,
//! armed or not — then seed each failure class (an invariant-monitor
//! violation and a shard-ownership race) through the engine's debug
//! hooks and prove the panic carries a postmortem whose causal ancestry
//! actually walks the fabric's event history across shard rings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::scenarios::{build_star_fabric_observed, host_link_rack};
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode};
use rdv_load::{Blip, LoadCurve, LoadFabricSpec, LoadRun, OpenLoopSpec, ReplogSpec, Spike};
use rdv_netsim::metrics::MetricsConfig;
use rdv_netsim::{LinkSpec, Node, NodeId, Observe, ShardAuditViolation, Sim, SimTime, TraceSpec};
use rdv_objspace::{ObjId, ObjectKind};

// ---------------------------------------------------------------------------
// Shared: a small rendezvous fabric with real traffic
// ---------------------------------------------------------------------------

/// Driver + two holders (two objects each) behind the object-routed star
/// switch, with an eight-access plan scheduled — the smallest fabric
/// whose packet history has real cross-shard causal chains (request →
/// switch route → holder serve → reply).
fn build_fabric(seed: u64, shards: usize) -> (Sim, Vec<NodeId>, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF11);
    let host_cfg = HostConfig {
        mode: DiscoveryMode::Controller,
        access_timeout: SimTime::from_micros(200),
        max_access_retries: 6,
        ..HostConfig::default()
    };
    let link = host_link_rack();
    let mut driver = HostNode::new("driver", ObjId(0xD0), host_cfg);
    let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
    let mut obj_routes = Vec::new();
    let mut objects: Vec<ObjId> = Vec::new();
    for h in 0..2usize {
        let inbox = ObjId(0xB0 + h as u128);
        let mut holder = HostNode::new(format!("h{h}"), inbox, host_cfg);
        for _ in 0..2 {
            let obj = holder.store.create(&mut rng, ObjectKind::Data);
            let off = holder.store.get_mut(obj).unwrap().alloc(128).unwrap();
            holder.store.get_mut(obj).unwrap().write_u64(off, obj.as_u128() as u64).unwrap();
            obj_routes.push((obj, 1 + h));
            objects.push(obj);
        }
        nodes.push((Box::new(holder), inbox, link));
    }
    for _ in 0..8 {
        driver.plan.push(objects[rng.gen_range(0..objects.len())]);
    }
    let plan_len = driver.plan.len();
    nodes.insert(0, (Box::new(driver), ObjId(0xD0), link));
    let (mut sim, ids) =
        build_star_fabric_observed(seed, shards, Observe::default(), nodes, &obj_routes);
    for i in 0..plan_len as u64 {
        sim.schedule(SimTime::from_micros(10 + 30 * i), ids[0], i);
    }
    (sim, ids, plan_len)
}

// ---------------------------------------------------------------------------
// Seeded invariant violation → postmortem with fabric ancestry
// ---------------------------------------------------------------------------

/// With a tracer armed beside the recorder, the tracer does the recording
/// (one ring, namespace 0) and the flight rings stay empty — the
/// postmortem must then walk the tracer's ring, labelled `trace#<seq>`,
/// instead of printing `(no events recorded)`.
fn ring_edge(traced: bool) -> &'static str {
    if traced {
        "cause=trace#"
    } else {
        "cause=s"
    }
}

#[test]
fn invariant_violation_dump_walks_the_fabric_ancestry() {
    for traced in [false, true] {
        invariant_violation_dump(traced);
    }
}

fn invariant_violation_dump(traced: bool) {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (mut sim, _, _) = build_fabric(7, 2);
        sim.observe(Observe {
            metrics: Some(MetricsConfig::default()),
            flight: Some(512),
            trace: traced.then_some(TraceSpec { capacity: 1 << 16, sample: None }),
            ..Observe::default()
        });
        // Let real access traffic flow first, so the rings hold fabric
        // history, then unbalance the packet account mid-run: the
        // invariant monitor must abort at its next audit tick.
        sim.run_until(SimTime::from_micros(50));
        sim.debug_leak_inflight();
        sim.run_until_idle();
    }))
    .expect_err("the seeded leak must abort the run");
    let msg = payload.downcast_ref::<String>().expect("panic message is a String");
    assert!(
        msg.starts_with("invariant `packet_conservation` violated"),
        "typed prefix must survive the postmortem attachment: {msg}"
    );
    assert!(msg.contains("==== flight-recorder postmortem ===="), "{msg}");
    assert!(msg.contains("causal ancestry (most recent first):"), "{msg}");
    // The ancestry is fabric history: ring-qualified ids with causal
    // edges, not just the failing event alone.
    assert!(msg.contains(ring_edge(traced)), "ancestry must carry ring-qualified edges: {msg}");
    assert!(msg.contains("packet."), "ancestry must name packet lifecycle events: {msg}");
    assert!(msg.contains("gauge snapshot:"), "{msg}");
    assert!(msg.contains("engine.inflight_packets"), "snapshot carries the failing gauge: {msg}");
}

// ---------------------------------------------------------------------------
// Seeded shard-audit violation → typed violation carries the postmortem
// ---------------------------------------------------------------------------

#[test]
fn shard_audit_violation_carries_a_postmortem() {
    for traced in [false, true] {
        shard_audit_violation_postmortem(traced);
    }
}

fn shard_audit_violation_postmortem(traced: bool) {
    let (mut sim, _, _) = build_fabric(9, 2);
    sim.observe(Observe {
        audit: true,
        flight: Some(512),
        trace: traced.then_some(TraceSpec { capacity: 1 << 16, sample: None }),
        ..Observe::default()
    });
    sim.run_until(SimTime::from_micros(55));
    sim.debug_audit_bypass_outbox();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until_idle()))
        .expect_err("the seeded race must abort the run");
    let v = *err.downcast::<ShardAuditViolation>().expect("panic payload is the typed violation");
    let pm = v.postmortem.as_deref().expect("armed recorder must attach a postmortem");
    assert!(pm.starts_with("==== flight-recorder postmortem ===="), "{pm}");
    assert!(pm.contains("causal ancestry (most recent first):"), "{pm}");
    assert!(pm.contains(ring_edge(traced)), "ancestry must walk recorded history: {pm}");
    assert!(pm.contains("shard state:"), "{pm}");
    // The violation's own rendering embeds the dump after the located
    // diagnostic, so a bare panic log is a complete crash report.
    let rendered = v.to_string();
    assert!(rendered.contains("shard-audit[outbox-bypass]"), "{rendered}");
    assert!(rendered.contains("engine/shard.rs:"), "{rendered}");
    assert!(rendered.contains("==== flight-recorder postmortem ===="), "{rendered}");
}

// ---------------------------------------------------------------------------
// Clean armed soak: zero observable bytes, at every shard count
// ---------------------------------------------------------------------------

/// A fixed flash-crowd load scenario with a crash-restart blip mid-run —
/// the chaos-soak shape, pinned so the sweep below compares one
/// scenario's bytes across shard counts and recorder arming.
fn soak_scenario() -> (LoadFabricSpec, OpenLoopSpec, ReplogSpec, Blip) {
    let mut fabric = LoadFabricSpec::small();
    fabric.holders = 3;
    fabric.link_loss_permille = 10;
    let replog = ReplogSpec {
        writers: 3,
        heads: 8,
        entry_bytes: 64,
        batch_window: SimTime::from_micros(20),
    };
    let mut open = OpenLoopSpec::flat(6_000, replog.heads, 250_000, SimTime::from_micros(800));
    open.curve = LoadCurve::flat().with_spike(Spike {
        at_permille: 300,
        dur_permille: 200,
        add_permille: 1_500,
    });
    let blip = Blip {
        at: SimTime::from_micros(250),
        dur: SimTime::from_micros(150),
        partition_holder: None,
        crash_holder: Some(1),
    };
    (fabric, open, replog, blip)
}

#[test]
fn armed_recorder_keeps_a_clean_load_soak_byte_identical() {
    let (base, open, replog, blip) = soak_scenario();
    let mut baseline = None;
    for shards in [1usize, 2, 8] {
        for armed in [false, true] {
            let mut fabric = base;
            fabric.shards = shards;
            let observe = Observe { flight: armed.then_some(4096), ..Observe::default() };
            let run = LoadRun::observed(&fabric, &open, &replog, Some(&blip), 11, observe);
            assert!(run.scheduled_batches > 0, "scenario offered no load");
            let fp = run.fingerprint();
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

// ---------------------------------------------------------------------------
// On-demand postmortems: deterministic, and observably free until rendered
// ---------------------------------------------------------------------------

#[test]
fn on_demand_postmortem_is_byte_deterministic() {
    fn dump(seed: u64) -> String {
        let (mut sim, _, _) = build_fabric(seed, 2);
        sim.observe(Observe { flight: Some(512), ..Observe::default() });
        sim.run_until_idle();
        // Nothing failed: the rings recorded passively and no dump was
        // rendered, so the flight counters stayed at zero.
        assert_eq!(sim.counters.get("flight.dumps"), 0);
        assert_eq!(sim.counters.get("flight.events"), 0);
        let pm = sim.flight_postmortem(None).expect("recorder is armed");
        assert_eq!(sim.counters.get("flight.dumps"), 1, "rendering is what counts a dump");
        assert!(sim.counters.get("flight.events") > 0);
        pm
    }
    let pm = dump(13);
    // The idle-time anchor is the driver's last watchdog chain: the
    // ancestry must walk real causal hops, and both shard rings must
    // have recorded fabric history even though nothing was dumped until
    // now.
    assert!(pm.contains("cause=s"), "ancestry must walk causal hops: {pm}");
    for ring in ["s0:", "s1:"] {
        let line = pm.lines().find(|l| l.trim_start().starts_with(ring)).expect("ring line");
        assert!(!line.contains("recorded=0"), "ring recorded nothing: {line}");
    }
    assert_eq!(pm, dump(13), "same seed, same shard count — byte-identical dump");
    assert_ne!(pm, dump(14), "distinct seeds explore distinct histories");
}
