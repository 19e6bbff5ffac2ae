//! Chaos soak: seeded random scenarios (topology × workload × fault plan)
//! run to quiescence, checking the fabric's end-to-end invariants.
//!
//! The invariants (see DESIGN.md, "Fault model"):
//!
//! 1. **No committed write lost** — a message the reliable transport acked
//!    is present at the receiver, across crashes and outages.
//! 2. **No stale-after-invalidate reads** — a copy the coherence directory
//!    still registers always holds the current value; invalidated copies
//!    are gone.
//! 3. **Completion or typed error** — every issued rendezvous/access ends
//!    in a completion record or a typed failure; nothing wedges in flight.
//! 4. **Determinism** — identical seeds produce byte-identical stats.
//!
//! Every scenario is derived from a single `u64` seed, so any failure
//! reproduces exactly by re-running the named seed.

use std::collections::BTreeSet;

use rdv_det::DetMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::scenarios::{build_star_fabric_observed, host_link_rack};
use rdv_discovery::{AccessFailure, DiscoveryMode, HostConfig, HostNode};
use rdv_load::{
    Blip, ChurnSpec, LoadCurve, LoadFabricSpec, LoadRun, OpenLoopSpec, ReplogSpec, Spike,
};
use rdv_memproto::coherence::{DirAction, Directory};
use rdv_memproto::msg::Msg;
use rdv_memproto::transport::{ReliableEndpoint, TransportConfig};
use rdv_netsim::metrics::{AuditScope, MetricSample, MetricsConfig};
use rdv_netsim::{
    FaultPlan, LinkSpec, Node, NodeCtx, NodeId, Observe, Packet, PortId, Sim, SimConfig, SimTime,
};
use rdv_objspace::{ObjId, ObjectKind};

// ---------------------------------------------------------------------------
// Shared: stats fingerprinting (invariant 4)
// ---------------------------------------------------------------------------

/// Render counters to a canonical `prefix+name=value;` string:
/// `Counters::iter` is name-sorted, so equal fabrics render
/// byte-identically. The prefix keeps a node's counters apart from the
/// engine's when both land on one fingerprint line.
fn render_counters(prefix: &str, c: &rdv_netsim::Counters) -> String {
    let mut out = String::new();
    for (name, value) in c.iter() {
        out.push_str(&format!("{prefix}{name}={value};"));
    }
    out
}

/// The observers every simulated family arms: the live invariant monitor
/// audits every tick and panics on any violation, so the soak doubles as
/// its acceptance run, and the shard-ownership race detector and the
/// flight recorder ride along, so any abort carries a postmortem. Clean
/// runs stay byte-identical either way (tests/flight_recorder.rs).
fn soak_observers() -> Observe {
    Observe {
        metrics: Some(MetricsConfig::default()),
        audit: true,
        flight: Some(1 << 12),
        ..Observe::default()
    }
}

// ---------------------------------------------------------------------------
// Pinned fingerprints: one committed file per family
// ---------------------------------------------------------------------------

/// Compare one family's fingerprints against `results/chaos_<family>.txt`,
/// one `seed name=value;…` line per seed. Each family writes only its own
/// file, so the families stay parallel `#[test]`s. `RDV_BLESS=1 cargo test
/// --test chaos_soak` rewrites the files instead of comparing.
fn check_pinned(family: &str, lines: &[(u64, String)]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("chaos_{family}.txt"));
    let rendered: String = lines.iter().map(|(seed, fp)| format!("{seed} {fp}\n")).collect();
    if bless() {
        std::fs::write(&path, rendered).expect("write pinned fingerprints");
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{family}: no pinned {} ({e}); bless with RDV_BLESS=1", path.display())
    });
    if pinned == rendered {
        return;
    }
    let (old, new) = (seed_lines(&pinned), seed_lines(&rendered));
    let seeds: BTreeSet<&str> = old.iter().chain(&new).map(|&(seed, _)| seed).collect();
    let mut report = String::new();
    for seed in seeds {
        match (lookup(&old, seed), lookup(&new, seed)) {
            (Some(was), Some(now)) if was == now => {}
            (Some(was), Some(now)) => {
                report.push_str(&format!("  seed {seed}:\n"));
                let (was, now) = (fields(was), fields(now));
                let names: BTreeSet<&str> = was.iter().chain(&now).map(|&(name, _)| name).collect();
                for name in names {
                    let was_v = lookup(&was, name).unwrap_or("<absent>");
                    let now_v = lookup(&now, name).unwrap_or("<absent>");
                    if was_v != now_v {
                        report.push_str(&format!("    {name}: {was_v} -> {now_v}\n"));
                    }
                }
            }
            (was, _) => {
                let (from, to) =
                    if was.is_some() { ("pinned", "<absent>") } else { ("<absent>", "new") };
                report.push_str(&format!("  seed {seed}: {from} -> {to}\n"));
            }
        }
    }
    panic!(
        "chaos family `{family}`: fingerprints moved against {} (replay a seed by \
         re-running this test; re-bless with RDV_BLESS=1 if the move is intended):\n{report}",
        path.display()
    );
}

/// Split a fingerprint file into `(seed, fingerprint)` pairs.
fn seed_lines(text: &str) -> Vec<(&str, &str)> {
    text.lines().filter_map(|l| l.split_once(' ')).collect()
}

/// The value paired with `key`, if any.
fn lookup<'a>(pairs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

/// Split one fingerprint into its named `name=value` fields.
fn fields(fp: &str) -> Vec<(&str, &str)> {
    fp.split(';').filter_map(|f| f.split_once('=')).collect()
}

/// Render a driver's completed accesses as `r<i>=target:issued:completed:broadcasts:nacks;`.
fn render_records(records: &[rdv_discovery::AccessRecord]) -> String {
    let mut out = String::new();
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "r{i}={:x}:{}:{}:{}:{};",
            r.target.as_u128(),
            r.issued.as_nanos(),
            r.completed.as_nanos(),
            r.broadcasts,
            r.nacks
        ));
    }
    out
}

/// Whether this run re-blesses the pinned files (`RDV_BLESS` set, not empty
/// and not `0`; `scripts/contract.sh` reads the switch the same way).
#[allow(clippy::disallowed_methods)]
fn bless() -> bool {
    // A test-harness switch, read once per family: it picks whether the
    // pinned files are written or compared, never what a simulation does.
    std::env::var("RDV_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

// ---------------------------------------------------------------------------
// Family 1: reliable transport over a faulty wire
// ---------------------------------------------------------------------------

/// Minimal host pushing `messages` reliably to a peer over port 0.
struct PipeNode {
    ep: ReliableEndpoint,
    peer: ObjId,
    to_send: u64,
    delivered: Vec<Vec<u8>>,
    trace: u64,
}

impl PipeNode {
    fn new(local: ObjId, peer: ObjId, to_send: u64, cfg: TransportConfig) -> PipeNode {
        PipeNode {
            ep: ReliableEndpoint::new(local, cfg),
            peer,
            to_send,
            delivered: Vec::new(),
            trace: 0,
        }
    }

    fn push(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        self.trace += 1;
        ctx.send(PortId(0), Packet::new(msg.encode(), self.trace));
    }

    fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
        for msg in self.ep.poll_retransmits(ctx.now) {
            self.push(ctx, msg);
        }
        if self.ep.in_flight() > 0 {
            ctx.set_timer(SimTime::from_micros(100), 1);
        }
    }
}

impl Node for PipeNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.to_send {
            let msg = self.ep.send(ctx.now, self.peer, i.to_le_bytes().to_vec());
            self.push(ctx, msg);
        }
        if self.ep.in_flight() > 0 {
            ctx.set_timer(SimTime::from_micros(100), 1);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(msg) = Msg::decode(&packet.payload) else { return };
        let (delivered, ack) = self.ep.on_receive(&msg);
        self.delivered.extend(delivered);
        if let Some(ack) = ack {
            self.push(ctx, ack);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        self.pump(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.pump(ctx);
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        m.gauge("transport.inflight", self.ep.in_flight() as u64);
        m.gauge("transport.flows", self.ep.flow_count() as u64);
    }

    fn audit(&self, a: &mut AuditScope<'_>) {
        let local = self.ep.local().as_u128();
        a.declare_inbox(local);
        for peer in self.ep.peers() {
            a.claim_acked(local, peer.as_u128(), self.ep.acked_hi(peer));
            a.claim_delivered(peer.as_u128(), local, self.ep.delivered_hi(peer));
        }
    }
}

struct TransportScenario {
    loss_permille: u16,
    messages: u64,
    plan: FaultPlan,
    receiver_stays_dead: bool,
}

/// Derive one transport scenario from a seed: random loss rate, message
/// count, and a fault plan that may include a link-down window and a
/// receiver crash (with or without restart).
fn gen_transport_scenario(seed: u64) -> TransportScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a05);
    let loss_permille = rng.gen_range(0..250) as u16;
    let messages = rng.gen_range(20..50);
    let mut plan = FaultPlan::new();
    if rng.gen_bool(0.5) {
        let at = rng.gen_range(1..100);
        let dur = rng.gen_range(100..1500);
        plan = plan.link_down(SimTime::from_micros(at), NodeId(0), NodeId(1)).link_up(
            SimTime::from_micros(at + dur),
            NodeId(0),
            NodeId(1),
        );
    }
    let mut receiver_stays_dead = false;
    if rng.gen_bool(0.6) {
        let at = rng.gen_range(1..200);
        plan = plan.crash(SimTime::from_micros(at), NodeId(1));
        if rng.gen_bool(0.66) {
            let back = at + rng.gen_range(100..2000);
            plan = plan.restart(SimTime::from_micros(back), NodeId(1));
        } else {
            receiver_stays_dead = true;
        }
    }
    TransportScenario { loss_permille, messages, plan, receiver_stays_dead }
}

/// Run a transport scenario to quiescence and check invariants 1 and 3.
/// Returns the stats fingerprint for invariant 4. `shards` picks the
/// engine's parallel shard count; every value must produce the same bytes.
fn run_transport_scenario(seed: u64, sc: &TransportScenario, shards: usize) -> String {
    let cfg = TransportConfig { rto: SimTime::from_micros(200), max_retries: 12, backoff_cap: 3 };
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    let a = sim.add_node(Box::new(PipeNode::new(ObjId(0xA), ObjId(0xB), sc.messages, cfg)));
    let b = sim.add_node(Box::new(PipeNode::new(ObjId(0xB), ObjId(0xA), 0, cfg)));
    sim.connect(a, b, LinkSpec::rack().with_loss(sc.loss_permille));
    sim.observe(soak_observers());
    sim.install_fault_plan(&sc.plan);
    sim.run_until_idle();

    let receiver = sim.node_as::<PipeNode>(b).unwrap();
    let delivered: Vec<u64> = receiver
        .delivered
        .iter()
        .map(|d| u64::from_le_bytes(d.as_slice().try_into().expect("8-byte payload")))
        .collect();
    let sender = sim.node_as::<PipeNode>(a).unwrap();

    // Invariant 3: nothing wedges — every segment is acked or typed-failed.
    assert_eq!(sender.ep.in_flight(), 0, "seed {seed}: segments left in limbo");

    // In-order exactly-once delivery means the receiver saw exactly the
    // prefix 0..len of the message stream, each message once.
    let prefix: Vec<u64> = (0..delivered.len() as u64).collect();
    assert_eq!(delivered, prefix, "seed {seed}: delivery must be the exact in-order prefix");

    // Invariant 1: a committed (acked, i.e. not typed-failed) write is
    // never lost. Message i is transport seq i+1.
    for i in 0..sc.messages {
        let failed = sender.ep.failed.iter().any(|&(peer, seq)| peer == ObjId(0xB) && seq == i + 1);
        if !failed {
            assert!(
                (i as usize) < delivered.len(),
                "seed {seed}: message {i} was acked but never delivered"
            );
        }
    }
    if !sc.receiver_stays_dead {
        assert!(
            sender.ep.failed.is_empty(),
            "seed {seed}: every outage heals, so nothing may fail (failed: {:?})",
            sender.ep.failed
        );
        assert_eq!(delivered.len() as u64, sc.messages, "seed {seed}");
    }

    let failed: Vec<String> =
        sender.ep.failed.iter().map(|(peer, seq)| format!("{:x}:{seq}", peer.as_u128())).collect();
    format!(
        "{}delivered={};failed={};retx={};",
        render_counters("", &sim.counters),
        delivered.len(),
        failed.join(","),
        sender.ep.retransmits,
    )
}

#[test]
fn transport_soak_under_loss_crash_and_outage() {
    let mut fingerprints = Vec::new();
    for seed in 0..12u64 {
        let sc = gen_transport_scenario(seed);
        let fp = run_transport_scenario(seed, &sc, 1);
        // Invariant 4: same seed, byte-identical stats — at every engine
        // shard count (shards > 1 takes the parallel windowed path).
        for shards in [1, 2, 8] {
            let again = run_transport_scenario(seed, &sc, shards);
            assert_eq!(fp, again, "seed {seed}: shards={shards} diverged");
        }
        fingerprints.push((seed, fp));
    }
    check_pinned("transport", &fingerprints);
    fingerprints.dedup_by(|a, b| a.1 == b.1);
    assert!(fingerprints.len() > 1, "distinct seeds must explore distinct behaviour");
}

// ---------------------------------------------------------------------------
// Family 2: rendezvous fabric under combined loss + partition + crash
// ---------------------------------------------------------------------------

struct FabricScenario {
    holders: usize,
    accesses: usize,
    link_loss: u16,
    burst: (u64, u64, u16),
    partition_window: (u64, u64),
    partition_victim: usize,
    crash_at: u64,
    restart_at: Option<u64>,
    crash_victim: usize,
}

/// Derive one fabric scenario: every scenario combines all three fault
/// categories — a loss burst on the driver's uplink, a partition cutting
/// one holder off the switch, and a holder crash (sometimes permanent).
fn gen_fabric_scenario(seed: u64) -> FabricScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFAB);
    let holders = rng.gen_range(2..4);
    let crash_victim = rng.gen_range(0..holders);
    // Partition a holder the crash does not target, so the two faults
    // compose rather than shadow each other.
    let partition_victim = (crash_victim + 1) % holders;
    FabricScenario {
        holders,
        accesses: rng.gen_range(12..20),
        link_loss: rng.gen_range(0..50) as u16,
        burst: (rng.gen_range(1..400), rng.gen_range(50..150), rng.gen_range(300..700) as u16),
        partition_window: (rng.gen_range(1..500), rng.gen_range(50..300)),
        partition_victim,
        crash_at: rng.gen_range(1..500),
        restart_at: if rng.gen_bool(0.75) { Some(rng.gen_range(100..500)) } else { None },
        crash_victim,
    }
}

struct FabricOutcome {
    failed: Vec<(ObjId, AccessFailure)>,
    fingerprint: String,
}

fn run_fabric_scenario(seed: u64, sc: &FabricScenario, shards: usize) -> FabricOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B7);
    let host_cfg = HostConfig {
        mode: DiscoveryMode::Controller,
        access_timeout: SimTime::from_micros(200),
        max_access_retries: 6,
        ..HostConfig::default()
    };

    // Topology: driver + `holders` responders behind one object-routed
    // switch. Each holder owns two objects.
    let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
    let link = host_link_rack().with_loss(sc.link_loss);
    let driver_inbox = ObjId(0xD0);
    let mut obj_routes = Vec::new();
    let mut objects_of: Vec<Vec<ObjId>> = Vec::new();
    let mut driver = HostNode::new("driver", driver_inbox, host_cfg);
    for h in 0..sc.holders {
        let inbox = ObjId(0xB0 + h as u128);
        let mut holder = HostNode::new(format!("h{h}"), inbox, host_cfg);
        let mut owned = Vec::new();
        for _ in 0..2 {
            let obj = holder.store.create(&mut rng, ObjectKind::Data);
            let off = holder.store.get_mut(obj).unwrap().alloc(128).unwrap();
            holder.store.get_mut(obj).unwrap().write_u64(off, obj.as_u128() as u64).unwrap();
            // Star-fabric port numbering: driver is host 0, holder h is 1+h.
            obj_routes.push((obj, 1 + h));
            owned.push(obj);
        }
        objects_of.push(owned);
        nodes.push((Box::new(holder), inbox, link));
    }
    // The driver's access plan mixes all holders' objects.
    for _ in 0..sc.accesses {
        let h = rng.gen_range(0..sc.holders);
        let i = rng.gen_range(0..2);
        driver.plan.push(objects_of[h][i]);
    }
    let plan_len = driver.plan.len();
    nodes.insert(0, (Box::new(driver), driver_inbox, link));

    let (mut sim, ids) =
        build_star_fabric_observed(seed, shards, soak_observers(), nodes, &obj_routes);
    let switch = NodeId(ids.len());

    // Faults: loss burst on the driver's uplink, partition around one
    // holder, crash (± restart) of another.
    let (burst_at, burst_dur, burst_loss) = sc.burst;
    let (part_at, part_dur) = sc.partition_window;
    let crash_node = ids[1 + sc.crash_victim];
    let mut fault_plan = FaultPlan::new()
        .loss_burst(
            SimTime::from_micros(burst_at),
            SimTime::from_micros(burst_at + burst_dur),
            ids[0],
            switch,
            burst_loss,
        )
        .partition(
            SimTime::from_micros(part_at),
            SimTime::from_micros(part_at + part_dur),
            &[switch],
            &[ids[1 + sc.partition_victim]],
        )
        .crash(SimTime::from_micros(sc.crash_at), crash_node);
    if let Some(back) = sc.restart_at {
        fault_plan = fault_plan.restart(SimTime::from_micros(sc.crash_at + back), crash_node);
    }
    sim.install_fault_plan(&fault_plan);

    for i in 0..plan_len as u64 {
        sim.schedule(SimTime::from_micros(10 + 50 * i), ids[0], i);
    }
    sim.run_until_idle();

    let drv = sim.node_as::<HostNode>(ids[0]).unwrap();
    // Invariant 3: every access either completed or failed with a type.
    assert_eq!(drv.outstanding(), 0, "seed {seed}: accesses wedged in flight");
    assert_eq!(
        drv.records.len() + drv.failed.len(),
        plan_len,
        "seed {seed}: every access must be accounted for"
    );
    for rec in &drv.records {
        assert!(rec.latency() > SimTime::ZERO, "seed {seed}");
    }
    // Healed faults must not cost completions: with the crash victim
    // restarted, the retry budget covers every outage window, so all
    // accesses complete. With a permanent crash, only accesses to the dead
    // holder's objects may fail — and then only as TimedOut.
    if sc.restart_at.is_some() {
        assert_eq!(
            drv.records.len(),
            plan_len,
            "seed {seed}: healed faults may not lose accesses ({:?})",
            drv.failed
        );
    } else {
        for f in &drv.failed {
            assert_eq!(f.reason, AccessFailure::TimedOut, "seed {seed}");
            assert!(
                objects_of[sc.crash_victim].contains(&f.target),
                "seed {seed}: only the dead holder's objects may fail"
            );
        }
    }

    let mut fingerprint = render_counters("", &sim.counters);
    fingerprint.push_str(&render_counters("drv.", &drv.counters));
    fingerprint.push_str(&render_records(&drv.records));
    for (i, f) in drv.failed.iter().enumerate() {
        fingerprint.push_str(&format!(
            "f{i}={:x}:{}:{:?};",
            f.target.as_u128(),
            f.retries,
            f.reason
        ));
    }
    FabricOutcome { failed: drv.failed.iter().map(|f| (f.target, f.reason)).collect(), fingerprint }
}

#[test]
fn fabric_soak_combines_loss_partition_and_crash() {
    let mut fingerprints = Vec::new();
    let mut total_failed = 0usize;
    for seed in 0..25u64 {
        let sc = gen_fabric_scenario(seed);
        let out = run_fabric_scenario(seed, &sc, 1);
        if sc.restart_at.is_none() {
            total_failed += out.failed.len();
        }

        // Invariant 4: byte-identical stats on an identical re-run — at
        // every engine shard count (the star fabric spreads its hosts and
        // switch across shards, so shards > 1 exercises cross-shard merge).
        for shards in [1, 2, 8] {
            let again = run_fabric_scenario(seed, &sc, shards);
            assert_eq!(out.fingerprint, again.fingerprint, "seed {seed}: shards={shards} diverged");
        }
        fingerprints.push((seed, out.fingerprint));
    }
    check_pinned("fabric", &fingerprints);
    fingerprints.dedup_by(|a, b| a.1 == b.1);
    assert!(fingerprints.len() > 1, "distinct seeds must explore distinct behaviour");
    assert!(total_failed > 0, "some permanent-crash scenario must exercise typed failure");
}

// ---------------------------------------------------------------------------
// Family 3: coherence directory under random traffic and crashes
// ---------------------------------------------------------------------------

/// Replay directory actions against a model of per-host cached copies.
/// A copy exists iff the directory granted it and has not invalidated it
/// since; its value is the home value at grant time.
fn apply_actions(
    copies: &mut DetMap<(u128, u128), u64>,
    home_val: &DetMap<u128, u64>,
    obj: ObjId,
    actions: &[DirAction],
) {
    for a in actions {
        match a {
            DirAction::Invalidate { to, obj } => {
                copies.remove(&(to.as_u128(), obj.as_u128()));
            }
            DirAction::GrantShared { to } | DirAction::GrantExclusive { to } => {
                copies.insert((to.as_u128(), obj.as_u128()), home_val[&obj.as_u128()]);
            }
        }
    }
}

#[test]
fn directory_soak_never_leaves_a_stale_copy_registered() {
    let hosts: Vec<ObjId> = (0..4).map(|i| ObjId(0x100 + i)).collect();
    let objs: Vec<ObjId> = (0..3).map(|i| ObjId(0x200 + i)).collect();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1);
        let mut d = Directory::new();
        let mut copies: DetMap<(u128, u128), u64> = DetMap::new();
        let mut home_val: DetMap<u128, u64> = objs.iter().map(|o| (o.as_u128(), 0u64)).collect();
        for step in 0..300 {
            let obj = objs[rng.gen_range(0..objs.len())];
            let host = hosts[rng.gen_range(0..hosts.len())];
            match rng.gen_range(0..10) {
                0..=3 => {
                    let actions = d.request_shared(obj, host);
                    apply_actions(&mut copies, &home_val, obj, &actions);
                }
                4..=5 => {
                    let actions = d.request_exclusive(obj, host);
                    apply_actions(&mut copies, &home_val, obj, &actions);
                }
                6..=7 => {
                    // A write at the home invalidates every cached copy,
                    // then bumps the authoritative value.
                    let actions = d.write_at_home(obj);
                    apply_actions(&mut copies, &home_val, obj, &actions);
                    *home_val.get_mut(&obj.as_u128()).unwrap() += 1;
                }
                8 => {
                    d.evict(obj, host);
                    copies.remove(&(host.as_u128(), obj.as_u128()));
                }
                _ => {
                    // Crash: the host's copies die with it; the directory
                    // must forget it everywhere, or later writes would
                    // wait forever on invalidating a dead host.
                    let affected = d.drop_host(host);
                    copies.retain(|&(h, _), _| h != host.as_u128());
                    for obj in affected {
                        assert!(
                            !d.sharers(obj).contains(&host) && d.exclusive(obj) != Some(host),
                            "seed {seed} step {step}: dead host still registered"
                        );
                    }
                }
            }
            assert!(d.invariant_holds(), "seed {seed} step {step}");
            // Invariant 2, both directions: every copy the directory
            // registers exists and holds the *current* home value (no
            // stale-after-invalidate survivor); every modelled copy is
            // still registered (no silently forgotten grant).
            for &obj in &objs {
                let mut registered: Vec<ObjId> = d.sharers(obj);
                registered.extend(d.exclusive(obj));
                for h in &registered {
                    let val = copies.get(&(h.as_u128(), obj.as_u128())).unwrap_or_else(|| {
                        panic!("seed {seed} step {step}: registered copy missing")
                    });
                    assert_eq!(
                        *val,
                        home_val[&obj.as_u128()],
                        "seed {seed} step {step}: stale copy served"
                    );
                }
                for &(h, _) in copies.keys().filter(|&&(_, o)| o == obj.as_u128()) {
                    assert!(
                        registered.iter().any(|r| r.as_u128() == h),
                        "seed {seed} step {step}: live copy unregistered"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Family 4: load plane under flash crowds, churn, and fault windows
// ---------------------------------------------------------------------------

/// One randomized load-plane scenario: an open-loop replicated-log
/// workload driven through the star fabric while a fault blip lands
/// mid-run (invariants 3 and 4, at traffic-plane scale).
struct LoadScenario {
    fabric: LoadFabricSpec,
    open: OpenLoopSpec,
    replog: ReplogSpec,
    blip: Blip,
}

/// Flash-crowd variant: a steep spike in the load curve with a holder
/// crash-restart window opening inside the crowd.
fn gen_flash_crowd_scenario(seed: u64) -> LoadScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A5);
    let mut fabric = LoadFabricSpec::small();
    fabric.holders = rng.gen_range(2..5);
    fabric.link_loss_permille = rng.gen_range(0..20);
    let replog = ReplogSpec {
        writers: rng.gen_range(2..5),
        heads: rng.gen_range(4..13),
        entry_bytes: 64,
        batch_window: SimTime::from_micros(rng.gen_range(10..40)),
    };
    let mut open = OpenLoopSpec::flat(
        rng.gen_range(2_000..20_000),
        replog.heads,
        rng.gen_range(150_000..500_000),
        SimTime::from_micros(rng.gen_range(600..1_200)),
    );
    open.zipf_skew_permille = rng.gen_range(600..1_400);
    // The crowd: load doubles-to-quadruples for ~a fifth of the run.
    open.curve = LoadCurve::flat().with_spike(Spike {
        at_permille: rng.gen_range(200..500),
        dur_permille: rng.gen_range(150..300),
        add_permille: rng.gen_range(1_000..3_000),
    });
    // The blip lands inside (or shouldering) the crowd window.
    let blip = Blip {
        at: SimTime::from_micros(rng.gen_range(150..400)),
        dur: SimTime::from_micros(rng.gen_range(100..250)),
        partition_holder: None,
        crash_holder: Some(rng.gen_range(0..fabric.holders)),
    };
    LoadScenario { fabric, open, replog, blip }
}

/// Churn variant: clients join and leave throughout while one holder is
/// partitioned off the switch for a window mid-run.
fn gen_churn_partition_scenario(seed: u64) -> LoadScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    let mut fabric = LoadFabricSpec::small();
    fabric.holders = rng.gen_range(2..5);
    fabric.link_loss_permille = rng.gen_range(0..20);
    let replog = ReplogSpec {
        writers: rng.gen_range(2..5),
        heads: rng.gen_range(4..13),
        entry_bytes: 64,
        batch_window: SimTime::from_micros(rng.gen_range(10..40)),
    };
    let mut open = OpenLoopSpec::flat(
        rng.gen_range(2_000..20_000),
        replog.heads,
        rng.gen_range(150_000..500_000),
        SimTime::from_micros(rng.gen_range(600..1_200)),
    );
    open.zipf_skew_permille = rng.gen_range(600..1_400);
    open.churn = Some(ChurnSpec {
        initial_active: rng.gen_range(500..5_000),
        join_per_s: rng.gen_range(1_000_000..20_000_000),
        leave_per_s: rng.gen_range(1_000_000..20_000_000),
    });
    let blip = Blip {
        at: SimTime::from_micros(rng.gen_range(150..400)),
        dur: SimTime::from_micros(rng.gen_range(100..250)),
        partition_holder: Some(rng.gen_range(0..fabric.holders)),
        crash_holder: None,
    };
    LoadScenario { fabric, open, replog, blip }
}

/// Run one load scenario at the given shard count and distill it to the
/// canonical fingerprint. Invariant 3 (completion or typed error) is
/// asserted inside `LoadRun::execute` per writer; the cross-check here
/// confirms the aggregate tallies agree with it.
fn run_load_scenario(seed: u64, sc: &LoadScenario, shards: usize) -> LoadRun {
    let mut fabric = sc.fabric;
    fabric.shards = shards;
    let observe = Observe { audit: true, flight: Some(4096), ..Observe::default() };
    let run = LoadRun::observed(&fabric, &sc.open, &sc.replog, Some(&sc.blip), seed, observe);
    assert!(run.scheduled_batches > 0, "seed {seed}: scenario offered no load");
    assert_eq!(
        run.completions.len() + run.failed,
        run.scheduled_batches,
        "seed {seed}: a batch neither completed nor failed typed"
    );
    assert_eq!(run.issued_ns.len(), run.scheduled_batches, "seed {seed}: issue count drifted");
    assert_eq!(run.counters.get("load.batches"), run.scheduled_batches as u64);
    assert_eq!(run.counters.get("load.completions"), run.completions.len() as u64);
    assert_eq!(run.counters.get("load.failures"), run.failed as u64);
    run
}

/// A load run's pinned line: the scalar tallies and every counter
/// verbatim, with the per-completion `(done, latency)` list folded into
/// one FNV-1a `completions_fnv` field so a line stays readable.
fn load_pin(run: &LoadRun) -> String {
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for &(done, lat) in &run.completions {
        for b in done.to_le_bytes().into_iter().chain(lat.to_le_bytes()) {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "clock={};batches={};failed={};entries={};completions={};completions_fnv={fnv:016x};{}",
        run.clock_ns,
        run.scheduled_batches,
        run.failed,
        run.completed_entries,
        run.completions.len(),
        render_counters("", &run.counters),
    )
}

#[test]
fn load_soak_flash_crowd_rides_out_a_crash_window() {
    let mut fingerprints = Vec::new();
    let mut total_timeouts = 0u64;
    for seed in 0..8u64 {
        let sc = gen_flash_crowd_scenario(seed);
        let first = run_load_scenario(seed, &sc, 1);
        let fp = first.fingerprint();
        for shards in [2usize, 8] {
            assert_eq!(
                fp,
                run_load_scenario(seed, &sc, shards).fingerprint(),
                "seed {seed}: fingerprint diverged at {shards} shards"
            );
        }
        // The crash window forces watchdog work on at least some seeds.
        total_timeouts += first.counters.get("access_timeouts");
        fingerprints.push((seed, load_pin(&first)));
    }
    check_pinned("load_flash", &fingerprints);
    assert!(total_timeouts > 0, "no crash window ever bit — scenarios too tame");
    fingerprints.dedup_by(|a, b| a.1 == b.1);
    assert!(fingerprints.len() > 1, "seeds collapsed to one scenario");
}

#[test]
fn load_soak_churned_pool_survives_a_partition_window() {
    let mut fingerprints = Vec::new();
    let mut total_joins = 0u64;
    let mut total_timeouts = 0u64;
    for seed in 0..8u64 {
        let sc = gen_churn_partition_scenario(seed);
        let first = run_load_scenario(seed, &sc, 1);
        let fp = first.fingerprint();
        for shards in [2usize, 8] {
            assert_eq!(
                fp,
                run_load_scenario(seed, &sc, shards).fingerprint(),
                "seed {seed}: fingerprint diverged at {shards} shards"
            );
        }
        total_joins += first.counters.get("load.churn_joins");
        total_timeouts += first.counters.get("access_timeouts");
        fingerprints.push((seed, load_pin(&first)));
    }
    check_pinned("load_churn", &fingerprints);
    assert!(total_joins > 0, "churn never materialized — rates too low");
    assert!(total_timeouts > 0, "no partition window ever bit — scenarios too tame");
    fingerprints.dedup_by(|a, b| a.1 == b.1);
    assert!(fingerprints.len() > 1, "seeds collapsed to one scenario");
}

// ---------------------------------------------------------------------------
// Family 5: journal-gossip discovery under churn + partition (ISSUE 9)
// ---------------------------------------------------------------------------

/// One gossip-discovery scenario: E2E hosts with anti-entropy enabled, a
/// mid-plan migration burst (churn), and a partition window around the
/// gossip relay so the relay-first path must demote to direct.
struct GossipScenario {
    objects_per_holder: usize,
    accesses: usize,
    link_loss: u16,
    migrations: usize,
    part_at: u64,
    part_dur: u64,
    access_at: u64,
    access_gap: u64,
}

fn gen_gossip_scenario(seed: u64) -> GossipScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x605);
    let objects_per_holder = rng.gen_range(2..4);
    GossipScenario {
        objects_per_holder,
        accesses: rng.gen_range(12..20),
        link_loss: rng.gen_range(0..30) as u16,
        migrations: rng.gen_range(1..=objects_per_holder),
        part_at: rng.gen_range(100..700),
        part_dur: rng.gen_range(150..450),
        access_at: rng.gen_range(300..500),
        access_gap: rng.gen_range(40..80),
    }
}

struct GossipOutcome {
    fingerprint: String,
    relay_fallbacks: u64,
    repair_hits: u64,
    nacks: u64,
}

fn run_gossip_scenario(seed: u64, sc: &GossipScenario, shards: usize) -> GossipOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x605B);
    let host_cfg = HostConfig {
        mode: DiscoveryMode::E2E,
        access_timeout: SimTime::from_micros(200),
        max_access_retries: 8,
        ..HostConfig::default()
    };
    const D0: ObjId = ObjId(0xD0);
    const B0: ObjId = ObjId(0xB0);
    const B1: ObjId = ObjId(0xB1);
    const B2: ObjId = ObjId(0xB2);

    let mut driver = HostNode::new("driver", D0, host_cfg);
    let mut h0 = HostNode::new("h0", B0, host_cfg);
    let mut h1 = HostNode::new("h1", B1, host_cfg);
    // h2 holds no objects: it exists as the driver's gossip relay towards
    // h0, and as the partition victim — cutting it off must demote the
    // relay-first path to direct without stalling anti-entropy.
    let mut h2 = HostNode::new("h2", B2, host_cfg);

    for (host, replica) in [(&mut driver, 1u64), (&mut h0, 2), (&mut h1, 3), (&mut h2, 4)] {
        host.enable_gossip(replica, rdv_gossip::GossipConfig::default());
    }
    driver.add_gossip_peer(B0, Some(B2));
    driver.add_gossip_peer(B1, None);
    h0.add_gossip_peer(D0, None);
    h0.add_gossip_peer(B1, None);
    h1.add_gossip_peer(B2, None);
    h1.add_gossip_peer(D0, None);
    h2.add_gossip_peer(B0, None);
    h2.add_gossip_peer(B1, None);

    // h0 and h1 each hold objects; routes point at the *initial* holders,
    // so post-migration broadcasts land on the stale port and only the
    // journal can repair the path (star switch default is drop, not flood).
    // Loss rides the driver's uplink only: access traffic must survive
    // drops via the retry budget, but the holder-to-holder migration push
    // is a single unacked image transfer — losing it would orphan the
    // object and (correctly) fail the all-accesses-complete invariant.
    let driver_link = host_link_rack().with_loss(sc.link_loss);
    let link = host_link_rack();
    let mut obj_routes = Vec::new();
    let mut owned0 = Vec::new();
    let mut owned1 = Vec::new();
    {
        let mut seed_objects =
            |host: &mut HostNode, port: usize, owned: &mut Vec<ObjId>, rng: &mut StdRng| {
                for _ in 0..sc.objects_per_holder {
                    let obj = host.store.create(rng, ObjectKind::Data);
                    let off = host.store.get_mut(obj).unwrap().alloc(128).unwrap();
                    host.store.get_mut(obj).unwrap().write_u64(off, obj.as_u128() as u64).unwrap();
                    obj_routes.push((obj, port));
                    owned.push(obj);
                }
            };
        seed_objects(&mut h0, 1, &mut owned0, &mut rng);
        seed_objects(&mut h1, 2, &mut owned1, &mut rng);
    }

    // Churn: a subset of h0's objects migrates to h1 mid-plan, after the
    // driver has already cached their old location.
    for &obj in owned0.iter().take(sc.migrations) {
        h0.migrations.push((obj, B1));
    }
    for _ in 0..sc.accesses {
        let pick = if rng.gen_bool(0.5) { &owned0 } else { &owned1 };
        driver.plan.push(pick[rng.gen_range(0..pick.len())]);
    }
    let plan_len = driver.plan.len();

    let nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = vec![
        (Box::new(driver), D0, driver_link),
        (Box::new(h0), B0, link),
        (Box::new(h1), B1, link),
        (Box::new(h2), B2, link),
    ];
    let (mut sim, ids) =
        build_star_fabric_observed(seed, shards, soak_observers(), nodes, &obj_routes);
    let switch = NodeId(ids.len());

    sim.install_fault_plan(&FaultPlan::new().partition(
        SimTime::from_micros(sc.part_at),
        SimTime::from_micros(sc.part_at + sc.part_dur),
        &[switch],
        &[ids[3]],
    ));

    // Accesses straddle the migration burst: the first half trains the
    // destcache on the old holders, then the churn lands, then the stale
    // second half must repair via Nack + local journal.
    let migrate_at = sc.access_at + sc.access_gap * (sc.accesses as u64 / 2);
    for m in 0..sc.migrations as u64 {
        sim.schedule(
            SimTime::from_micros(migrate_at + 10 * m),
            ids[1],
            rdv_discovery::host::tags::MIGRATE | m,
        );
    }
    for i in 0..plan_len as u64 {
        sim.schedule(SimTime::from_micros(sc.access_at + sc.access_gap * i), ids[0], i);
    }
    // Anti-entropy re-arms its timer forever, so the sim never idles:
    // bound the run past the last access plus the full retry budget.
    let last = sc.access_at + sc.access_gap * plan_len as u64;
    sim.run_until(SimTime::from_micros(last + 3000));

    let gctr = rdv_gossip::sync::ctr();
    let mut relay_fallbacks = 0u64;
    let mut repair_hits = 0u64;
    let mut fingerprint = render_counters("", &sim.counters);
    for (k, &id) in ids.iter().enumerate() {
        let h = sim.node_as::<HostNode>(id).unwrap();
        relay_fallbacks += h.counters.get_id(gctr.relay_fallbacks);
        repair_hits += h.counters.get_id(gctr.repair_hits);
        fingerprint.push_str(&render_counters(&format!("n{k}."), &h.counters));
        if let Some(g) = &h.gossip {
            fingerprint.push_str(&format!("n{k}.journal={:x};", g.journal.fingerprint()));
        }
    }

    let drv = sim.node_as::<HostNode>(ids[0]).unwrap();
    // Invariant 3: nothing wedges; and with no crash and the partition
    // only around the object-free relay, every access must complete.
    assert_eq!(drv.outstanding(), 0, "seed {seed}: accesses wedged in flight");
    assert_eq!(
        drv.records.len(),
        plan_len,
        "seed {seed}: churn + partition may not lose accesses ({:?})",
        drv.failed
    );
    let mut nacks = 0u64;
    for r in &drv.records {
        assert!(r.latency() > SimTime::ZERO, "seed {seed}");
        nacks += r.nacks;
    }
    fingerprint.push_str(&render_records(&drv.records));
    GossipOutcome { fingerprint, relay_fallbacks, repair_hits, nacks }
}

#[test]
fn gossip_soak_churn_and_partition_under_journal_discovery() {
    let mut fingerprints = Vec::new();
    let (mut fallbacks, mut repairs, mut nacks) = (0u64, 0u64, 0u64);
    for seed in 0..15u64 {
        let sc = gen_gossip_scenario(seed);
        let out = run_gossip_scenario(seed, &sc, 1);

        // Invariant 4: byte-identical at every engine shard count, with
        // the shard-ownership race detector armed (Observe::audit).
        for shards in [2usize, 8] {
            let again = run_gossip_scenario(seed, &sc, shards);
            assert_eq!(out.fingerprint, again.fingerprint, "seed {seed}: shards={shards} diverged");
        }
        fallbacks += out.relay_fallbacks;
        repairs += out.repair_hits;
        nacks += out.nacks;
        fingerprints.push((seed, out.fingerprint));
    }
    check_pinned("gossip", &fingerprints);
    assert!(fallbacks > 0, "no partition window ever demoted the relay path to direct");
    assert!(repairs > 0, "journal repair never fired — gossip facts went unused");
    assert!(nacks > 0, "no stale unicast ever hit the old holder — churn never bit");
    fingerprints.dedup_by(|a, b| a.1 == b.1);
    assert!(fingerprints.len() > 1, "seeds collapsed to one scenario");
}
