//! F7 — discovery churn at fabric scale: flood rediscovery vs
//! journal-synchronized gossip (ISSUE 9, ROADMAP item 3).
//!
//! The paper's E2E scheme rediscovers a moved object by broadcasting
//! `DiscoverReq` to every host — O(hosts) packets per churn event, the
//! knee that bends F3 upward as the deployment grows. The gossip plane
//! (`rdv-gossip`) replaces that with journal-synchronized anti-entropy:
//! a holder change is one CRDT journal entry that rides the O(1)
//! per-node-round digest/delta exchange, and a stale client repairs its
//! route from the *local* journal without touching the network.
//!
//! This figure puts both disciplines on the [`rdv_netsim::topo::build_rack_ring`]
//! fabric at 1 k / 10 k / 100 k hosts, migrates a fixed set of objects
//! mid-run, and counts the discovery-plane traffic each churn event
//! costs:
//!
//! * **flood arm** — the stale reader hits the old holder, takes the
//!   `Nack`, and floods `DiscoverReq` across the whole fabric; the
//!   `disc_per_churn` column grows linearly with host count.
//! * **gossip arm** — hosts run [`GossipSync`] rounds on sim-time
//!   timers (peers planned by [`plan_gossip_peers`]: rack rings plus
//!   relay-first head links); the new holder journals the fact, the
//!   reader's journal repairs the route, and `disc_per_churn` (delta
//!   entries applied fabric-wide) stays O(rounds), flat in host count
//!   while the background `msgs_per_node_round` stays constant.
//!
//! Every row is a pure simulation output, run once at the process's
//! shard count. That the run fingerprint (events, clock, merged counters,
//! per-probe latencies — [`fingerprint`]) is byte-equal at shards 1/2/8 is
//! asserted by `tests/shard_determinism.rs` on a small fabric and, at
//! these sizes, by `scripts/contract.sh`'s `--shards 1` vs `8` `cmp`.

use crate::fabric::{host_link, trunk_link};
use crate::report::{f1, f2, Series};
use rdv_discovery::hier::plan_gossip_peers;
use rdv_gossip::sync::ctr;
use rdv_gossip::{GossipConfig, GossipSync};
use rdv_memproto::msg::{Msg, MsgBody, NackCode};
use rdv_netsim::metrics::{MetricSample, MetricSet};
use rdv_netsim::stats::Counters;
use rdv_netsim::topo::build_rack_ring;
use rdv_netsim::{Node, NodeCtx, Observe, Packet, PortId, Sim, SimConfig, SimTime};
use rdv_objspace::ObjId;

/// The F5 fabric sizes, ascending: (racks, hosts_per_rack).
pub(crate) const FABRICS: [(usize, usize); 3] = [(16, 64), (32, 320), (256, 400)];

/// Packets with `trace >= FLOOD_BASE` are fabric floods; the low bits
/// carry the remaining trunk-hop budget. Everything below is a unicast
/// routed on `trace` = destination host index.
const FLOOD_BASE: u64 = 1 << 62;

const INBOX_BASE: u128 = 0xF7_0000_0000;
const OBJ_BASE: u128 = 0xF7_8000_0000;

const TAG_ROUND: u64 = 1;
const TAG_CHURN: u64 = 2;
const TAG_DROP: u64 = 3;
const TAG_PROBE: u64 = 4;

/// Journal-repair retry cadence while the churn fact is still in flight.
const PROBE_RETRY: SimTime = SimTime::from_micros(20);

fn inbox(i: usize) -> ObjId {
    ObjId(INBOX_BASE + i as u128)
}

fn obj(i: usize) -> ObjId {
    ObjId(OBJ_BASE + i as u128)
}

fn host_of(id: ObjId) -> usize {
    (id.as_u128() - INBOX_BASE) as usize
}

/// Churn workload shape and timeline (all sim-time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChurnSpec {
    racks: usize,
    hpr: usize,
    /// Objects migrated mid-run (one per mover rack).
    churns: usize,
    /// First migration instant.
    churn_at_ns: u64,
    /// Spacing between successive migrations (and their probes).
    spacing_ns: u64,
    /// Probe delay after each migration.
    probe_delay_ns: u64,
    /// Gossip-arm drain after the last probe fires (the flood arm has no
    /// re-arming timers and simply runs to idle).
    drain_ns: u64,
}

impl ChurnSpec {
    fn hosts(&self) -> usize {
        self.racks * self.hpr
    }

    fn end_ns(&self) -> u64 {
        self.churn_at_ns
            + self.probe_delay_ns
            + self.spacing_ns * self.churns as u64
            + self.drain_ns
    }
}

pub(crate) fn spec(racks: usize, hpr: usize, quick: bool) -> ChurnSpec {
    ChurnSpec {
        racks,
        hpr,
        churns: if quick { 4 } else { 16.min(racks) },
        churn_at_ns: 160_000,
        spacing_ns: 10_000,
        probe_delay_ns: 160_000,
        drain_ns: 120_000,
    }
}

/// Per-rack switch: floods replicate to every host port and burn one
/// trunk hop per ring step; unicasts route on `trace` = host index.
struct F7Switch {
    rack: usize,
    hpr: usize,
}

impl Node for F7Switch {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        if packet.trace >= FLOOD_BASE {
            let hops = packet.trace - FLOOD_BASE;
            for p in 0..self.hpr {
                if PortId(p) != port {
                    ctx.send(PortId(p), Packet::new(packet.payload.clone(), packet.trace));
                }
            }
            if hops > 0 {
                ctx.send(PortId(self.hpr), Packet::new(packet.payload, FLOOD_BASE + hops - 1));
            }
        } else {
            let dest = packet.trace as usize;
            if dest / self.hpr == self.rack {
                ctx.send(PortId(dest % self.hpr), packet);
            } else {
                // Clockwise around the trunk ring until the home rack.
                ctx.send(PortId(self.hpr), packet);
            }
        }
    }
    fn name(&self) -> &str {
        "f7-switch"
    }
}

/// A host in either arm. Everyone starts holding `obj(index)`; movers
/// hand their object to their successor mid-run. The probe host (two
/// slots past the mover) reads the moved object through the discipline
/// under test: journal repair (gossip arm) or Nack + fabric flood
/// rediscovery (flood arm).
struct F7Host {
    index: usize,
    racks: usize,
    /// `Some` in the gossip arm: the embedded anti-entropy machine.
    sync: Option<GossipSync>,
    counters: Counters,
    holds: Vec<ObjId>,
    flood_rx: u64,
    probe_target: Option<ObjId>,
    probe_started_ns: Option<u64>,
    probe_done_ns: Option<u64>,
    journal_hit: bool,
    next_req: u64,
    /// The representative host whose gossip gauges the metrics companion
    /// samples (unique node name `probe`, so the series instance is
    /// stable). Gauge sampling reads state only, so this never perturbs
    /// the run fingerprint.
    metrics_probe: bool,
}

impl F7Host {
    fn new(index: usize, racks: usize, sync: Option<GossipSync>) -> F7Host {
        F7Host {
            index,
            racks,
            sync,
            counters: Counters::new(),
            holds: Vec::new(),
            flood_rx: 0,
            probe_target: None,
            probe_started_ns: None,
            probe_done_ns: None,
            journal_hit: false,
            next_req: 0,
            metrics_probe: false,
        }
    }

    fn req(&mut self) -> u64 {
        self.next_req += 1;
        ((self.index as u64) << 20) | self.next_req
    }

    /// Unicast a message to the inbox named in its header.
    fn send_msg(ctx: &mut NodeCtx<'_>, msg: Msg) {
        let dest = host_of(msg.header.dst) as u64;
        ctx.send(PortId(0), Packet::new(msg.encode(), dest));
    }

    fn read_req(&mut self, ctx: &mut NodeCtx<'_>, holder: ObjId) {
        let (req, target) = (self.req(), self.probe_target.expect("probe target set"));
        Self::send_msg(
            ctx,
            Msg::new(
                holder,
                inbox(self.index),
                MsgBody::ReadReq { req, target, offset: 0, len: 32 },
            ),
        );
    }
}

impl Node for F7Host {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.holds.push(obj(self.index));
        if let Some(sync) = &self.sync {
            ctx.set_timer(sync.period(), TAG_ROUND);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_ROUND => {
                let Some(sync) = self.sync.as_mut() else { return };
                let now_ns = ctx.now.as_nanos();
                for msg in sync.on_round(now_ns, &mut self.counters) {
                    Self::send_msg(ctx, msg);
                }
                ctx.set_timer(self.sync.as_ref().expect("gossip arm").period(), TAG_ROUND);
            }
            TAG_CHURN => {
                // Take over the predecessor's object; in the gossip arm
                // the fact is journaled and rides the next round.
                let moved = obj(self.index - 1);
                self.holds.push(moved);
                if let Some(sync) = self.sync.as_mut() {
                    sync.journal.record_holder(moved, inbox(self.index), ctx.now.as_nanos());
                }
            }
            TAG_DROP => {
                let own = obj(self.index);
                self.holds.retain(|&o| o != own);
            }
            TAG_PROBE => {
                let target = obj(self.index - 2);
                self.probe_target = Some(target);
                if self.probe_started_ns.is_none() {
                    self.probe_started_ns = Some(ctx.now.as_nanos());
                }
                match self.sync.as_ref().map(|s| s.journal.lookup(target)) {
                    // Route repaired from the local journal — no network
                    // round-trip spent on discovery.
                    Some(Some(holder)) => {
                        self.journal_hit = true;
                        self.counters.inc_id(ctr().repair_hits);
                        self.read_req(ctx, holder);
                    }
                    // Fact still in flight; retry off the network.
                    Some(None) => ctx.set_timer(PROBE_RETRY, TAG_PROBE),
                    // Flood arm: go to the (stale) last-known holder and
                    // let the Nack trigger rediscovery.
                    None => self.read_req(ctx, inbox(self.index - 2)),
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(msg) = Msg::decode_bytes(&packet.payload) else { return };
        match &msg.body {
            MsgBody::GossipDigest { .. } | MsgBody::GossipDelta { .. } => {
                if let Some(sync) = self.sync.as_mut() {
                    for out in sync.on_msg(&msg, &mut self.counters) {
                        Self::send_msg(ctx, out);
                    }
                }
            }
            MsgBody::ReadReq { req, target, .. } => {
                let body = if self.holds.contains(target) {
                    MsgBody::ReadResp { req: *req, offset: 0, version: 1, data: vec![0u8; 32] }
                } else {
                    MsgBody::Nack { req: *req, code: NackCode::NotHere }
                };
                Self::send_msg(ctx, Msg::new(msg.header.src, inbox(self.index), body));
            }
            MsgBody::ReadResp { .. } => {
                if let Some(started) = self.probe_started_ns {
                    self.probe_done_ns.get_or_insert(ctx.now.as_nanos() - started);
                }
            }
            MsgBody::Nack { req, .. } => {
                // Flood rediscovery: broadcast DiscoverReq across the
                // whole fabric — the O(hosts) cost this figure measures.
                let Some(target) = self.probe_target else { return };
                let flood = Msg::new(target, inbox(self.index), MsgBody::DiscoverReq { req: *req });
                let hops = FLOOD_BASE + self.racks as u64 - 1;
                ctx.send(PortId(0), Packet::new(flood.encode(), hops));
            }
            MsgBody::DiscoverReq { req } => {
                self.flood_rx += 1;
                if self.holds.contains(&msg.header.dst) {
                    Self::send_msg(
                        ctx,
                        Msg::new(
                            msg.header.src,
                            inbox(self.index),
                            MsgBody::DiscoverResp { req: *req, holder_inbox: inbox(self.index) },
                        ),
                    );
                }
            }
            MsgBody::DiscoverResp { holder_inbox, .. } => {
                let holder = *holder_inbox;
                self.read_req(ctx, holder);
            }
            _ => {}
        }
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        if !self.metrics_probe {
            return;
        }
        if let Some(sync) = &self.sync {
            m.gauge("gossip.journal_entries", sync.journal.len() as u64);
            m.rate_per_s("gossip.sync_rate", self.counters.get_id(ctr().rounds));
            m.gauge("gossip.repair_hits", self.counters.get_id(ctr().repair_hits));
        }
    }

    fn name(&self) -> &str {
        if self.metrics_probe {
            "probe"
        } else {
            "f7-host"
        }
    }
}

/// One arm's deterministic outputs (plus the full fingerprint string).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ArmOut {
    pub(crate) events: u64,
    clock_ns: u64,
    pub(crate) flood_rx: u64,
    pub(crate) rounds: u64,
    gossip_msgs: u64,
    pub(crate) entries_applied: u64,
    pub(crate) repair_hits: u64,
    /// Churn-order probe latencies (mover-rack order), ns.
    pub(crate) probe_ns: Vec<u64>,
    fp: String,
}

/// One arm with `observe` armed on the empty simulation. Observed
/// metrics come back beside the arm: engine gauges plus the gossip gauges
/// of the first prober host (node name `probe`), which the
/// `figures --metrics F7` companion reads.
pub(crate) fn run_arm(
    spec: &ChurnSpec,
    gossip: bool,
    seed: u64,
    observe: Observe,
) -> (ArmOut, Option<MetricSet>) {
    let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
    let metrics = observe.metrics.is_some();
    sim.observe(observe);
    let (racks, hpr) = (spec.racks, spec.hpr);
    let ring = build_rack_ring(
        &mut sim,
        racks,
        hpr,
        |rack| Box::new(F7Switch { rack, hpr }),
        |i| {
            let sync = gossip.then(|| GossipSync::new(inbox(i), i as u64, GossipConfig::default()));
            Box::new(F7Host::new(i, racks, sync))
        },
        host_link(),
        trunk_link(),
    );
    if gossip {
        // Rack rings plus relay-first head links, exactly as a real
        // deployment would plan them.
        let regions: Vec<Vec<ObjId>> =
            (0..racks).map(|r| (0..hpr).map(|h| inbox(r * hpr + h)).collect()).collect();
        for plan in plan_gossip_peers(&regions) {
            let host = ring.hosts[host_of(plan.host)];
            let sync =
                sim.node_as_mut::<F7Host>(host).and_then(|h| h.sync.as_mut()).expect("gossip host");
            for (peer, relay) in plan.peers {
                sync.add_peer(peer, relay);
            }
        }
    }
    // Mover rack c: host slot 1 hands its object to slot 2; slot 3 reads
    // it back through the discipline under test.
    let mut probers = Vec::new();
    for c in 0..spec.churns {
        let rack = c * racks / spec.churns;
        let m = rack * hpr + 1;
        let at = SimTime::from_nanos(spec.churn_at_ns + spec.spacing_ns * c as u64);
        sim.schedule(at, ring.hosts[m], TAG_DROP);
        sim.schedule(at, ring.hosts[m + 1], TAG_CHURN);
        let probe = SimTime::from_nanos(
            spec.churn_at_ns + spec.probe_delay_ns + spec.spacing_ns * c as u64,
        );
        sim.schedule(probe, ring.hosts[m + 2], TAG_PROBE);
        probers.push(m + 2);
    }
    if metrics {
        let probe = sim.node_as_mut::<F7Host>(ring.hosts[probers[0]]).expect("prober");
        probe.metrics_probe = true;
    }
    // Gossip timers re-arm forever, so that arm runs to a deadline; the
    // flood arm has no standing timers and drains to idle.
    let events = if gossip {
        sim.run_until(SimTime::from_nanos(spec.end_ns()))
    } else {
        sim.run_until_idle()
    };
    let clock_ns = sim.now().as_nanos();
    let set = metrics.then(|| {
        sim.flush_metrics(sim.now());
        sim.take_metrics()
    });

    let mut merged = Counters::new();
    let mut flood_rx = 0u64;
    let mut probe_ns = Vec::new();
    for &idx in &probers {
        let h = sim.node_as::<F7Host>(ring.hosts[idx]).expect("prober");
        let done = h
            .probe_done_ns
            .unwrap_or_else(|| panic!("probe on host {idx} never completed (arm gossip={gossip})"));
        assert_eq!(h.journal_hit, gossip, "host {idx}: repair path must match the arm");
        probe_ns.push(done);
    }
    for &id in &ring.hosts {
        let h = sim.node_as::<F7Host>(id).expect("host");
        merged.merge(&h.counters);
        flood_rx += h.flood_rx;
    }
    let g = ctr();
    let mut fp = format!("e:{events};c:{clock_ns};fl:{flood_rx};");
    for (name, value) in merged.iter() {
        fp.push_str(&format!("{name}:{value};"));
    }
    for (i, ns) in probe_ns.iter().enumerate() {
        fp.push_str(&format!("p{i}:{ns};"));
    }
    let out = ArmOut {
        events,
        clock_ns,
        flood_rx,
        rounds: merged.get_id(g.rounds),
        gossip_msgs: merged.get_id(g.digests_sent)
            + merged.get_id(g.deltas_sent)
            + merged.get_id(g.relayed),
        entries_applied: merged.get_id(g.entries_applied),
        repair_hits: merged.get_id(g.repair_hits),
        probe_ns,
        fp,
    };
    (out, set)
}

/// Run the churn sweep: both arms at every fabric size.
pub fn run(quick: bool) -> Series {
    sweep(&FABRICS, quick)
}

/// Every point's full run fingerprint (events, clock, merged counters,
/// per-probe latencies), in row order — a finer observable than the
/// rows, for `tests/shard_determinism.rs` to compare across shard counts.
pub fn fingerprint(fabrics: &[(usize, usize)], quick: bool) -> String {
    let mut out = String::new();
    for &(racks, hpr) in fabrics {
        for gossip in [false, true] {
            out.push_str(&run_arm(&spec(racks, hpr, quick), gossip, 42, Observe::default()).0.fp);
            out.push('\n');
        }
    }
    out
}

/// The sweep body over `fabrics` = `(racks, hosts_per_rack)` points, so
/// tests can drive a debug-friendly fabric through the identical pipeline.
pub fn sweep(fabrics: &[(usize, usize)], quick: bool) -> Series {
    let mut series = Series::new(
        "F7",
        "discovery churn at fabric scale: flood rediscovery vs journal gossip (ISSUE 9)",
        &[
            "hosts",
            "racks",
            "churns",
            "arm",
            "events",
            "clock_us",
            "disc_per_churn",
            "msgs_per_node_round",
            "probe_mean_us",
            "probe_max_us",
            "journal_hits",
        ],
    );
    for &(racks, hpr) in fabrics {
        let spec = spec(racks, hpr, quick);
        for gossip in [false, true] {
            let arm = run_arm(&spec, gossip, 42, Observe::default()).0;
            let churns = spec.churns as u64;
            // The knee column: what one churn event costs the discovery
            // plane. Flood = DiscoverReq deliveries (O(hosts)); gossip =
            // journal delta entries applied fabric-wide (O(rounds)).
            let disc_per_churn = if gossip {
                arm.entries_applied as f64 / churns as f64
            } else {
                arm.flood_rx as f64 / churns as f64
            };
            let per_node_round =
                if arm.rounds > 0 { arm.gossip_msgs as f64 / arm.rounds as f64 } else { 0.0 };
            let mean_ns =
                arm.probe_ns.iter().sum::<u64>() as f64 / arm.probe_ns.len().max(1) as f64;
            let max_ns = arm.probe_ns.iter().copied().max().unwrap_or(0);
            series.push_row(vec![
                spec.hosts().to_string(),
                racks.to_string(),
                spec.churns.to_string(),
                if gossip { "gossip".into() } else { "flood".into() },
                arm.events.to_string(),
                f1(arm.clock_ns as f64 / 1e3),
                f1(disc_per_churn),
                f2(per_node_round),
                f1(mean_ns / 1e3),
                f1(max_ns as f64 / 1e3),
                arm.repair_hits.to_string(),
            ]);
        }
    }
    series.note(
        "disc_per_churn is the discovery-plane cost of one migration: DiscoverReq deliveries \
         (flood arm, O(hosts)) vs journal delta entries applied fabric-wide (gossip arm, \
         O(rounds) — flat in host count)",
    );
    series.note(
        "msgs_per_node_round is the gossip arm's steady-state background: digests + deltas + \
         relays per node-round, constant across fabric sizes; every row's fingerprint (events, \
         clock, counters, probe latencies) is asserted byte-identical across --shards 1/2/8 \
         by tests/shard_determinism.rs on a small fabric, and these rows by \
         scripts/contract.sh's --shards 1 vs 8 cmp",
    );
    if quick {
        series.note("quick mode: fewer churn events per fabric; fabric sizes unchanged");
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnSpec {
        ChurnSpec {
            racks: 4,
            hpr: 8,
            churns: 2,
            churn_at_ns: 160_000,
            spacing_ns: 10_000,
            probe_delay_ns: 160_000,
            drain_ns: 120_000,
        }
    }

    #[test]
    fn flood_arm_pays_o_hosts_per_churn() {
        let spec = tiny();
        let flood = run_arm(&spec, false, 42, Observe::default()).0;
        assert_eq!(flood.repair_hits, 0);
        assert_eq!(flood.probe_ns.len(), spec.churns);
        // Every host except the prober sees each flood.
        let hosts = spec.hosts() as u64;
        assert!(
            flood.flood_rx >= (hosts - 2) * spec.churns as u64,
            "flood must reach the fabric: {} deliveries for {} churns on {} hosts",
            flood.flood_rx,
            spec.churns,
            hosts
        );
    }

    #[test]
    fn gossip_arm_repairs_from_the_journal_at_o_rounds_cost() {
        let spec = tiny();
        let gossip = run_arm(&spec, true, 42, Observe::default()).0;
        assert_eq!(gossip.flood_rx, 0, "journal repair must not flood");
        assert_eq!(gossip.repair_hits, spec.churns as u64, "every probe repairs locally");
        assert_eq!(gossip.probe_ns.len(), spec.churns);
        // The churn fact spreads one ring hop per round, not fabric-wide.
        let per_churn = gossip.entries_applied / spec.churns as u64;
        assert!(
            per_churn < spec.hosts() as u64 / 2,
            "gossip churn cost must not scale with hosts: {per_churn} entries/churn"
        );
        // Steady-state background stays a small constant per node-round.
        let per_node_round = gossip.gossip_msgs as f64 / gossip.rounds as f64;
        assert!(
            (1.0..6.0).contains(&per_node_round),
            "background must be O(1) per node-round, got {per_node_round}"
        );
        // Probes resolve quickly: the fact arrived before the probe fired,
        // so latency is one direct read RTT, far below flood rediscovery.
        let flood = run_arm(&spec, false, 42, Observe::default()).0;
        let gmax = gossip.probe_ns.iter().copied().max().unwrap();
        let fmax = flood.probe_ns.iter().copied().max().unwrap();
        assert!(gmax < fmax, "journal repair ({gmax} ns) must beat flood rediscovery ({fmax} ns)");
    }
}
