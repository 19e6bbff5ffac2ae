//! The paper-testbed scenarios: Figure 2 and Figure 3.
//!
//! §4: *"we … used Mininet to connect three Twizzler VMs to four
//! interconnected switches … where one VM drove accesses to objects and the
//! other two responded."* [`run_discovery_observed`] rebuilds exactly that
//! on `rdv-netsim`: h0 drives, h1/h2 respond, four switches in a full mesh
//! (see `rdv_netsim::topo::wire_paper_testbed`), with an SDN controller
//! attached in controller mode.

use rdv_det::DetMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rdv_netsim::metrics::MetricSet;
use rdv_netsim::topo::wire_paper_testbed;
use rdv_netsim::trace::Tracer;
use rdv_netsim::{Histogram, LinkSpec, NodeId, Observe, Sim, SimConfig, SimTime};
use rdv_objspace::{ObjId, ObjectKind};
use rdv_p4rt::capacity::SramBudget;
use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
use rdv_p4rt::table::{Action, MatchKind, Table};

use crate::controller::{ControllerNode, SwitchInfo};
use crate::host::{tags, AccessRecord, DiscoveryMode, HostConfig, HostNode, StalenessMode};

/// Which figure's sweep point to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Figure 2: a fraction of accesses go to never-before-seen objects.
    Fig2NewObjects {
        /// Percent of accesses targeting new objects (0–100).
        pct_new: u8,
    },
    /// Figure 3: a fraction of the object population has moved since the
    /// driver's destination cache was warmed.
    Fig3Staleness {
        /// Percent of objects migrated (0–100).
        pct_moved: u8,
    },
}

/// Full scenario configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// The sweep point.
    pub kind: ScenarioKind,
    /// E2E or Controller discovery.
    pub mode: DiscoveryMode,
    /// Staleness handling (E2E; Figure 3).
    pub staleness: StalenessMode,
    /// Measured accesses.
    pub accesses: usize,
    /// Size of the pre-existing ("old") object pool.
    pub num_objects: usize,
    /// Gap between consecutive accesses.
    pub access_gap: SimTime,
    /// RNG seed (same seed ⇒ identical outcome).
    pub seed: u64,
    /// Journal-synchronized discovery (DESIGN.md §12): the hosts gossip
    /// holder facts instead of broadcasting invalidations, and stale cache
    /// entries repair from the local journal. E2E mode only.
    pub gossip: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            kind: ScenarioKind::Fig2NewObjects { pct_new: 0 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::InvalidateOnMove,
            accesses: 1000,
            num_objects: 128,
            access_gap: SimTime::from_micros(100),
            seed: 7,
            gossip: false,
        }
    }
}

/// The causal trace of one scenario run ([`Observe::trace`]),
/// boxed to keep [`DiscoveryOutcome`] small when tracing is off.
#[derive(Debug)]
pub struct ScenarioTrace {
    /// The recorded event stream.
    pub tracer: Tracer,
    /// Node names by node index, for exporter thread labels.
    pub node_names: Vec<String>,
    /// The driving host's node index (its events anchor causal chains).
    pub driver: u32,
    /// The driver's measured access records; each carries the
    /// `discovery.access` span-end id critical paths walk back from.
    pub records: Vec<AccessRecord>,
}

/// Results of one scenario run.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    /// Per-access latency samples, nanoseconds.
    pub rtt: Histogram,
    /// Broadcast discovery messages emitted per 100 measured accesses.
    pub broadcasts_per_100: f64,
    /// Measured accesses that completed.
    pub completed: usize,
    /// Measured accesses that did not complete (should be zero).
    pub incomplete: usize,
    /// NACKs hit by measured accesses.
    pub nacks: u64,
    /// Total simulated events processed.
    pub events: u64,
    /// The causal trace, when the run observed one ([`Observe::trace`]).
    pub trace: Option<Box<ScenarioTrace>>,
    /// The sampled telemetry series, when the run observed one
    /// ([`Observe::metrics`]; boxed to keep the outcome small when
    /// sampling is off).
    pub metrics: Option<Box<MetricSet>>,
}

impl DiscoveryOutcome {
    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.rtt.mean() / 1000.0
    }

    /// Latency standard deviation in microseconds.
    pub fn stddev_us(&self) -> f64 {
        self.rtt.stddev() / 1000.0
    }
}

struct Testbed {
    sim: Sim,
    driver: NodeId,
    responders: [NodeId; 2],
}

/// Well-known inbox IDs for the testbed hosts (reserved low range, like
/// [`CONTROLLER_INBOX`]).
const H0_INBOX: ObjId = ObjId(0xA0);
const H1_INBOX: ObjId = ObjId(0xA1);
const H2_INBOX: ObjId = ObjId(0xA2);

fn objroute_pipeline(default: Action) -> Pipeline {
    let mut pl = Pipeline::new(objnet_format(), default);
    pl.add_table(Table::new(
        "objroute",
        vec![OBJNET_DST_OBJ],
        MatchKind::Exact,
        128,
        SramBudget::tofino(),
    ));
    pl
}

/// Build the 3-host/4-switch testbed (plus controller when asked).
fn build_testbed(cfg: &ScenarioConfig, hosts: [HostNode; 3]) -> Testbed {
    let mut sim = Sim::new(SimConfig { seed: cfg.seed, ..Default::default() });
    let [h0, h1, h2] = hosts;
    let d = sim.add_node(Box::new(h0));
    let r1 = sim.add_node(Box::new(h1));
    let r2 = sim.add_node(Box::new(h2));

    // Switch wiring order fixes port numbers: trunks are ports 0–2 on every
    // switch; host links are port 3 on s0–s2; control links (controller
    // mode) are port 4 on s0–s2 and port 3 on s3.
    let (default, switch_cfg_for) = match cfg.mode {
        DiscoveryMode::E2E => (
            Action::Flood,
            Box::new(|_i: usize| SwitchConfig {
                learn_src_routes: true,
                dedup_floods: true,
                ..Default::default()
            }) as Box<dyn Fn(usize) -> SwitchConfig>,
        ),
        DiscoveryMode::Controller => (
            Action::Punt,
            Box::new(|i: usize| SwitchConfig {
                controller_port: Some(rdv_netsim::PortId(if i < 3 { 4 } else { 3 })),
                ..Default::default()
            }) as Box<dyn Fn(usize) -> SwitchConfig>,
        ),
    };
    let switches: Vec<NodeId> = (0..4)
        .map(|i| {
            sim.add_node(Box::new(SwitchNode::new(
                format!("s{i}"),
                objroute_pipeline(default),
                switch_cfg_for(i),
            )))
        })
        .collect();
    let tb = wire_paper_testbed(
        &mut sim,
        [d, r1, r2],
        [switches[0], switches[1], switches[2], switches[3]],
        LinkSpec::rack(),
        LinkSpec::rack(),
    );

    if cfg.mode == DiscoveryMode::Controller {
        // The controller gets one direct link to each switch; its ports are
        // 0..4 in switch order.
        let mut infos = Vec::new();
        for (i, &sw) in switches.iter().enumerate() {
            let mut host_egress = DetMap::new();
            for (inbox, node) in [(H0_INBOX, d), (H1_INBOX, r1), (H2_INBOX, r2)] {
                if let Some(port) = tb.fabric.next_hop(sw, node) {
                    host_egress.insert(inbox, port.0 as u16);
                }
            }
            infos.push(SwitchInfo { control_port: rdv_netsim::PortId(i), host_egress });
        }
        let ctl = sim.add_node(Box::new(ControllerNode::new("ctl", infos)));
        for &sw in &switches {
            sim.connect(ctl, sw, LinkSpec::rack());
        }
    }

    Testbed { sim, driver: d, responders: [r1, r2] }
}

/// Run one scenario point, unobserved. Kept with this signature for
/// rdvperf, whose sources change only in `[benchmark]` PRs; ROADMAP item
/// 1's PR retires it in favour of [`run_discovery_observed`].
pub fn run_discovery(cfg: &ScenarioConfig) -> DiscoveryOutcome {
    run_discovery_observed(cfg, Observe::default())
}

/// Run one scenario point with `observe` armed before the first access
/// is scheduled. Deterministic in `cfg.seed`; observers never change the
/// outcome, they only fill [`DiscoveryOutcome::trace`] and
/// [`DiscoveryOutcome::metrics`].
pub fn run_discovery_observed(cfg: &ScenarioConfig, observe: Observe) -> DiscoveryOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed); // rdv-lint: allow(rng-stream) -- pre-sim scenario generator stream, derived from the scenario seed before any node runs
    let host_cfg = HostConfig { mode: cfg.mode, staleness: cfg.staleness, ..Default::default() };

    let mut h0 = HostNode::new("h0", H0_INBOX, host_cfg);
    let mut h1 = HostNode::new("h1", H1_INBOX, host_cfg);
    let mut h2 = HostNode::new("h2", H2_INBOX, host_cfg);

    if cfg.gossip {
        for (host, replica) in [(&mut h0, 1u64), (&mut h1, 2), (&mut h2, 3)] {
            host.enable_gossip(replica, rdv_gossip::GossipConfig::default());
        }
        // Full-mesh neighbours on this 3-host testbed (direct paths; the
        // relay-first strategy is exercised by the chaos scenarios).
        let inboxes = [H0_INBOX, H1_INBOX, H2_INBOX];
        for (i, host) in [&mut h0, &mut h1, &mut h2].into_iter().enumerate() {
            for (j, &peer) in inboxes.iter().enumerate() {
                if i != j {
                    host.add_gossip_peer(peer, None);
                }
            }
        }
    }

    // Figure 3 pools one object per measured access on h1 (the x-axis is
    // "percentage of *accesses* to moved objects": each access touches a
    // distinct object, so the stale fraction equals the moved fraction).
    let fig3 = matches!(cfg.kind, ScenarioKind::Fig3Staleness { .. });
    let pool_size = if fig3 { cfg.accesses } else { cfg.num_objects };

    // Old object pool, split across the responders (all on h1 for Fig 3).
    let mut old_pool: Vec<(ObjId, ObjId)> = Vec::with_capacity(pool_size); // (obj, holder inbox)
    for i in 0..pool_size {
        let i = if fig3 { 0 } else { i };
        let (host, inbox) = if i % 2 == 0 { (&mut h1, H1_INBOX) } else { (&mut h2, H2_INBOX) };
        let id = host.store.create(&mut rng, ObjectKind::Data);
        host.store.get_mut(id).unwrap().alloc(64).unwrap();
        old_pool.push((id, inbox));
    }

    // Plans depend on the figure.
    let mut plan: Vec<ObjId> = Vec::new();
    let mut warmup = 0usize;
    match cfg.kind {
        ScenarioKind::Fig2NewObjects { pct_new } => {
            // New objects: created on the responders, never cached/seen.
            let n_new = cfg.accesses * usize::from(pct_new) / 100;
            let mut new_objs = Vec::with_capacity(n_new);
            for i in 0..n_new {
                let host = if i % 2 == 0 { &mut h1 } else { &mut h2 };
                let id = host.store.create(&mut rng, ObjectKind::Data);
                host.store.get_mut(id).unwrap().alloc(64).unwrap();
                new_objs.push(id);
            }
            if cfg.mode == DiscoveryMode::E2E {
                // The old pool is "already discovered": seed the cache (the
                // warmup accesses below train the switches' inbox routes).
                for &(obj, holder) in &old_pool {
                    h0.dest_cache.insert(obj, holder);
                }
                warmup = 4;
                for w in 0..warmup {
                    plan.push(old_pool[w % old_pool.len()].0);
                }
            }
            // Measured accesses: exactly pct_new% target a fresh object.
            let mut kinds: Vec<bool> = (0..cfg.accesses).map(|i| i < n_new).collect();
            kinds.shuffle(&mut rng);
            let mut next_new = 0;
            for is_new in kinds {
                if is_new {
                    plan.push(new_objs[next_new]);
                    next_new += 1;
                } else {
                    plan.push(old_pool[rng.gen_range(0..old_pool.len())].0);
                }
            }
        }
        ScenarioKind::Fig3Staleness { pct_moved } => {
            // Everything starts on h1; warm the cache by accessing each
            // object once, then migrate a fraction to h2, then access each
            // object exactly once in random order.
            // (Figure 3 is an E2E experiment; `cfg.mode` should be E2E.)
            warmup = pool_size;
            let mut warm_order: Vec<usize> = (0..pool_size).collect();
            warm_order.shuffle(&mut rng);
            for &i in &warm_order {
                plan.push(old_pool[i].0);
            }
            let n_moved = pool_size * usize::from(pct_moved) / 100;
            let mut move_order: Vec<usize> = (0..pool_size).collect();
            move_order.shuffle(&mut rng);
            h1.migrations =
                move_order[..n_moved].iter().map(|&i| (old_pool[i].0, H2_INBOX)).collect();
            let mut access_order: Vec<usize> = (0..pool_size).collect();
            access_order.shuffle(&mut rng);
            for &i in &access_order {
                plan.push(old_pool[i].0);
            }
        }
    }

    let n_migrations = h1.migrations.len();
    h0.plan = plan.clone();
    let mut tb = build_testbed(cfg, [h0, h1, h2]);
    let (traced, metered) = (observe.trace.is_some(), observe.metrics.is_some());
    tb.sim.observe(observe);

    // Schedule: warmups first, then (Fig3) migrations, then measurement.
    let mut t = SimTime::from_micros(1000);
    for i in 0..warmup {
        tb.sim.schedule(t, tb.driver, i as u64);
        t += cfg.access_gap;
    }
    if n_migrations > 0 {
        t += SimTime::from_millis(1);
        for m in 0..n_migrations {
            tb.sim.schedule(t, tb.responders[0], tags::MIGRATE | m as u64);
            t += SimTime::from_micros(10);
        }
        t += SimTime::from_millis(1);
    }
    for i in warmup..plan.len() {
        tb.sim.schedule(t, tb.driver, i as u64);
        t += cfg.access_gap;
    }
    if cfg.gossip {
        // Anti-entropy re-arms its timer forever, so the sim never idles:
        // bound the run with a drain window past the last scheduled access.
        tb.sim.run_until(t + SimTime::from_millis(20));
    } else {
        tb.sim.run_until_idle();
    }

    let trace_parts = traced.then(|| (tb.sim.node_names(), tb.sim.take_tracer()));
    let metrics = metered.then(|| {
        tb.sim.flush_metrics(tb.sim.now());
        Box::new(tb.sim.take_metrics())
    });
    let driver = tb.sim.node_as::<HostNode>(tb.driver).expect("driver type");
    let mut rtt = Histogram::new();
    let mut broadcasts = 0u64;
    let mut nacks = 0u64;
    // Warmup accesses complete before the first measured access is issued,
    // so the first `warmup` records are exactly the warmups.
    let measured = &driver.records[warmup.min(driver.records.len())..];
    for rec in measured {
        rtt.record(rec.latency().as_nanos());
        broadcasts += rec.broadcasts;
        nacks += rec.nacks;
    }
    let completed = measured.len();
    let trace = trace_parts.map(|(node_names, tracer)| {
        Box::new(ScenarioTrace {
            tracer,
            node_names,
            driver: tb.driver.0 as u32,
            records: measured.to_vec(),
        })
    });
    DiscoveryOutcome {
        broadcasts_per_100: if completed == 0 {
            0.0
        } else {
            broadcasts as f64 * 100.0 / completed as f64
        },
        completed,
        incomplete: plan.len() - warmup - completed,
        nacks,
        events: tb.sim.counters.get("sim.events"),
        rtt,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_netsim::metrics::MetricsConfig;
    use rdv_netsim::trace::DEFAULT_CAPACITY;
    use rdv_netsim::TraceSpec;

    fn quick(
        kind: ScenarioKind,
        mode: DiscoveryMode,
        staleness: StalenessMode,
    ) -> DiscoveryOutcome {
        run_discovery(&ScenarioConfig {
            kind,
            mode,
            staleness,
            accesses: 100,
            num_objects: 40,
            ..Default::default()
        })
    }

    #[test]
    fn e2e_all_old_objects_is_one_rtt_no_broadcasts() {
        let out = quick(
            ScenarioKind::Fig2NewObjects { pct_new: 0 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        assert_eq!(out.completed, 100);
        assert_eq!(out.incomplete, 0);
        assert_eq!(out.broadcasts_per_100, 0.0);
        assert!(out.mean_us() > 0.0);
    }

    #[test]
    fn e2e_new_objects_cost_broadcasts_and_latency() {
        let base = quick(
            ScenarioKind::Fig2NewObjects { pct_new: 0 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        let hot = quick(
            ScenarioKind::Fig2NewObjects { pct_new: 60 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        assert_eq!(hot.completed, 100);
        assert!((hot.broadcasts_per_100 - 60.0).abs() < 1.0, "{}", hot.broadcasts_per_100);
        assert!(
            hot.mean_us() > base.mean_us() * 1.2,
            "new-object discovery must raise mean RTT: {} vs {}",
            hot.mean_us(),
            base.mean_us()
        );
    }

    #[test]
    fn controller_latency_is_flat_in_new_fraction() {
        let a = quick(
            ScenarioKind::Fig2NewObjects { pct_new: 0 },
            DiscoveryMode::Controller,
            StalenessMode::InvalidateOnMove,
        );
        let b = quick(
            ScenarioKind::Fig2NewObjects { pct_new: 80 },
            DiscoveryMode::Controller,
            StalenessMode::InvalidateOnMove,
        );
        assert_eq!(a.completed, 100);
        assert_eq!(b.completed, 100);
        assert_eq!(a.broadcasts_per_100, 0.0);
        assert_eq!(b.broadcasts_per_100, 0.0);
        let ratio = b.mean_us() / a.mean_us();
        assert!((0.8..1.2).contains(&ratio), "controller RTT should be flat, ratio {ratio}");
    }

    #[test]
    fn fig3_staleness_raises_rtt_towards_two_legs() {
        let fresh = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 0 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        let stale = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 90 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        assert_eq!(fresh.completed, 100);
        assert_eq!(stale.completed, 100);
        let ratio = stale.mean_us() / fresh.mean_us();
        assert!(
            (1.5..2.6).contains(&ratio),
            "90% staleness should roughly double access time, ratio {ratio}"
        );
        assert!(stale.broadcasts_per_100 > 50.0);
    }

    #[test]
    fn fig3_variance_peaks_mid_sweep() {
        let lo = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 0 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        let mid = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 50 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        let hi = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 100 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        assert!(mid.stddev_us() > lo.stddev_us());
        assert!(mid.stddev_us() > hi.stddev_us(), "variance falls once all accesses are stale");
    }

    #[test]
    fn controller_mode_recovers_from_migration_via_readvertise() {
        // Fig3-style staleness under the CONTROLLER scheme: migrations make
        // switch routes stale until the new holder re-advertises; accesses
        // hitting the window NACK, back off, and retry successfully.
        let out = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 50 },
            DiscoveryMode::Controller,
            StalenessMode::InvalidateOnMove,
        );
        assert_eq!(out.completed, 100, "all accesses must complete: {out:?}");
        assert_eq!(out.incomplete, 0);
        assert_eq!(out.broadcasts_per_100, 0.0, "controller mode never broadcasts");
        // Migrations finish before measurement starts, so steady-state
        // accesses are 1-RTT unicast again.
        let fresh = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 0 },
            DiscoveryMode::Controller,
            StalenessMode::InvalidateOnMove,
        );
        let ratio = out.mean_us() / fresh.mean_us();
        assert!((0.9..1.3).contains(&ratio), "post-readvertise RTT flat, ratio {ratio}");
    }

    #[test]
    fn nack_rediscover_mode_is_costlier_than_invalidate() {
        let inv = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 60 },
            DiscoveryMode::E2E,
            StalenessMode::InvalidateOnMove,
        );
        let nack = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 60 },
            DiscoveryMode::E2E,
            StalenessMode::NackRediscover,
        );
        assert_eq!(nack.completed, 100);
        assert!(nack.nacks > 0, "stale unicasts must hit NACKs");
        assert!(
            nack.mean_us() > inv.mean_us(),
            "3-leg NACK path should cost more: {} vs {}",
            nack.mean_us(),
            inv.mean_us()
        );
    }

    #[test]
    fn gossip_arm_completes_staleness_sweep_without_broadcast() {
        // 90% moved under journal-synchronized discovery: migrations
        // gossip to the driver before the measured accesses, so every
        // stale unicast repairs from the local journal — zero broadcast
        // rediscoveries, and cheaper than the 3-leg NACK ablation.
        let gossip = run_discovery(&ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 90 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::InvalidateOnMove,
            accesses: 100,
            num_objects: 40,
            gossip: true,
            ..Default::default()
        });
        assert_eq!(gossip.completed, 100, "all accesses complete under gossip");
        assert_eq!(gossip.incomplete, 0);
        assert_eq!(gossip.broadcasts_per_100, 0.0, "journal repair replaces flood rediscovery");
        assert!(gossip.nacks > 0, "stale unicasts still hit the old holder first");

        let nack = quick(
            ScenarioKind::Fig3Staleness { pct_moved: 90 },
            DiscoveryMode::E2E,
            StalenessMode::NackRediscover,
        );
        assert!(
            gossip.mean_us() < nack.mean_us(),
            "2-leg journal repair beats the 3-leg NACK path: {} vs {}",
            gossip.mean_us(),
            nack.mean_us()
        );
    }

    #[test]
    fn gossip_arm_is_deterministic_in_the_seed() {
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 50 },
            mode: DiscoveryMode::E2E,
            accesses: 60,
            num_objects: 30,
            gossip: true,
            ..Default::default()
        };
        let a = run_discovery(&cfg);
        let b = run_discovery(&cfg);
        assert_eq!(a.rtt.samples(), b.rtt.samples());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn trace_asserts_stale_rediscovery_causal_chain() {
        // The F3 mid-sweep story, replayed event-by-event: a stale cached
        // location sends the unicast to the old holder, which NACKs; the
        // driver broadcasts a rediscovery, the new holder answers, and the
        // access finally reads — three full legs where a fresh access
        // takes one.
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 60 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::NackRediscover,
            accesses: 40,
            num_objects: 40,
            ..Default::default()
        };
        let traced = Observe {
            trace: Some(TraceSpec { capacity: DEFAULT_CAPACITY, sample: None }),
            ..Observe::default()
        };
        let out = run_discovery_observed(&cfg, traced);
        let trace = out.trace.as_ref().expect("tracing was requested");
        assert_eq!(out.completed, 40);
        assert_eq!(trace.records.len(), 40);

        let stale = trace
            .records
            .iter()
            .find(|r| r.nacks == 1 && r.broadcasts == 1)
            .expect("a stale access exists at 60% moved");
        trace.tracer.assert_chain(
            stale.trace_end.expect("span end recorded"),
            trace.driver,
            &[
                "timer.set",      // the externally scheduled access
                "timer.fire",     // ... dispatching on the driver
                "packet.enqueue", // leg 1: stale unicast ReadReq
                "packet.transmit",
                "packet.deliver", // ... answered Nack { NotHere }
                "packet.enqueue", // leg 2: broadcast DiscoverReq
                "packet.transmit",
                "packet.deliver", // ... answered DiscoverResp
                "packet.enqueue", // leg 3: ReadReq to the new holder
                "packet.transmit",
                "packet.deliver", // ... answered ReadResp (the data)
                "span.end",
            ],
        );

        // A fresh access is the same bracket around a single leg.
        let fresh = trace
            .records
            .iter()
            .find(|r| r.nacks == 0 && r.broadcasts == 0)
            .expect("a fresh access exists at 60% moved");
        trace.tracer.assert_chain(
            fresh.trace_end.expect("span end recorded"),
            trace.driver,
            &[
                "timer.set",
                "timer.fire",
                "packet.enqueue",
                "packet.transmit",
                "packet.deliver",
                "span.end",
            ],
        );

        // Every measured NACK left a `discovery.stale_nack` mark.
        let nack_marks = trace
            .tracer
            .iter()
            .filter(|(_, ev)| ev.kind.label() == Some("discovery.stale_nack"))
            .count() as u64;
        assert_eq!(nack_marks, out.nacks);

        // Tracing must observe, never perturb: the untraced run is
        // numerically identical.
        let base = run_discovery(&cfg);
        assert!(base.trace.is_none());
        assert_eq!(base.events, out.events);
        assert_eq!(base.rtt.samples(), out.rtt.samples());
    }

    /// Telemetry on the default cadence, with the live invariant monitor.
    fn metered() -> Observe {
        Observe { metrics: Some(MetricsConfig::default()), ..Observe::default() }
    }

    #[test]
    fn metrics_sample_discovery_gauges_without_perturbing() {
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 50 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::NackRediscover,
            accesses: 60,
            num_objects: 60,
            ..Default::default()
        };
        let out = run_discovery_observed(&cfg, metered());
        let set = out.metrics.as_ref().expect("metrics were requested");
        assert!(set.ticks() > 0, "sampler must have fired");
        assert!(
            set.violations().is_empty(),
            "invariant monitor stays green: {:?}",
            set.violations()
        );

        // The driver's destination cache and broadcast gauges exist and saw
        // real traffic: entries were cached, and the staleness sweep forced
        // rediscovery broadcasts.
        let entries = set.series_by_name("discovery.destcache_entries.h0").expect("gauge");
        assert!(entries.last().map_or(0, |(_, v)| v) > 0, "h0 cached holders");
        let rate = set.series_by_name("discovery.broadcast_rate.h0").expect("gauge");
        assert!(rate.points().any(|(_, v)| v > 0), "rediscovery broadcasts show in the rate");
        // The controller gauge is absent in E2E mode.
        assert!(set.series_by_name("discovery.directory_size.ctl").is_none());

        // Observation never perturbs the run.
        let base = run_discovery(&cfg);
        assert!(base.metrics.is_none());
        assert_eq!(base.events, out.events);
        assert_eq!(base.rtt.samples(), out.rtt.samples());
    }

    #[test]
    fn metrics_audit_controller_directory_against_declared_inboxes() {
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 50 },
            mode: DiscoveryMode::Controller,
            accesses: 40,
            num_objects: 40,
            ..Default::default()
        };
        let out = run_discovery_observed(&cfg, metered());
        let set = out.metrics.as_ref().expect("metrics were requested");
        assert!(
            set.violations().is_empty(),
            "directory holders ⊆ declared inboxes: {:?}",
            set.violations()
        );
        let dir = set.series_by_name("discovery.directory_size.ctl").expect("controller gauge");
        assert!(dir.last().map_or(0, |(_, v)| v) > 0, "controller learned holders");
    }

    #[test]
    fn determinism_same_seed_same_numbers() {
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig2NewObjects { pct_new: 30 },
            accesses: 50,
            num_objects: 20,
            ..Default::default()
        };
        let a = run_discovery(&cfg);
        let b = run_discovery(&cfg);
        assert_eq!(a.rtt.samples(), b.rtt.samples());
        assert_eq!(a.events, b.events);
    }
}
