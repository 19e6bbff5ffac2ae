//! `discovery_stale`: destination cache, broadcast rediscovery and
//! multi-hop p4rt flooding on the paper's 3-host / 4-switch testbed.
//!
//! F3's staleness plan in E2E mode with learning, flood-deduplicating
//! switches and gossip off: one host drives accesses over a pool of
//! objects, 30 % of the pool migrates between the two responders, and
//! every access to a migrated object hits a stale destination-cache entry,
//! is NACKed by the old holder and re-broadcast. The plan repeats in
//! rounds over a fixed pool (migrate 30 %, access every object once) so
//! the destination cache and the responders' stores stay at their
//! steady-state size however many ops a repetition runs; round one is
//! exactly `rdv_discovery::scenario::run_discovery`'s Figure 3 point, and
//! the equivalence test holds the two to the same counts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rdv_discovery::host::tags;
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode, StalenessMode};
use rdv_netsim::topo::wire_paper_testbed;
use rdv_netsim::{LinkSpec, NodeId, Sim, SimConfig, SimTime};
use rdv_objspace::{ObjId, ObjectKind};
use rdv_p4rt::capacity::SramBudget;
use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
use rdv_p4rt::table::{Action, MatchKind, Table};

use super::{
    engine_counts, jittered, switch_counts, Env, Outcome, Prepared, ReplayState, Workload,
};
use crate::tap::{node_ref, port_calls, Kind};

/// Testbed inboxes, as in `rdv_discovery::scenario`.
const H0_INBOX: ObjId = ObjId(0xA0);
const H1_INBOX: ObjId = ObjId(0xA1);
const H2_INBOX: ObjId = ObjId(0xA2);

/// Port of the host link on switches s0–s2: trunks are wired first and
/// take ports 0–2.
const SWITCH_HOST_PORT: usize = 3;

/// Shape of one staleness run.
#[derive(Debug, Clone, Copy)]
pub struct StaleSpec {
    /// Objects in the pool; each round accesses every one once.
    pub pool: usize,
    /// Rounds of migrate-then-access.
    pub rounds: usize,
    /// Percent of the pool migrated before each round's accesses.
    pub pct_moved: usize,
    /// Gap between consecutive accesses (open loop, one driver).
    pub access_gap: SimTime,
    /// How a stale cached location is discovered.
    pub staleness: StalenessMode,
    /// Every link of the testbed, host and trunk alike.
    pub link: LinkSpec,
}

/// The driver's schedule: what it accesses and when, and who migrates
/// what when.
pub struct StalePlan {
    /// The driver's access plan: `pool` warm-ups, then `rounds × pool`
    /// measured accesses.
    pub accesses: Vec<ObjId>,
    /// `(at, plan index)` per access.
    pub access_times: Vec<(SimTime, u64)>,
    /// Migration plans of the two responders: `(object, destination)`.
    pub migrations: [Vec<(ObjId, ObjId)>; 2],
    /// `(at, responder, migration index)`.
    pub migration_times: Vec<(SimTime, usize, u64)>,
    /// Warm-up accesses at the head of `accesses`.
    pub warmup: usize,
}

/// Create the pool on responder 1 and lay out the rounds. Round one draws
/// from `rng` in `run_discovery`'s order (pool ids, warm order, move order,
/// access order); later rounds keep drawing from the same stream.
pub fn plan(spec: &StaleSpec, rng: &mut StdRng, h1: &mut HostNode) -> StalePlan {
    let pool: Vec<ObjId> = (0..spec.pool)
        .map(|_| {
            let id = h1.store.create(rng, ObjectKind::Data);
            h1.store.get_mut(id).expect("just created").alloc(64).expect("room");
            id
        })
        .collect();
    // Which responder (0 = h1, 1 = h2) holds each object right now.
    let mut holder = vec![0usize; spec.pool];
    let inbox = [H1_INBOX, H2_INBOX];

    let mut out = StalePlan {
        accesses: Vec::with_capacity(spec.pool * (spec.rounds + 1)),
        access_times: Vec::with_capacity(spec.pool * (spec.rounds + 1)),
        migrations: [Vec::new(), Vec::new()],
        migration_times: Vec::new(),
        warmup: spec.pool,
    };
    let mut t = SimTime::from_micros(1000);
    let mut order: Vec<usize> = (0..spec.pool).collect();
    order.shuffle(rng);
    for &i in &order {
        out.access_times.push((t, out.accesses.len() as u64));
        out.accesses.push(pool[i]);
        t += spec.access_gap;
    }
    let moved = spec.pool * spec.pct_moved / 100;
    for _ in 0..spec.rounds {
        let mut move_order: Vec<usize> = (0..spec.pool).collect();
        move_order.shuffle(rng);
        if moved > 0 {
            t += SimTime::from_millis(1);
            for &i in &move_order[..moved] {
                let from = holder[i];
                let plan = &mut out.migrations[from];
                out.migration_times.push((t, from, plan.len() as u64));
                plan.push((pool[i], inbox[1 - from]));
                holder[i] = 1 - from;
                t += SimTime::from_micros(10);
            }
            t += SimTime::from_millis(1);
        }
        let mut access_order: Vec<usize> = (0..spec.pool).collect();
        access_order.shuffle(rng);
        for &i in &access_order {
            out.access_times.push((t, out.accesses.len() as u64));
            out.accesses.push(pool[i]);
            t += spec.access_gap;
        }
    }
    out
}

fn objroute_pipeline() -> Pipeline {
    let mut pl = Pipeline::new(objnet_format(), Action::Flood);
    pl.add_table(Table::new(
        "objroute",
        vec![OBJNET_DST_OBJ],
        MatchKind::Exact,
        128,
        SramBudget::tofino(),
    ));
    pl
}

/// A built staleness run.
pub struct StaleRun {
    spec: StaleSpec,
    sim: Sim,
    driver: NodeId,
    responders: [NodeId; 2],
    switches: [NodeId; 4],
    warmup: usize,
    planned: usize,
}

/// Generate the plan for `seed` and build the testbed around it.
pub fn build(spec: &StaleSpec, seed: u64, env: &Env) -> StaleRun {
    let host_cfg =
        HostConfig { mode: DiscoveryMode::E2E, staleness: spec.staleness, ..HostConfig::default() };
    let mut h0 = HostNode::new("h0", H0_INBOX, host_cfg);
    let mut h1 = HostNode::new("h1", H1_INBOX, host_cfg);
    let mut h2 = HostNode::new("h2", H2_INBOX, host_cfg);
    let plan = env.phases.phase("setup.generate", || {
        let mut rng = StdRng::seed_from_u64(seed);
        plan(spec, &mut rng, &mut h1)
    });
    env.phases.phase("setup.build", || {
        let [m1, m2] = plan.migrations;
        h0.plan = plan.accesses;
        h1.migrations = m1;
        h2.migrations = m2;
        let planned = h0.plan.len();

        let mut sim = Sim::new(SimConfig { seed, shards: env.shards, ..Default::default() });
        let driver = sim.add_node(env.wrap.node(Kind::Host, h0));
        let r1 = sim.add_node(env.wrap.node(Kind::Host, h1));
        let r2 = sim.add_node(env.wrap.node(Kind::Host, h2));
        let switch_cfg =
            SwitchConfig { learn_src_routes: true, dedup_floods: true, ..Default::default() };
        let switches: [NodeId; 4] = std::array::from_fn(|i| {
            sim.add_node(env.wrap.node(
                Kind::Switch,
                SwitchNode::new(format!("s{i}"), objroute_pipeline(), switch_cfg),
            ))
        });
        wire_paper_testbed(&mut sim, [driver, r1, r2], switches, spec.link, spec.link);
        env.arm_tracing(&mut sim);

        sim.schedule_batch(plan.access_times.iter().map(|&(at, i)| (at, driver, i)));
        let responders = [r1, r2];
        sim.schedule_batch(
            plan.migration_times
                .iter()
                .map(|&(at, who, m)| (at, responders[who], tags::MIGRATE | m)),
        );
        StaleRun { spec: *spec, sim, driver, responders, switches, warmup: plan.warmup, planned }
    })
}

impl StaleRun {
    /// `(completed, broadcasts, nacks, latency sum ns)` over the measured
    /// accesses, and the engine's event count — what `run_discovery`
    /// reports.
    pub fn summary(&self) -> (usize, u64, u64, u64, u64) {
        let driver = node_ref::<HostNode>(&self.sim, self.driver);
        let measured = &driver.records[self.warmup.min(driver.records.len())..];
        (
            measured.len(),
            measured.iter().map(|r| r.broadcasts).sum(),
            measured.iter().map(|r| r.nacks).sum(),
            measured.iter().map(|r| r.latency().as_nanos()).sum(),
            self.sim.counters.get("sim.events"),
        )
    }
}

impl Prepared for StaleRun {
    fn run(&mut self) {
        self.sim.run_until_idle();
    }

    fn collect(&mut self) -> Outcome {
        let driver = node_ref::<HostNode>(&self.sim, self.driver);
        // Warm-up accesses complete before the first measured access is
        // issued, so the first `warmup` records are exactly the warm-ups.
        let measured = &driver.records[self.warmup.min(driver.records.len())..];
        let mut out = Outcome {
            attempted: (self.planned - self.warmup) as u64,
            completed: measured.len() as u64,
            failed: driver.failed.len() as u64,
            ..Outcome::default()
        };
        let (mut first, mut last) = (u64::MAX, 0u64);
        for r in measured {
            out.latencies_ns.push(r.latency().as_nanos());
            out.add("discovery.broadcasts", r.broadcasts);
            out.add("discovery.nacks", r.nacks);
            first = first.min(r.issued.as_nanos());
            last = last.max(r.completed.as_nanos());
        }
        out.sim_span_ns = last.saturating_sub(first.min(last));
        out.add("discovery.destcache_hits", driver.dest_cache.hits);
        out.add("discovery.destcache_misses", driver.dest_cache.misses);
        out.add("discovery.access_timeouts", driver.counters.get("access_timeouts"));
        out.add("discovery.abandoned", driver.counters.get("accesses_abandoned"));
        for (i, &sw) in self.switches.iter().enumerate() {
            switch_counts(&self.sim, sw, &mut out);
            if i < 3 {
                // Packets a host put on the wire: one `Msg::encode` each.
                let by_port = port_calls::<SwitchNode>(&self.sim, sw);
                out.add("wire.host_packets", by_port.map_or(0, |p| p[SWITCH_HOST_PORT]));
            }
        }
        engine_counts(&self.sim, &mut out);
        out
    }

    fn check(&mut self, outcome: &Outcome) -> Result<(), String> {
        let driver = node_ref::<HostNode>(&self.sim, self.driver);
        if driver.outstanding() != 0 {
            return Err(format!("{} accesses wedged", driver.outstanding()));
        }
        let moved = self.spec.pool * self.spec.pct_moved / 100;
        let stale = (moved * self.spec.rounds) as u64;
        let migrated: u64 = self
            .responders
            .iter()
            .map(|&r| node_ref::<HostNode>(&self.sim, r).counters.get("migrations_done"))
            .sum();
        if migrated != stale {
            return Err(format!("{migrated} migrations ran, plan has {stale}"));
        }
        if self.spec.staleness == StalenessMode::NackRediscover {
            // Every access to an object migrated this round is NACKed once
            // and re-broadcast once; every other access is one unicast.
            let (nacks, broadcasts) =
                (outcome.count("discovery.nacks"), outcome.count("discovery.broadcasts"));
            if nacks != stale || broadcasts != stale {
                return Err(format!(
                    "{nacks} NACKs and {broadcasts} broadcasts for {stale} stale accesses"
                ));
            }
        }
        Ok(())
    }

    fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn replay_state(&mut self) -> ReplayState {
        let link = self.spec.link;
        let driver = node_ref::<HostNode>(&self.sim, self.driver);
        let dest_entries = driver.plan[..self.warmup]
            .iter()
            .filter_map(|&o| Some((o, driver.dest_cache.peek(o)?)));
        ReplayState {
            pipeline: Some(node_ref::<SwitchNode>(&self.sim, self.switches[0]).pipeline.clone()),
            dest_entries: dest_entries.collect(),
            queue_prefill_ns: (0..self.planned as u64)
                .map(|i| 1_000_000 + i * self.spec.access_gap.as_nanos())
                .collect(),
            queue_delays_ns: vec![
                (link.latency + link.tx_time(64)).as_nanos(),
                SwitchConfig::default().pipeline_latency.as_nanos(),
                HostConfig::default().serve_delay.as_nanos(),
            ],
            ..ReplayState::default()
        }
    }
}

/// The `discovery_stale` workload.
pub struct DiscoveryStale;

impl DiscoveryStale {
    /// 2 048 objects, 30 % migrated per round, accesses 100 µs apart.
    pub fn spec(seed: u64, env: &Env) -> StaleSpec {
        StaleSpec {
            pool: 2048,
            rounds: env.scaled(60, 2) as usize,
            pct_moved: 30,
            access_gap: SimTime::from_micros(100),
            staleness: StalenessMode::NackRediscover,
            link: jittered(LinkSpec::rack(), seed),
        }
    }
}

impl Workload for DiscoveryStale {
    fn name(&self) -> &'static str {
        "discovery_stale"
    }

    fn why(&self) -> &'static str {
        "paper testbed with 30 % of objects migrated: stale destination-cache hits NACK and re-broadcast, so destcache, rediscovery and multi-hop p4rt flooding do the work"
    }

    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared> {
        Box::new(build(&DiscoveryStale::spec(seed, env), seed, env))
    }
}
