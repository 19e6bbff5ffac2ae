//! `replog_blip` and `gossip_256`: the replicated-log load plane on the
//! object-routed star, with a fault blip or a background gossip plane.
//!
//! The composition follows `rdv_load::LoadRun` step for step (open-loop
//! schedule → writer batches → `discovery::HostNode` writers and log-head
//! holders behind one p4rt switch → `Sim::schedule_batch`), built here
//! from the public pieces so the switch and hosts can be boxed in taps;
//! the equivalence test holds the two to the same completions, failures
//! and `sim.*` counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdv_discovery::hier::plan_gossip_peers;
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode};
use rdv_gossip::GossipConfig;
use rdv_load::{
    replog, Arrival, ArrivalSchedule, Batch, Blip, LoadCurve, OpenLoopSpec, ReplogSpec,
};
use rdv_netsim::{Counters, FaultPlan, LinkSpec, Node, NodeId, Sim, SimConfig, SimTime};
use rdv_objspace::{ObjId, ObjectKind};
use rdv_p4rt::capacity::SramBudget;
use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
use rdv_p4rt::table::{Action, MatchKind, Table, TableEntry};

use super::{
    engine_counts, jittered, switch_counts, Env, Outcome, Prepared, ReplayState, Workload,
};
use crate::tap::{node_ref, port_calls, Kind};

/// Gossip neighbourhood size: hosts are peered in regions of this many.
const GOSSIP_REGION: usize = 64;

/// Big-buffer rack link, as `rdv_core::scenarios::host_link_rack`.
pub fn host_link_rack() -> LinkSpec {
    LinkSpec { queue_bytes: 1 << 32, ..LinkSpec::rack() }
}

/// Build a star: `nodes[i]` (with its inbox and link) on switch port `i`,
/// inbox routes plus `obj_routes` (object → host index) pre-installed —
/// `rdv_core::scenarios::build_star_fabric_sharded` with the switch boxed
/// by `env.wrap` like every other node. Returns the hosts' ids and the
/// switch's.
pub fn star(
    seed: u64,
    env: &Env,
    nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)>,
    obj_routes: &[(ObjId, usize)],
) -> (Sim, Vec<NodeId>, NodeId) {
    let mut sim = Sim::new(SimConfig { seed, shards: env.shards, ..Default::default() });
    let mut pl = Pipeline::new(objnet_format(), Action::Drop);
    pl.add_table(Table::new(
        "objroute",
        vec![OBJNET_DST_OBJ],
        MatchKind::Exact,
        128,
        SramBudget::tofino(),
    ));
    let table = pl.table_mut(0).expect("table 0");
    for (i, (_, inbox, _)) in nodes.iter().enumerate() {
        table
            .insert(TableEntry::Exact { key: vec![inbox.as_u128()] }, Action::Forward(i))
            .expect("route capacity");
    }
    for &(obj, host) in obj_routes {
        table
            .insert(TableEntry::Exact { key: vec![obj.as_u128()] }, Action::Forward(host))
            .expect("route capacity");
    }
    let mut ids = Vec::with_capacity(nodes.len());
    let mut links = Vec::with_capacity(nodes.len());
    for (node, _, link) in nodes {
        ids.push(sim.add_node(node));
        links.push(link);
    }
    let switch = sim
        .add_node(env.wrap.node(Kind::Switch, SwitchNode::new("s0", pl, SwitchConfig::default())));
    for (id, link) in ids.iter().zip(links) {
        // Hosts connect in order, so switch port i leads to host i.
        sim.connect(*id, switch, link);
    }
    env.arm_tracing(&mut sim);
    (sim, ids, switch)
}

/// Everything that shapes one replicated-log run besides the seed.
#[derive(Debug, Clone)]
pub struct ReplogParams {
    /// The open-loop arrival process.
    pub open: OpenLoopSpec,
    /// Writers, heads, entry size, batching window.
    pub replog: ReplogSpec,
    /// Log-head holder hosts (heads spread modulo).
    pub holders: usize,
    /// Passive hosts behind the switch; they only gossip.
    pub bystanders: usize,
    /// Anti-entropy period of a gossip plane across every host, if any.
    pub gossip_period: Option<SimTime>,
    /// Fixed service delay at each holder.
    pub serve_delay: SimTime,
    /// Writer-side access watchdog window.
    pub access_timeout: SimTime,
    /// Watchdog re-sends before an access fails typed.
    pub max_access_retries: u32,
    /// Partition + crash window, if any.
    pub blip: Option<Blip>,
    /// The link between every host and the switch.
    pub link: LinkSpec,
}

/// The generated inputs of a run.
pub struct ReplogInputs {
    /// The arrival schedule.
    pub schedule: ArrivalSchedule,
    /// The writer batches folded from it, sorted by `(at, writer, head)`.
    pub batches: Vec<Batch>,
}

/// A built replicated-log run.
pub struct ReplogRun {
    params: ReplogParams,
    sim: Sim,
    ids: Vec<NodeId>,
    switch: NodeId,
    /// Batch issue times, ascending (the schedule the writers must keep).
    scheduled_ns: Vec<u64>,
    /// Ops are gossip rounds (`gossip_256`) instead of batches.
    ops_are_rounds: bool,
    horizon: Option<SimTime>,
    arrivals: usize,
    /// Heap bytes the generated schedule and batches occupy.
    input_bytes: u64,
    /// Share of batches the blip must delay past one watchdog window.
    blip_tail: Option<std::ops::Range<f64>>,
}

/// Generate the schedule and fold it into batches.
pub fn generate(params: &ReplogParams, seed: u64, env: &Env) -> ReplogInputs {
    let schedule =
        env.phases.phase("setup.generate", || ArrivalSchedule::generate(&params.open, seed));
    let batches = env.phases.phase("setup.batch", || replog::batches(&schedule, &params.replog));
    ReplogInputs { schedule, batches }
}

/// Create the hosts and log heads, wire the star, install the blip and
/// the batch schedule.
pub fn build(
    params: &ReplogParams,
    inputs: &ReplogInputs,
    seed: u64,
    env: &Env,
    ops_are_rounds: bool,
) -> ReplogRun {
    assert!(params.holders >= 1, "need at least one holder");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD);
    let replog = &params.replog;
    let writers = replog.writers as usize;
    let host_cfg = HostConfig {
        mode: DiscoveryMode::Controller,
        read_len: u64::from(replog.entry_bytes).max(1),
        serve_delay: params.serve_delay,
        access_timeout: params.access_timeout,
        max_access_retries: params.max_access_retries,
        ..HostConfig::default()
    };
    let link = params.link;
    let writer_inbox = |w: usize| ObjId(0x10AD_0000 + w as u128);
    let holder_inbox = |h: usize| ObjId(0x10AD_8000 + h as u128);
    let bystander_inbox = |b: usize| ObjId(0x10AD_A000 + b as u128);

    // Writers take fabric positions 0..writers, holders follow, bystanders
    // last; position is the switch port.
    let mut writer_nodes: Vec<HostNode> = (0..writers)
        .map(|w| {
            let mut n = HostNode::new(format!("w{w}"), writer_inbox(w), host_cfg);
            n.load_spans = true;
            n
        })
        .collect();
    let mut holder_nodes: Vec<HostNode> = (0..params.holders)
        .map(|h| HostNode::new(format!("lh{h}"), holder_inbox(h), host_cfg))
        .collect();
    let mut bystander_nodes: Vec<HostNode> = (0..params.bystanders)
        .map(|b| HostNode::new(format!("x{b}"), bystander_inbox(b), host_cfg))
        .collect();

    let mut obj_routes = Vec::new();
    let mut head_objs = Vec::with_capacity(replog.heads as usize);
    let payload = u64::from(replog.entry_bytes).max(64) * 2;
    for head in 0..replog.heads as usize {
        let holder_idx = head % params.holders;
        let store = &mut holder_nodes[holder_idx].store;
        let obj = store.create(&mut rng, ObjectKind::Data);
        let object = store.get_mut(obj).expect("just created");
        let off = object.alloc(payload).expect("fresh object has room");
        object.write_u64(off, head as u64).expect("in bounds");
        obj_routes.push((obj, writers + holder_idx));
        head_objs.push(obj);
    }

    // Batch order is canonical (at, writer, head); plan indices and timer
    // tags follow it, so issue order is schedule order.
    let mut timers: Vec<(SimTime, usize, u64)> = Vec::with_capacity(inputs.batches.len());
    for b in &inputs.batches {
        let w = b.writer as usize;
        let tag = writer_nodes[w].plan.len() as u64;
        writer_nodes[w].plan.push(head_objs[b.head as usize]);
        timers.push((b.at, w, tag));
    }

    if let Some(period) = params.gossip_period {
        let cfg = GossipConfig { period, ..GossipConfig::default() };
        let mut all: Vec<&mut HostNode> = writer_nodes
            .iter_mut()
            .chain(holder_nodes.iter_mut())
            .chain(bystander_nodes.iter_mut())
            .collect();
        let inboxes: Vec<ObjId> = all.iter().map(|n| n.inbox()).collect();
        let regions: Vec<Vec<ObjId>> = inboxes.chunks(GOSSIP_REGION).map(<[_]>::to_vec).collect();
        for (i, plan) in plan_gossip_peers(&regions).iter().enumerate() {
            all[i].enable_gossip(i as u64 + 1, cfg);
            for &(peer, relay) in &plan.peers {
                all[i].add_gossip_peer(peer, relay);
            }
        }
    }

    let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
    for (w, node) in writer_nodes.into_iter().enumerate() {
        nodes.push((env.wrap.node(Kind::Host, node), writer_inbox(w), link));
    }
    for (h, node) in holder_nodes.into_iter().enumerate() {
        nodes.push((env.wrap.node(Kind::Host, node), holder_inbox(h), link));
    }
    for (b, node) in bystander_nodes.into_iter().enumerate() {
        nodes.push((env.wrap.node(Kind::Host, node), bystander_inbox(b), link));
    }
    let (mut sim, ids, switch) = star(seed, env, nodes, &obj_routes);

    if let Some(blip) = &params.blip {
        let until = blip.at + blip.dur;
        let mut plan = FaultPlan::new();
        if let Some(p) = blip.partition_holder {
            plan = plan.partition(blip.at, until, &[switch], &[ids[writers + p]]);
        }
        if let Some(c) = blip.crash_holder {
            plan = plan.crash(blip.at, ids[writers + c]).restart(until, ids[writers + c]);
        }
        sim.install_fault_plan(&plan);
    }

    sim.schedule_batch(timers.iter().map(|&(at, w, tag)| (at, ids[w], tag)));

    // A gossip plane re-arms its round timer forever, so the sim never
    // goes idle: run to a horizon past the last batch's full watchdog
    // patience and the blip's heal.
    let horizon = params.gossip_period.map(|_| {
        let last = timers.iter().map(|&(at, _, _)| at.as_nanos()).max().unwrap_or(0);
        let heal = params.blip.as_ref().map_or(0, |b| (b.at + b.dur).as_nanos());
        let patience =
            params.access_timeout.as_nanos() * (u64::from(params.max_access_retries) + 2);
        SimTime::from_nanos(last.max(heal) + patience)
    });

    ReplogRun {
        params: params.clone(),
        sim,
        ids,
        switch,
        scheduled_ns: timers.iter().map(|&(at, _, _)| at.as_nanos()).collect(),
        ops_are_rounds,
        horizon,
        arrivals: inputs.schedule.arrivals.len(),
        input_bytes: (inputs.schedule.arrivals.capacity() * std::mem::size_of::<Arrival>()
            + inputs.batches.capacity() * std::mem::size_of::<Batch>()) as u64,
        blip_tail: None,
    }
}

impl ReplogRun {
    /// Have `check` require that the blip delays a share of the batches in
    /// `want` past one watchdog window — enough to own the 99.9th
    /// percentile, too few to reach the 99th.
    pub fn require_blip_tail(mut self, want: std::ops::Range<f64>) -> ReplogRun {
        self.blip_tail = Some(want);
        self
    }

    fn writers(&self) -> usize {
        self.params.replog.writers as usize
    }

    fn hosts(&self) -> usize {
        self.ids.len()
    }

    /// `(completed_at_ns, latency_ns)` per completed batch, sorted — the
    /// canonical completion list `rdv_load::LoadRun` reports.
    pub fn completions(&self) -> Vec<(u64, u64)> {
        let mut done: Vec<(u64, u64, u64)> = Vec::new();
        for &id in &self.ids[..self.writers()] {
            let host = node_ref::<HostNode>(&self.sim, id);
            done.extend(
                host.records
                    .iter()
                    .map(|r| (r.completed.as_nanos(), r.issued.as_nanos(), r.latency().as_nanos())),
            );
        }
        done.sort_unstable();
        done.into_iter().map(|(at, _, lat)| (at, lat)).collect()
    }

    /// Every host's counters merged with the engine's.
    pub fn counters(&self) -> Counters {
        let mut counters = Counters::new();
        for &id in &self.ids {
            counters.merge(&node_ref::<HostNode>(&self.sim, id).counters);
        }
        counters.merge(&self.sim.counters);
        counters
    }

    /// Rounds every gossiping host must have run by the horizon.
    fn expected_rounds(&self) -> u64 {
        match (self.params.gossip_period, self.horizon) {
            (Some(period), Some(horizon)) => {
                self.hosts() as u64 * (horizon.as_nanos() / period.as_nanos())
            }
            _ => 0,
        }
    }
}

impl Prepared for ReplogRun {
    fn run(&mut self) {
        match self.horizon {
            Some(h) => self.sim.run_until(h),
            None => self.sim.run_until_idle(),
        };
    }

    fn collect(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let mut first_issue = u64::MAX;
        let mut last_done = 0u64;
        let (mut completed, mut failed, mut wedged) = (0u64, 0u64, 0u64);
        for &id in &self.ids[..self.writers()] {
            let host = node_ref::<HostNode>(&self.sim, id);
            for r in &host.records {
                out.latencies_ns.push(r.latency().as_nanos());
                first_issue = first_issue.min(r.issued.as_nanos());
                last_done = last_done.max(r.completed.as_nanos());
            }
            completed += host.records.len() as u64;
            failed += host.failed.len() as u64;
            wedged += host.outstanding() as u64;
        }
        let counters = self.counters();
        for (key, name) in [
            ("discovery.access_timeouts", "access_timeouts"),
            ("discovery.abandoned", "accesses_abandoned"),
            ("discovery.broadcasts", "broadcasts"),
            ("discovery.nacks", "nacks_received"),
            ("discovery.serves", "serves"),
            ("gossip.rounds", "gossip.rounds"),
            ("gossip.digests_sent", "gossip.digests_sent"),
            ("gossip.deltas_sent", "gossip.deltas_sent"),
            ("gossip.entries_applied", "gossip.entries_applied"),
            ("gossip.repair_hits", "gossip.repair_hits"),
        ] {
            out.add(key, counters.get(name));
        }
        out.add("load.arrivals", self.arrivals as u64);
        out.add("load.input_bytes", self.input_bytes);
        out.add("load.batches", self.scheduled_ns.len() as u64);
        out.add("load.completions", completed);
        let by_port = port_calls::<SwitchNode>(&self.sim, self.switch);
        out.add("wire.host_packets", by_port.map_or(0, |p| p.iter().sum()));
        switch_counts(&self.sim, self.switch, &mut out);
        engine_counts(&self.sim, &mut out);
        if self.ops_are_rounds {
            // The op is one anti-entropy round at one host; the latency
            // samples are the foreground batches the plane must not
            // disturb, and a foreground batch that fails counts against
            // the run.
            let rounds = out.count("gossip.rounds");
            out.attempted = rounds + failed + wedged;
            out.completed = rounds;
            out.failed = failed;
            out.sim_span_ns = self.sim.now().as_nanos();
        } else {
            out.attempted = self.scheduled_ns.len() as u64;
            out.completed = completed;
            out.failed = failed;
            out.sim_span_ns = last_done.saturating_sub(first_issue.min(last_done));
        }
        out
    }

    fn check(&mut self, outcome: &Outcome) -> Result<(), String> {
        // Open loop: every batch was issued exactly when the schedule said
        // (generator lateness 0), whether it completed or failed.
        let mut issued: Vec<u64> = Vec::with_capacity(self.scheduled_ns.len());
        for &id in &self.ids[..self.writers()] {
            let host = node_ref::<HostNode>(&self.sim, id);
            if host.records.len() + host.failed.len() + host.outstanding() != host.plan.len() {
                return Err(format!(
                    "{}: a batch is neither done, failed nor pending",
                    host.name()
                ));
            }
            if host.outstanding() != 0 {
                return Err(format!("{}: {} batches wedged", host.name(), host.outstanding()));
            }
            issued.extend(host.records.iter().map(|r| r.issued.as_nanos()));
            issued.extend(host.failed.iter().map(|f| f.issued.as_nanos()));
        }
        issued.sort_unstable();
        let mut scheduled = self.scheduled_ns.clone();
        scheduled.sort_unstable();
        if issued != scheduled {
            return Err("batch issue times differ from the open-loop schedule".into());
        }
        if let Some(want) = &self.blip_tail {
            // The blip must be felt by the tail only.
            if outcome.count("discovery.access_timeouts") == 0 {
                return Err("the blip forced no watchdog re-send".into());
            }
            let slow = outcome
                .latencies_ns
                .iter()
                .filter(|&&l| l >= self.params.access_timeout.as_nanos())
                .count() as f64
                / scheduled.len() as f64;
            if !want.contains(&slow) {
                return Err(format!(
                    "the blip delayed {:.3} % of batches, want {:.1}–{:.1} %",
                    slow * 100.0,
                    want.start * 100.0,
                    want.end * 100.0
                ));
            }
        }
        // A crashed host loses its round timer until it restarts, so the
        // closed form holds on blip-free planes only.
        if self.ops_are_rounds
            && self.params.blip.is_none()
            && outcome.completed != self.expected_rounds()
        {
            return Err(format!(
                "{} gossip rounds ran, closed form says {}",
                outcome.completed,
                self.expected_rounds()
            ));
        }
        Ok(())
    }

    fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn replay_state(&mut self) -> ReplayState {
        let link = self.params.link;
        let switch = node_ref::<SwitchNode>(&self.sim, self.switch);
        let mut state = ReplayState {
            pipeline: Some(switch.pipeline.clone()),
            queue_prefill_ns: self.scheduled_ns.clone(),
            queue_delays_ns: vec![
                (link.latency + link.tx_time(96)).as_nanos(),
                SwitchConfig::default().pipeline_latency.as_nanos(),
                self.params.serve_delay.as_nanos(),
                self.params.access_timeout.as_nanos(),
            ],
            load: Some(LoadReplay {
                offered_ns: self.scheduled_ns.clone(),
                completions: self.completions(),
            }),
            ..ReplayState::default()
        };
        if let Some(period) = self.params.gossip_period {
            state.queue_delays_ns.push(period.as_nanos());
            state.queue_resident = self.hosts();
            let bystander = node_ref::<HostNode>(&self.sim, self.ids[self.hosts() - 1]);
            state.journal = bystander.gossip.as_ref().map(|g| g.journal.clone());
        }
        state
    }
}

/// Inputs of the `load.*` replays.
pub struct LoadReplay {
    /// Batch issue times, ns.
    pub offered_ns: Vec<u64>,
    /// `(completed_at_ns, latency_ns)` per completed batch.
    pub completions: Vec<(u64, u64)>,
}

fn open_spec(rate_per_s: u64, duration: SimTime, heads: u32) -> OpenLoopSpec {
    OpenLoopSpec {
        clients: 1_000_000,
        objects: heads,
        zipf_skew_permille: 900,
        base_rate_per_s: rate_per_s,
        start: SimTime::from_micros(10),
        duration,
        curve: LoadCurve::flat(),
        churn: None,
    }
}

/// The `replog_blip` workload.
pub struct ReplogBlip;

impl ReplogBlip {
    /// F6's shape stretched: million-client id space, Zipf 900 ‰ over 64
    /// log heads, 8 writers and 6 holders, a flat 2.5 M arrivals/s (each
    /// holder link stays under 1 % busy), and one partition + crash blip
    /// of 1.5 % of the window — shorter than the 9 ms watchdog patience —
    /// against two of the six holders.
    pub fn params(seed: u64, env: &Env) -> ReplogParams {
        let duration = SimTime::from_micros(env.scaled(250_000, 5_000));
        let blip_dur = SimTime::from_nanos(duration.as_nanos() * 15 / 1000);
        ReplogParams {
            open: open_spec(2_500_000, duration, 64),
            replog: ReplogSpec {
                writers: 8,
                heads: 64,
                entry_bytes: 64,
                batch_window: SimTime::from_micros(20),
            },
            holders: 6,
            bystanders: 0,
            gossip_period: None,
            serve_delay: SimTime::from_micros(2),
            access_timeout: SimTime::from_millis(1),
            max_access_retries: 8,
            blip: Some(Blip {
                at: SimTime::from_nanos(duration.as_nanos() * 2 / 5),
                dur: blip_dur,
                partition_holder: Some(1),
                crash_holder: Some(2),
            }),
            link: jittered(host_link_rack(), seed),
        }
    }
}

impl Workload for ReplogBlip {
    fn name(&self) -> &'static str {
        "replog_blip"
    }

    fn why(&self) -> &'static str {
        "open-loop million-client replicated log through one fault blip: load generation dominates set-up, discovery+p4rt+wire on 64 B messages the run, watchdog re-sends the tail"
    }

    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared> {
        let params = ReplogBlip::params(seed, env);
        let inputs = generate(&params, seed, env);
        let run = env.phases.phase("setup.build", || build(&params, &inputs, seed, env, false));
        Box::new(run.require_blip_tail(0.003..0.01))
    }
}

/// The `gossip_256` workload.
pub struct Gossip256;

impl Gossip256 {
    /// The same star with 1 000 bystanders, every host gossiping in
    /// regions of 64 every 100 µs, under a light foreground log stream.
    pub fn params(seed: u64, env: &Env) -> ReplogParams {
        let duration = SimTime::from_micros(env.scaled(8_000, 2_000));
        ReplogParams {
            open: open_spec(3_200_000, duration, 64),
            bystanders: 242,
            gossip_period: Some(SimTime::from_micros(100)),
            access_timeout: SimTime::from_micros(200),
            blip: None,
            ..ReplogBlip::params(seed, env)
        }
    }
}

impl Workload for Gossip256 {
    fn name(&self) -> &'static str {
        "gossip_256"
    }

    fn why(&self) -> &'static str {
        "1014 hosts in anti-entropy every 100 us under a light log stream: journal digest/delta/apply does the work here and none elsewhere"
    }

    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared> {
        let params = Gossip256::params(seed, env);
        let inputs = generate(&params, seed, env);
        Box::new(env.phases.phase("setup.build", || build(&params, &inputs, seed, env, true)))
    }
}
