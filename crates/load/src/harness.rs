//! Run a replicated-log workload against the rendezvous star fabric.
//!
//! The harness glues the pieces together: materialize an open-loop
//! [`ArrivalSchedule`], fold it into writer [`Batch`]es, stand up a star
//! fabric (writer front-ends + log-head holders behind the object-routed
//! switch), install an optional fault [`Blip`], drive every batch through
//! `Sim::schedule_batch` (open loop: issue times come from the schedule,
//! never from completions), and distill the outcome into SLO series, a
//! `load.*` counter tally, and a canonical fingerprint the chaos soak can
//! compare across shard counts.

use crate::arrivals::{ArrivalSchedule, OpenLoopSpec};
use crate::replog::{batches, ReplogSpec};
use crate::slo::SloSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdv_core::scenarios::{build_star_fabric_observed, host_link_rack};
use rdv_discovery::hier::plan_gossip_peers;
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode};
use rdv_gossip::GossipConfig;
use rdv_metrics::{MetricSet, MetricsConfig};
use rdv_netsim::{Counters, FaultPlan, LinkSpec, Node, NodeId, Observe, SimTime};
use rdv_objspace::{ObjId, ObjectKind};
use rdv_trace::{EventId, Tracer};

/// Gossip neighbourhood size for the background plane: hosts are grouped
/// into rack-sized regions of this many and peered via
/// [`plan_gossip_peers`] (in-region ring + head chain), so every host has
/// O(1) peers regardless of fabric size.
const GOSSIP_REGION: usize = 64;

/// Fabric shape and service parameters for a load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadFabricSpec {
    /// Log-head holder hosts behind the switch (heads spread modulo).
    pub holders: usize,
    /// Engine shard count (0 inherits the process default).
    pub shards: usize,
    /// Random loss on every host link, permille.
    pub link_loss_permille: u16,
    /// Fixed service delay at each holder.
    pub serve_delay: SimTime,
    /// Writer-side access watchdog window.
    pub access_timeout: SimTime,
    /// Watchdog re-sends before an access surfaces a typed failure.
    pub max_access_retries: u32,
    /// SLO window length for the derived series.
    pub slo_interval: SimTime,
    /// Passive hosts attached behind the switch after the holders. They
    /// hold no log heads and serve no batches, but they join the gossip
    /// plane when one is configured — the F8 scale rows use them to grow
    /// the fabric to 1 k/10 k/100 k hosts with real background traffic.
    pub bystanders: usize,
    /// Anti-entropy period for a background gossip plane across every
    /// host (writers, holders, bystanders), peered in rack-sized regions.
    /// `None` (the default) runs no gossip and changes nothing.
    pub gossip_period: Option<SimTime>,
}

impl LoadFabricSpec {
    /// A small healthy fabric: 3 holders, lossless rack links, 2 µs
    /// service, 200 µs watchdog, 50 µs SLO windows.
    pub fn small() -> LoadFabricSpec {
        LoadFabricSpec {
            holders: 3,
            shards: 0,
            link_loss_permille: 0,
            serve_delay: SimTime::from_micros(2),
            access_timeout: SimTime::from_micros(200),
            max_access_retries: 8,
            slo_interval: SimTime::from_micros(50),
            bystanders: 0,
            gossip_period: None,
        }
    }
}

/// A fault window injected mid-load: partition one holder off the switch
/// and/or crash-restart another for the window's duration.
#[derive(Debug, Clone, Copy)]
pub struct Blip {
    /// Window start.
    pub at: SimTime,
    /// Window length (partition heals and crashed node restarts at
    /// `at + dur`).
    pub dur: SimTime,
    /// Holder index to partition off the switch, if any.
    pub partition_holder: Option<usize>,
    /// Holder index to crash-stop and restart, if any.
    pub crash_holder: Option<usize>,
}

/// Outcome of one load run.
#[derive(Debug)]
pub struct LoadRun {
    /// Batches the schedule offered to the fabric.
    pub scheduled_batches: usize,
    /// `(completed_at_ns, latency_ns)` per completed batch, sorted by
    /// `(completed, issued)` — canonical across shard counts.
    pub completions: Vec<(u64, u64)>,
    /// Entries carried by completed batches.
    pub completed_entries: u64,
    /// Issue times (ns) of every batch access, completed or failed,
    /// ascending — the open-loop saturation test diffs these across
    /// service-latency settings.
    pub issued_ns: Vec<u64>,
    /// Batch accesses that gave up with a typed failure.
    pub failed: usize,
    /// Aggregate counters: `load.*` tallies merged with every host's
    /// counters and the engine's deterministic counters.
    pub counters: Counters,
    /// Final sim clock, nanoseconds.
    pub clock_ns: u64,
    /// Windowed SLO series (offered/goodput in batches per second).
    pub slo: SloSeries,
    /// The telemetry plane, with the SLO gauges emitted, when observed.
    pub metrics: Option<MetricSet>,
    /// `(completed_at_ns, latency_ns, span_end)` per completed batch whose
    /// `load.batch` span was kept by the sampler, sorted by completion —
    /// the join input for critical-path tail attribution (F8).
    pub traced_batches: Vec<(u64, u64, EventId)>,
    /// The trace ring, when tracing was observed.
    pub tracer: Option<Tracer>,
}

impl LoadRun {
    /// [`LoadRun::observed`] with at most the default telemetry plane.
    /// Kept with this signature for rdvperf, whose sources change only in
    /// `[benchmark]` PRs; ROADMAP item 1's PR retires it.
    pub fn execute(
        fabric: &LoadFabricSpec,
        open: &OpenLoopSpec,
        replog: &ReplogSpec,
        blip: Option<&Blip>,
        seed: u64,
        metrics: bool,
    ) -> LoadRun {
        let metrics = metrics.then(MetricsConfig::default);
        Self::observed(fabric, open, replog, blip, seed, Observe { metrics, ..Observe::default() })
    }

    /// Execute the workload with `observe` armed on the freshly built
    /// fabric. Pure function of its arguments: equal inputs produce equal
    /// [`LoadRun::fingerprint`]s for any shard count and any observers.
    /// An observed trace comes back in [`LoadRun::tracer`], with each
    /// recorded batch's span end in [`LoadRun::traced_batches`] (under a
    /// sampled trace, the batches whose chain the sampler kept); observed
    /// metrics come back in [`LoadRun::metrics`] with the SLO gauges
    /// emitted. Soak suites arm the race detector and flight recorder,
    /// which change nothing on a clean run.
    pub fn observed(
        fabric: &LoadFabricSpec,
        open: &OpenLoopSpec,
        replog: &ReplogSpec,
        blip: Option<&Blip>,
        seed: u64,
        observe: Observe,
    ) -> LoadRun {
        assert!(fabric.holders >= 1, "need at least one holder");
        let schedule = ArrivalSchedule::generate(open, seed);
        let plan_batches = batches(&schedule, replog);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD); // rdv-lint: allow(rng-stream) -- workload-shape generator stream, salt-split from the scenario seed before the sim starts
        let writers = replog.writers as usize;
        let host_cfg = HostConfig {
            mode: DiscoveryMode::Controller,
            read_len: (replog.entry_bytes as u64).max(1),
            serve_delay: fabric.serve_delay,
            access_timeout: fabric.access_timeout,
            max_access_retries: fabric.max_access_retries,
            ..HostConfig::default()
        };
        let link = host_link_rack().with_loss(fabric.link_loss_permille);

        // Writers occupy fabric positions 0..writers, holders follow; the
        // star builder maps position to switch port, so obj routes point
        // at `writers + holder_idx`.
        let mut writer_nodes: Vec<HostNode> = (0..writers)
            .map(|w| {
                let mut n =
                    HostNode::new(format!("w{w}"), ObjId(0x10AD_0000 + w as u128), host_cfg);
                // Writers trace their accesses as replicated-log batches:
                // a `load.batch` span from issue to ack, and a
                // `load.head_advance` mark per completed batch.
                n.load_spans = true;
                n
            })
            .collect();
        let mut holder_nodes: Vec<HostNode> = (0..fabric.holders)
            .map(|h| HostNode::new(format!("lh{h}"), ObjId(0x10AD_8000 + h as u128), host_cfg))
            .collect();
        // Bystander inboxes start past the holder range so sampling
        // origin stamps (low inbox bits) stay distinct per host.
        let mut bystander_nodes: Vec<HostNode> = (0..fabric.bystanders)
            .map(|b| HostNode::new(format!("x{b}"), ObjId(0x10AD_A000 + b as u128), host_cfg))
            .collect();
        let mut obj_routes = Vec::new();
        let mut head_objs = Vec::with_capacity(replog.heads as usize);
        let payload = (replog.entry_bytes as u64).max(64) * 2;
        for head in 0..replog.heads as usize {
            let holder_idx = head % fabric.holders;
            let store = &mut holder_nodes[holder_idx].store;
            let obj = store.create(&mut rng, ObjectKind::Data);
            let off = store.get_mut(obj).unwrap().alloc(payload).unwrap();
            store.get_mut(obj).unwrap().write_u64(off, head as u64).unwrap();
            obj_routes.push((obj, writers + holder_idx));
            head_objs.push(obj);
        }

        // Batch order is canonical (at, writer, head); plan indices and
        // timer tags follow it, so issue order is schedule order.
        let mut timers: Vec<(SimTime, usize, u64)> = Vec::with_capacity(plan_batches.len());
        let mut batch_keys: Vec<Vec<((u64, u128), u32)>> = vec![Vec::new(); writers];
        for b in &plan_batches {
            let w = b.writer as usize;
            let obj = head_objs[b.head as usize];
            let tag = writer_nodes[w].plan.len() as u64;
            writer_nodes[w].plan.push(obj);
            timers.push((b.at, w, tag));
            batch_keys[w].push(((b.at.as_nanos(), obj.0), b.entries));
        }
        for keys in &mut batch_keys {
            keys.sort_unstable_by_key(|&(k, _)| k);
        }

        if let Some(period) = fabric.gossip_period {
            // Background anti-entropy plane: every host journals its
            // holdings and gossips in rack-sized regions. Peer plans are a
            // pure function of the inbox layout, so the plane is identical
            // at every shard count.
            let cfg = GossipConfig { period, ..GossipConfig::default() };
            let mut all: Vec<&mut HostNode> = writer_nodes
                .iter_mut()
                .chain(holder_nodes.iter_mut())
                .chain(bystander_nodes.iter_mut())
                .collect();
            let inboxes: Vec<ObjId> = all.iter().map(|n| n.inbox()).collect();
            let regions: Vec<Vec<ObjId>> =
                inboxes.chunks(GOSSIP_REGION).map(|c| c.to_vec()).collect();
            for (i, plan) in plan_gossip_peers(&regions).iter().enumerate() {
                debug_assert_eq!(plan.host, inboxes[i], "plan order follows fabric position");
                all[i].enable_gossip(i as u64 + 1, cfg);
                for &(peer, relay) in &plan.peers {
                    all[i].add_gossip_peer(peer, relay);
                }
            }
        }

        let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
        for (w, node) in writer_nodes.into_iter().enumerate() {
            nodes.push((Box::new(node), ObjId(0x10AD_0000 + w as u128), link));
        }
        for (h, node) in holder_nodes.into_iter().enumerate() {
            nodes.push((Box::new(node), ObjId(0x10AD_8000 + h as u128), link));
        }
        for (b, node) in bystander_nodes.into_iter().enumerate() {
            nodes.push((Box::new(node), ObjId(0x10AD_A000 + b as u128), link));
        }

        let (traced, metered) = (observe.trace.is_some(), observe.metrics.is_some());
        let (mut sim, ids) =
            build_star_fabric_observed(seed, fabric.shards, observe, nodes, &obj_routes);
        let switch = NodeId(ids.len());

        if let Some(blip) = blip {
            let until = SimTime::from_nanos(blip.at.as_nanos() + blip.dur.as_nanos());
            let mut plan = FaultPlan::new();
            if let Some(p) = blip.partition_holder {
                assert!(p < fabric.holders, "partition victim out of range");
                plan = plan.partition(blip.at, until, &[switch], &[ids[writers + p]]);
            }
            if let Some(c) = blip.crash_holder {
                assert!(c < fabric.holders, "crash victim out of range");
                plan = plan.crash(blip.at, ids[writers + c]).restart(until, ids[writers + c]);
            }
            sim.install_fault_plan(&plan);
        }

        sim.schedule_batch(timers.iter().map(|&(at, w, tag)| (at, ids[w], tag)));
        if fabric.gossip_period.is_some() {
            // A gossip plane re-arms its round timer forever, so the sim
            // never goes idle: run to a deterministic horizon instead —
            // past the last batch's full watchdog patience and the blip's
            // heal, so every access resolves before the clock stops.
            let last = timers.iter().map(|&(at, _, _)| at.as_nanos()).max().unwrap_or(0);
            let heal = blip.map(|b| b.at.as_nanos() + b.dur.as_nanos()).unwrap_or(0);
            let patience =
                fabric.access_timeout.as_nanos() * (u64::from(fabric.max_access_retries) + 2);
            sim.run_until(SimTime::from_nanos(last.max(heal) + patience));
        } else {
            sim.run_until_idle();
        }

        let mut set = metered.then(|| {
            sim.flush_metrics(sim.now());
            sim.take_metrics()
        });

        let mut counters = Counters::new();
        let mut completions: Vec<(u64, u64, u64)> = Vec::new(); // (completed, issued, latency)
        let mut issued_ns = Vec::new();
        let mut completed_entries = 0u64;
        let mut failed = 0usize;
        let mut traced_batches: Vec<(u64, u64, EventId)> = Vec::new();
        for (w, keys) in batch_keys.iter().enumerate() {
            let host = sim.node_as::<HostNode>(ids[w]).expect("writer");
            assert_eq!(
                host.records.len() + host.failed.len(),
                host.plan.len(),
                "every batch must complete or fail typed"
            );
            assert_eq!(host.outstanding(), 0, "no batch may wedge");
            for r in &host.records {
                let key = (r.issued.as_nanos(), r.target.0);
                let i = keys.binary_search_by_key(&key, |&(k, _)| k).expect("batch for record");
                completed_entries += keys[i].1 as u64;
                completions.push((
                    r.completed.as_nanos(),
                    r.issued.as_nanos(),
                    r.latency().as_nanos(),
                ));
                issued_ns.push(r.issued.as_nanos());
                if let Some(end) = r.trace_end {
                    traced_batches.push((r.completed.as_nanos(), r.latency().as_nanos(), end));
                }
            }
            for f in &host.failed {
                issued_ns.push(f.issued.as_nanos());
            }
            failed += host.failed.len();
            counters.merge(&host.counters);
        }
        for id in ids.iter().take(writers + fabric.holders + fabric.bystanders).skip(writers) {
            let host = sim.node_as::<HostNode>(*id).expect("holder or bystander");
            counters.merge(&host.counters);
        }
        counters.merge(&sim.counters);
        completions.sort_unstable();
        issued_ns.sort_unstable();
        traced_batches.sort_unstable_by_key(|&(done, lat, id)| (done, lat, id.0));

        counters.add("load.arrivals", schedule.arrivals.len() as u64);
        counters.add("load.batches", plan_batches.len() as u64);
        counters.add("load.entries", completed_entries);
        counters.add("load.completions", completions.len() as u64);
        counters.add("load.failures", failed as u64);
        counters.add("load.churn_joins", schedule.churn_joins);
        counters.add("load.churn_leaves", schedule.churn_leaves);

        let completions: Vec<(u64, u64)> =
            completions.into_iter().map(|(done, _, lat)| (done, lat)).collect();
        let offered_ns: Vec<u64> = plan_batches.iter().map(|b| b.at.as_nanos()).collect();
        let until = sim.now().as_nanos().max(open.start.as_nanos() + open.duration.as_nanos());
        let slo =
            SloSeries::compute(&offered_ns, &completions, fabric.slo_interval.as_nanos(), until);
        if let Some(set) = set.as_mut() {
            slo.emit(set);
        }

        let tracer = traced.then(|| sim.take_tracer());

        LoadRun {
            scheduled_batches: plan_batches.len(),
            completions,
            completed_entries,
            issued_ns,
            failed,
            counters,
            clock_ns: sim.now().as_nanos(),
            slo,
            metrics: set,
            traced_batches,
            tracer,
        }
    }

    /// Canonical run fingerprint: final clock, every completion, the
    /// failure count, and the full name-sorted counter tally. Equal
    /// fingerprints mean byte-equal outcomes.
    pub fn fingerprint(&self) -> String {
        let mut out = format!(
            "clock={};batches={};failed={};entries={};",
            self.clock_ns, self.scheduled_batches, self.failed, self.completed_entries
        );
        for &(done, lat) in &self.completions {
            out.push_str(&format!("c{done}:{lat};"));
        }
        for (name, value) in self.counters.iter() {
            out.push_str(&format!("{name}={value};"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_netsim::{SimTime, TraceSpec};
    use rdv_trace::{SampleSpec, DEFAULT_CAPACITY};

    fn small_inputs() -> (LoadFabricSpec, OpenLoopSpec, ReplogSpec) {
        let fabric = LoadFabricSpec::small();
        let replog = ReplogSpec::small();
        let mut open = OpenLoopSpec::flat(1000, replog.heads, 400_000, SimTime::from_micros(500));
        open.zipf_skew_permille = 900;
        (fabric, open, replog)
    }

    #[test]
    fn healthy_run_completes_every_batch() {
        let (fabric, open, replog) = small_inputs();
        let run = LoadRun::execute(&fabric, &open, &replog, None, 3, false);
        assert!(run.scheduled_batches > 10, "workload too small to mean anything");
        assert_eq!(run.completions.len(), run.scheduled_batches);
        assert_eq!(run.failed, 0);
        assert_eq!(run.counters.get("load.completions"), run.completions.len() as u64);
        assert!(run.completed_entries >= run.scheduled_batches as u64);
        assert!(run.slo.points.iter().any(|p| p.goodput_per_s > 0));
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let (fabric, open, replog) = small_inputs();
        let a = LoadRun::execute(&fabric, &open, &replog, None, 9, false);
        let b = LoadRun::execute(&fabric, &open, &replog, None, 9, false);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = LoadRun::execute(&fabric, &open, &replog, None, 10, false);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn blip_dips_goodput_then_recovers() {
        let (fabric, mut open, replog) = small_inputs();
        open.duration = SimTime::from_millis(1);
        let blip = Blip {
            at: SimTime::from_micros(300),
            dur: SimTime::from_micros(200),
            partition_holder: Some(0),
            crash_holder: Some(1),
        };
        let run = LoadRun::execute(&fabric, &open, &replog, Some(&blip), 5, false);
        // Accounting holds under the blip: everything completes or fails
        // typed (asserted inside execute), and the watchdog did real work.
        assert!(run.counters.get("access_timeouts") > 0, "blip should force retries");
        let healthy = LoadRun::execute(&fabric, &open, &replog, None, 5, false);
        assert_eq!(healthy.counters.get("load.failures"), 0);
        assert!(run.completions.len() + run.failed == run.scheduled_batches);
    }

    /// Sampled tracing into a default-sized ring.
    fn sampled(spec: SampleSpec) -> Observe {
        let trace = TraceSpec { capacity: DEFAULT_CAPACITY, sample: Some(spec) };
        Observe { trace: Some(trace), ..Observe::default() }
    }

    #[test]
    fn sampled_tracing_joins_every_kept_batch_without_perturbing() {
        let (fabric, open, replog) = small_inputs();
        let plain = LoadRun::execute(&fabric, &open, &replog, None, 11, false);
        let traced =
            LoadRun::observed(&fabric, &open, &replog, None, 11, sampled(SampleSpec::keep_all(11)));
        // The observer must not change what happened — only record it.
        assert_eq!(plain.completions, traced.completions);
        assert_eq!(plain.failed, traced.failed);
        assert_eq!(
            traced.traced_batches.len(),
            traced.completions.len(),
            "keep-all samples every batch span"
        );
        let tracer = traced.tracer.as_ref().expect("tracer returned");
        for &(_, _, end) in &traced.traced_batches {
            let ev = tracer.get(end).expect("span end retained");
            assert_eq!(ev.kind.label(), Some("load.batch"));
        }
        // Half-rate sampling keeps a strict, deterministic subset.
        let half = || SampleSpec { seed: 11, default_permille: 500, classes: Vec::new() };
        let a = LoadRun::observed(&fabric, &open, &replog, None, 11, sampled(half()));
        let b = LoadRun::observed(&fabric, &open, &replog, None, 11, sampled(half()));
        assert!(!a.traced_batches.is_empty() && a.traced_batches.len() < a.completions.len());
        assert_eq!(a.traced_batches, b.traced_batches, "sampled set is seed-pure");
    }

    #[test]
    fn background_gossip_plane_runs_on_bystanders_deterministically() {
        let (mut fabric, open, replog) = small_inputs();
        fabric.bystanders = 29;
        fabric.gossip_period = Some(SimTime::from_micros(40));
        let a = LoadRun::execute(&fabric, &open, &replog, None, 13, false);
        assert!(a.counters.get("gossip.rounds") > 0, "the plane must actually gossip");
        assert_eq!(a.failed, 0, "background gossip must not break the workload");
        let b = LoadRun::execute(&fabric, &open, &replog, None, 13, false);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut sharded = fabric;
        sharded.shards = 2;
        let c = LoadRun::execute(&sharded, &open, &replog, None, 13, false);
        assert_eq!(a.fingerprint(), c.fingerprint(), "plane is shard-invariant");
    }

    #[test]
    fn metrics_run_emits_slo_gauges_without_perturbing() {
        let (fabric, open, replog) = small_inputs();
        let plain = LoadRun::execute(&fabric, &open, &replog, None, 7, false);
        let with = LoadRun::execute(&fabric, &open, &replog, None, 7, true);
        assert_eq!(plain.fingerprint(), with.fingerprint(), "observation must not perturb");
        let set = with.metrics.expect("metrics on");
        for g in [
            "load.offered_per_s",
            "load.goodput_per_s",
            "load.p50_us",
            "load.p99_us",
            "load.p999_us",
        ] {
            let series = set.series_by_name(g).unwrap_or_else(|| panic!("{g} missing"));
            assert!(series.points().count() > 0, "{g} empty");
        }
    }
}
