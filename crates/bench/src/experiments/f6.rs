//! F6 — the blip figure: goodput dip and recovery under a mid-load fault
//! window, rendezvous fabric vs RPC baseline (ISSUE 7; methodology after
//! the Autobahn goodput-under-blips artifact referenced in ROADMAP).
//!
//! An open-loop replicated-log workload (million-client id space, Zipf
//! popularity over a small set of hot log heads, batching at four
//! writers) runs against both fabrics at the *same* arrival schedule —
//! identical seed, identical batches, identical issue times. Mid-run, a
//! fault blip partitions one log-head holder off the switch and
//! crash-restarts another. The two arms get equal patience budgets: the
//! rendezvous writers run a 200 µs access watchdog with 8 re-sends
//! (9 × 200 µs of patience); the RPC clients get one attempt with a
//! 1.8 ms deadline. What differs is what the patience buys — watchdog
//! re-sends land as soon as the fabric heals, while an RPC call issued
//! into the blip stays dead until its timeout and is then *lost work*.
//! Reported per skew point and arm: completions, typed failures, overall
//! latency quantiles, windowed goodput before/during/after the blip, the
//! dip, and the recovery time (first SLO window back at ≥ 90 % of the
//! pre-blip mean).

use rdv_load::{
    nearest_rank, replog, ArrivalSchedule, Blip, LoadCurve, LoadFabricSpec, LoadRun, OpenLoopSpec,
    ReplogSpec, SloSeries,
};
use rdv_netsim::metrics::MetricSet;
use rdv_netsim::{FaultPlan, LinkSpec, Node, NodeId, Observe, SimTime};
use rdv_objspace::ObjId;
use rdv_rpc::client::{ClientNode, PlannedCall};
use rdv_rpc::server::ServerNode;
use rdv_rpc::service::{echo_methods, EchoService};

use crate::par::par_map;
use crate::report::Series;

/// Million-user id space: the paper's scale claim is about who *may*
/// show up, not how many are concurrently active.
const CLIENTS: u32 = 1_000_000;
/// Offered base rate, arrivals per second.
const RATE_PER_S: u64 = 1_000_000;
/// Arrival window length.
const DURATION: SimTime = SimTime::from_millis(1);
/// Blip start / length: partition + crash window injected mid-load.
pub(crate) const BLIP_AT: SimTime = SimTime::from_micros(300);
pub(crate) const BLIP_DUR: SimTime = SimTime::from_micros(200);
/// Writer-side patience: watchdog window × (1 + retries) for the
/// rendezvous arm; the same total as a single RPC deadline.
const ACCESS_TIMEOUT: SimTime = SimTime::from_micros(200);
const MAX_RETRIES: u32 = 8;
const RPC_DEADLINE_NS: u64 = ACCESS_TIMEOUT.as_nanos() * (MAX_RETRIES as u64 + 1);
/// SLO window for the goodput/recovery series.
const SLO_INTERVAL: SimTime = SimTime::from_micros(50);

pub(crate) fn fabric_spec() -> LoadFabricSpec {
    LoadFabricSpec {
        holders: 3,
        shards: 0,
        link_loss_permille: 0,
        serve_delay: SimTime::from_micros(2),
        access_timeout: ACCESS_TIMEOUT,
        max_access_retries: MAX_RETRIES,
        slo_interval: SLO_INTERVAL,
        bystanders: 0,
        gossip_period: None,
    }
}

pub(crate) fn replog_spec() -> ReplogSpec {
    ReplogSpec { writers: 4, heads: 8, entry_bytes: 64, batch_window: SimTime::from_micros(20) }
}

pub(crate) fn open_spec(skew_permille: u32) -> OpenLoopSpec {
    OpenLoopSpec {
        clients: CLIENTS,
        objects: replog_spec().heads,
        zipf_skew_permille: skew_permille,
        base_rate_per_s: RATE_PER_S,
        start: SimTime::from_micros(10),
        duration: DURATION,
        curve: LoadCurve::flat(),
        churn: None,
    }
}

pub(crate) fn blip() -> Blip {
    Blip { at: BLIP_AT, dur: BLIP_DUR, partition_holder: Some(0), crash_holder: Some(1) }
}

/// Outcome of one (skew, arm) point.
#[derive(Debug, Clone)]
pub struct F6Outcome {
    /// Batches the open-loop schedule offered.
    pub offered_batches: usize,
    /// Batches that completed.
    pub completed: usize,
    /// Batches that surfaced a typed failure (watchdog exhaustion or RPC
    /// timeout) — lost work.
    pub failed: usize,
    /// Overall completion-latency quantiles, µs.
    pub p50_us: u64,
    /// p99, µs.
    pub p99_us: u64,
    /// p999, µs.
    pub p999_us: u64,
    /// Mean goodput (batches/s) in SLO windows before the blip.
    pub good_before: u64,
    /// Mean goodput during the blip window.
    pub good_during: u64,
    /// Mean goodput after the blip window.
    pub good_after: u64,
    /// Goodput dip during the blip, percent of the pre-blip mean.
    pub dip_pct: u64,
    /// Sim time from blip end to the first SLO window back at ≥ 90 % of
    /// the pre-blip mean, µs (`None` = never recovered in the run).
    pub recovery_us: Option<u64>,
}

fn outcome_from(
    offered_batches: usize,
    completed: &[(u64, u64)],
    failed: usize,
    slo: &SloSeries,
) -> F6Outcome {
    let mut lats: Vec<u64> = completed.iter().map(|&(_, lat)| lat).collect();
    lats.sort_unstable();
    let blip_end = BLIP_AT.as_nanos() + BLIP_DUR.as_nanos();
    let good_before = slo.mean_goodput(0, BLIP_AT.as_nanos());
    let good_during = slo.mean_goodput(BLIP_AT.as_nanos(), blip_end);
    let end_ns = slo.points.last().map(|p| p.at_ns).unwrap_or(blip_end);
    let good_after = slo.mean_goodput(blip_end, end_ns);
    let dip_pct =
        (good_before.saturating_sub(good_during) * 100).checked_div(good_before).unwrap_or(0);
    let recovery_us =
        slo.recovery_ns(blip_end, good_before * 9 / 10).map(|at| (at - blip_end) / 1000);
    F6Outcome {
        offered_batches,
        completed: completed.len(),
        failed,
        p50_us: nearest_rank(&lats, 500) / 1000,
        p99_us: nearest_rank(&lats, 990) / 1000,
        p999_us: nearest_rank(&lats, 999) / 1000,
        good_before,
        good_during,
        good_after,
        dip_pct,
        recovery_us,
    }
}

/// The rendezvous arm: the `rdv-load` harness end to end (writer
/// HostNodes with access watchdogs, object-routed star fabric), with
/// `observe` armed. Observed metrics come back beside the outcome: the
/// engine gauges plus the emitted `load.*` SLO gauges.
pub fn run_point_rdv(
    skew_permille: u32,
    seed: u64,
    observe: Observe,
) -> (F6Outcome, Option<MetricSet>) {
    let run = LoadRun::observed(
        &fabric_spec(),
        &open_spec(skew_permille),
        &replog_spec(),
        Some(&blip()),
        seed,
        observe,
    );
    (outcome_from(run.scheduled_batches, &run.completions, run.failed, &run.slo), run.metrics)
}

/// The RPC baseline arm: the *same* batch schedule driven through
/// `ClientNode`s against `ServerNode`s — one attempt per call, a single
/// deadline equal to the rendezvous arm's whole patience budget, and no
/// recovery machinery beyond it.
pub fn run_point_rpc(skew_permille: u32, seed: u64) -> F6Outcome {
    let replog = replog_spec();
    let fabric = fabric_spec();
    let schedule = ArrivalSchedule::generate(&open_spec(skew_permille), seed);
    let plan_batches = replog::batches(&schedule, &replog);

    let writers = replog.writers as usize;
    let servers = fabric.holders;
    let server_inbox = |s: usize| ObjId(0xF6_5000 + s as u128);

    let mut clients: Vec<ClientNode> = (0..writers)
        .map(|w| ClientNode::new(format!("w{w}"), ObjId(0xF6_C000 + w as u128)))
        .collect();
    let mut timers: Vec<(SimTime, usize, u64)> = Vec::with_capacity(plan_batches.len());
    for b in &plan_batches {
        let w = b.writer as usize;
        let tag = clients[w].plan.len() as u64;
        clients[w].plan.push(PlannedCall {
            server: server_inbox(b.head as usize % servers),
            service: 1,
            method: echo_methods::ECHO,
            args: vec![0u8; (b.entries * replog.entry_bytes) as usize],
            serialize_ns: 500,
            lookup_via: None,
            timeout_ns: RPC_DEADLINE_NS,
        });
        timers.push((b.at, w, tag));
    }

    let link = rdv_core::scenarios::host_link_rack().with_loss(fabric.link_loss_permille);
    let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
    for (w, c) in clients.into_iter().enumerate() {
        nodes.push((Box::new(c), ObjId(0xF6_C000 + w as u128), link));
    }
    for s in 0..servers {
        let mut server = ServerNode::new(format!("s{s}"), server_inbox(s));
        server.register(1, Box::new(EchoService::default()));
        nodes.push((Box::new(server), server_inbox(s), link));
    }
    let (mut sim, ids) = rdv_core::scenarios::build_star_fabric(seed, nodes, &[]);
    let switch = NodeId(ids.len());

    let b = blip();
    let until = SimTime::from_nanos(b.at.as_nanos() + b.dur.as_nanos());
    let mut plan = FaultPlan::new();
    if let Some(p) = b.partition_holder {
        plan = plan.partition(b.at, until, &[switch], &[ids[writers + p]]);
    }
    if let Some(c) = b.crash_holder {
        plan = plan.crash(b.at, ids[writers + c]).restart(until, ids[writers + c]);
    }
    sim.install_fault_plan(&plan);

    sim.schedule_batch(timers.iter().map(|&(at, w, tag)| (at, ids[w], tag)));
    sim.run_until_idle();

    let mut completions: Vec<(u64, u64, u64)> = Vec::new();
    let mut failed = 0usize;
    for &id in ids.iter().take(writers) {
        let client = sim.node_as::<ClientNode>(id).expect("client");
        assert_eq!(
            client.records.len(),
            client.plan.len(),
            "every RPC call must complete or time out"
        );
        assert_eq!(client.outstanding(), 0, "no call may wedge");
        for r in &client.records {
            match &r.result {
                Ok(_) => completions.push((
                    r.completed.as_nanos(),
                    r.issued.as_nanos(),
                    r.latency().as_nanos(),
                )),
                Err(_) => failed += 1,
            }
        }
    }
    completions.sort_unstable();
    let completions: Vec<(u64, u64)> =
        completions.into_iter().map(|(done, _, lat)| (done, lat)).collect();

    let offered_ns: Vec<u64> = plan_batches.iter().map(|b| b.at.as_nanos()).collect();
    let window_end = open_spec(skew_permille).start.as_nanos() + DURATION.as_nanos();
    let slo = SloSeries::compute(
        &offered_ns,
        &completions,
        SLO_INTERVAL.as_nanos(),
        sim.now().as_nanos().max(window_end),
    );
    outcome_from(plan_batches.len(), &completions, failed, &slo)
}

fn push_arm(series: &mut Series, fabric: &str, skew: u32, out: &F6Outcome) {
    series.push_row(vec![
        fabric.to_string(),
        skew.to_string(),
        out.offered_batches.to_string(),
        out.completed.to_string(),
        out.failed.to_string(),
        out.p50_us.to_string(),
        out.p99_us.to_string(),
        out.p999_us.to_string(),
        out.good_before.to_string(),
        out.good_during.to_string(),
        out.good_after.to_string(),
        out.dip_pct.to_string(),
        match out.recovery_us {
            Some(us) => us.to_string(),
            None => "never".to_string(),
        },
    ]);
}

/// Sweep popularity skew; both arms at every point, same schedule.
pub fn run(quick: bool) -> Series {
    let skews: &[u32] = if quick { &[1000] } else { &[0, 500, 1000, 1300] };
    let mut series = Series::new(
        "F6",
        "million-user open-loop blip: goodput dip and recovery, rendezvous vs RPC (ISSUE 7)",
        &[
            "fabric",
            "skew_permille",
            "offered_batches",
            "completed",
            "failed",
            "p50_us",
            "p99_us",
            "p999_us",
            "good_before_per_s",
            "good_during_per_s",
            "good_after_per_s",
            "dip_pct",
            "recovery_us",
        ],
    );
    let points: Vec<(u32, bool)> = skews.iter().flat_map(|&s| [(s, true), (s, false)]).collect();
    let outcomes = par_map(points.clone(), |(skew, rdv)| {
        let seed = 0xF6 + skew as u64;
        if rdv {
            run_point_rdv(skew, seed, Observe::default()).0
        } else {
            run_point_rpc(skew, seed)
        }
    });
    for ((skew, rdv), out) in points.iter().zip(&outcomes) {
        let arm = if *rdv { "rendezvous" } else { "rpc" };
        if *rdv {
            assert_eq!(
                out.completed + out.failed,
                out.offered_batches,
                "rendezvous arm must account for every batch"
            );
        }
        push_arm(&mut series, arm, *skew, out);
    }
    series.note(
        "same seed, same open-loop schedule, equal patience budgets (9x200us watchdog vs one \
         1.8ms RPC deadline); the rendezvous watchdog re-sends land as soon as the blip heals, \
         while RPC calls issued into the blip hold their deadline and then surface as lost work \
         — the deeper dip, the failed column, and the longer recovery are all the same story",
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_offer_the_same_load() {
        let rdv = run_point_rdv(1000, 0xF6, Observe::default()).0;
        let rpc = run_point_rpc(1000, 0xF6);
        assert_eq!(rdv.offered_batches, rpc.offered_batches, "open loop: same schedule");
        assert!(rdv.offered_batches > 50, "workload too small to mean anything");
    }

    #[test]
    fn rendezvous_recovers_where_rpc_loses_work() {
        let rdv = run_point_rdv(1000, 0xF6, Observe::default()).0;
        let rpc = run_point_rpc(1000, 0xF6);
        // The watchdog completes everything; one-shot RPC calls issued
        // into the blip time out and are lost.
        assert_eq!(rdv.failed, 0, "watchdog must recover the blip window");
        assert!(rpc.failed > 0, "RPC arm must lose in-blip calls");
        assert!(rdv.completed > rpc.completed);
        // Both dip during the blip; RPC dips at least as deep.
        assert!(rdv.dip_pct > 0, "a real blip dips goodput");
        assert!(rpc.dip_pct >= rdv.dip_pct);
        // The rendezvous arm recovers; its tail pays for the blip.
        assert!(rdv.recovery_us.is_some(), "rendezvous arm must recover");
        assert!(rdv.p999_us > rdv.p50_us);
    }

    #[test]
    fn points_are_deterministic() {
        let a = run_point_rdv(500, 42, Observe::default()).0;
        let b = run_point_rdv(500, 42, Observe::default()).0;
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_point_rpc(500, 42);
        let d = run_point_rpc(500, 42);
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }
}
