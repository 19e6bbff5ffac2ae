//! F4 — goodput and rendezvous completion vs fault severity.
//!
//! The paper's §3.2 argues the fabric needs only *"a new, light-weight form
//! of reliable transmission"* rather than full TCP. This experiment
//! quantifies what that light-weight machinery (per-access watchdogs with
//! capped-backoff re-sends, typed abandonment) buys under injected faults:
//! a driver issues reads against three holders behind an object-routed
//! switch while the fault plan degrades the fabric — random loss on every
//! host link, a partition cutting one holder off the switch, and a
//! crash/restart outage of another — all scaled together by one severity
//! knob. Reported per point: completion rate, typed failures, watchdog
//! re-sends, mean access latency, and goodput over the active window.
//!
//! Invariant (same as `tests/chaos_soak.rs`): at every severity, every
//! access either completes or surfaces a typed failure — none wedge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::scenarios::{build_star_fabric_observed, host_link_rack};
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode};
use rdv_netsim::metrics::MetricSet;
use rdv_netsim::{FaultPlan, NodeId, Observe, SimTime};
use rdv_objspace::{ObjId, ObjectKind};

use crate::par::par_map;
use crate::report::{f1, Series};

const HOLDERS: usize = 3;
const ACCESSES: usize = 40;
const READ_LEN: u64 = 64;

/// Outcome of one severity point.
#[derive(Debug, Clone, Copy)]
pub struct F4Outcome {
    /// Accesses that completed.
    pub completed: usize,
    /// Accesses that surfaced a typed failure.
    pub failed: usize,
    /// Watchdog re-send firings at the driver.
    pub timeouts: u64,
    /// Packets the fabric dropped (loss + partition + dead node).
    pub packets_dropped: u64,
    /// Mean latency of completed accesses.
    pub mean_latency: SimTime,
    /// Completed read payload bytes per simulated millisecond.
    pub goodput_bytes_per_ms: f64,
}

/// One chaos point: `loss_permille` of random loss on every host link, a
/// partition of `outage_us` around one holder, and a crash/restart outage
/// of `outage_us` on another. `observe` is armed on the built fabric;
/// observed metrics come back beside the outcome, whose numbers are
/// identical to an unobserved run at the same point.
pub fn run_point(
    loss_permille: u16,
    outage_us: u64,
    seed: u64,
    observe: Observe,
) -> (F4Outcome, Option<MetricSet>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF4);
    let host_cfg = HostConfig {
        mode: DiscoveryMode::Controller,
        access_timeout: SimTime::from_micros(200),
        max_access_retries: 8,
        ..HostConfig::default()
    };
    let link = host_link_rack().with_loss(loss_permille);

    let mut nodes: Vec<(Box<dyn rdv_netsim::Node>, ObjId, rdv_netsim::LinkSpec)> = Vec::new();
    let mut driver = HostNode::new("driver", ObjId(0xF4D0), host_cfg);
    let mut obj_routes = Vec::new();
    let mut objects = Vec::new();
    let mut holders = Vec::new();
    for h in 0..HOLDERS {
        let inbox = ObjId(0xF4B0 + h as u128);
        let mut holder = HostNode::new(format!("h{h}"), inbox, host_cfg);
        for _ in 0..2 {
            let obj = holder.store.create(&mut rng, ObjectKind::Data);
            let off = holder.store.get_mut(obj).unwrap().alloc(128).unwrap();
            holder.store.get_mut(obj).unwrap().write_u64(off, 1).unwrap();
            obj_routes.push((obj, 1 + h));
            objects.push(obj);
        }
        holders.push(inbox);
        nodes.push((Box::new(holder), inbox, link));
    }
    for _ in 0..ACCESSES {
        driver.plan.push(objects[rng.gen_range(0..objects.len())]);
    }
    nodes.insert(0, (Box::new(driver), ObjId(0xF4D0), link));

    let metered = observe.metrics.is_some();
    let (mut sim, ids) = build_star_fabric_observed(seed, 0, observe, nodes, &obj_routes);
    let switch = NodeId(ids.len());

    if outage_us > 0 {
        // Partition holder 1 off the switch, and crash-restart holder 2,
        // each for an `outage_us` window placed inside the access train.
        let plan = FaultPlan::new()
            .partition(
                SimTime::from_micros(200),
                SimTime::from_micros(200 + outage_us),
                &[switch],
                &[ids[2]],
            )
            .crash(SimTime::from_micros(400), ids[3])
            .restart(SimTime::from_micros(400 + outage_us), ids[3]);
        sim.install_fault_plan(&plan);
    }

    for i in 0..ACCESSES as u64 {
        sim.schedule(SimTime::from_micros(10 + 50 * i), ids[0], i);
    }
    sim.run_until_idle();

    let set = metered.then(|| {
        sim.flush_metrics(sim.now());
        sim.take_metrics()
    });
    let drv = sim.node_as::<HostNode>(ids[0]).expect("driver");
    assert_eq!(
        drv.records.len() + drv.failed.len(),
        ACCESSES,
        "every access must complete or fail typed"
    );
    assert_eq!(drv.outstanding(), 0, "no access may wedge");

    let total_ns: u64 = drv.records.iter().map(|r| r.latency().as_nanos()).sum();
    let mean = if drv.records.is_empty() {
        SimTime::ZERO
    } else {
        SimTime::from_nanos(total_ns / drv.records.len() as u64)
    };
    // Goodput: completed read bytes over the active window (first issue to
    // last completion).
    let window_ns = drv
        .records
        .iter()
        .map(|r| r.completed.as_nanos())
        .max()
        .map(|last| last.saturating_sub(10_000).max(1))
        .unwrap_or(1);
    let goodput = (drv.records.len() as u64 * READ_LEN) as f64 / (window_ns as f64 / 1_000_000.0);
    let dropped =
        ["sim.packets_lost", "sim.packets_dropped.partition", "sim.packets_dropped.dead_node"]
            .iter()
            .map(|k| sim.counters.get(k))
            .sum();
    let out = F4Outcome {
        completed: drv.records.len(),
        failed: drv.failed.len(),
        timeouts: drv.counters.get("access_timeouts"),
        packets_dropped: dropped,
        mean_latency: mean,
        goodput_bytes_per_ms: goodput,
    };
    (out, set)
}

/// Sweep fault severity: loss rate and outage windows scale together.
pub fn run(quick: bool) -> Series {
    let sweep: &[(u16, u64)] = if quick {
        &[(0, 0), (100, 200), (300, 600)]
    } else {
        &[(0, 0), (50, 100), (100, 200), (200, 400), (300, 600), (400, 800)]
    };
    let mut series = Series::new(
        "F4",
        "goodput and rendezvous completion vs fault severity (paper §3.2)",
        &[
            "loss_permille",
            "outage_us",
            "completed",
            "failed",
            "timeouts",
            "dropped",
            "mean_us",
            "goodput_B_per_ms",
        ],
    );
    let rows = par_map(sweep.to_vec(), |(loss, outage)| {
        let (out, _) = run_point(loss, outage, 0xF4 + loss as u64, Observe::default());
        if loss == 0 && outage == 0 {
            assert_eq!(out.failed, 0, "a healthy fabric completes everything");
            assert_eq!(out.timeouts, 0, "no watchdog work on a healthy fabric");
        }
        vec![
            loss.to_string(),
            outage.to_string(),
            out.completed.to_string(),
            out.failed.to_string(),
            out.timeouts.to_string(),
            out.packets_dropped.to_string(),
            f1(out.mean_latency.as_nanos() as f64 / 1000.0),
            f1(out.goodput_bytes_per_ms),
        ]
    });
    for row in rows {
        series.push_row(row);
    }
    series.note("watchdog re-sends (capped backoff) mask loss, partition, and crash outages until severity exhausts the retry budget; every non-completed access surfaces a typed failure, none wedge — the invariant tests/chaos_soak.rs soaks");
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_point_completes_everything_and_is_deterministic() {
        let (a, _) = run_point(0, 0, 7, Observe::default());
        assert_eq!(a.completed, ACCESSES);
        assert_eq!(a.failed, 0);
        let (b, _) = run_point(0, 0, 7, Observe::default());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.goodput_bytes_per_ms, b.goodput_bytes_per_ms);
    }

    #[test]
    fn severity_degrades_goodput_but_not_accounting() {
        let (healthy, _) = run_point(0, 0, 7, Observe::default());
        let (stressed, _) = run_point(300, 600, 7, Observe::default());
        assert!(stressed.packets_dropped > 0);
        assert!(stressed.timeouts > 0, "faults must force watchdog work");
        assert!(stressed.mean_latency > healthy.mean_latency, "recovery costs latency");
        // Accounting is exact at every severity (asserted inside run_point).
        assert_eq!(stressed.completed + stressed.failed, ACCESSES);
    }
}
