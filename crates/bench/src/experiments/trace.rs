//! Traced companion runs: re-run one representative point of an
//! experiment with the causal tracer enabled, export a Perfetto-loadable
//! JSON trace, and print a critical-path summary explaining *why* the
//! figure's latencies are what they are.
//!
//! Determinism: the traced point uses the same derived seed as the sweep,
//! the tracer stamps sim time only, and the exporter formats with integer
//! arithmetic — so `results/trace_<exp>.json` is byte-identical across
//! processes and `--jobs` values (CI cmp-checks this).

use rdv_discovery::scenario::run_discovery_observed;
use rdv_discovery::{DiscoveryMode, ScenarioConfig, ScenarioKind, ScenarioTrace, StalenessMode};
use rdv_netsim::trace::{
    export, CriticalPath, EventKind, PathBreakdown, SampleSpec, CATEGORIES, DEFAULT_CAPACITY,
};
use rdv_netsim::{Observe, TraceSpec};

use crate::fabric::{run_fabric, run_fabric_observed, FabricSpec};

/// Experiment IDs that have a traced companion run.
pub const TRACEABLE: &[&str] = &["F2", "F3", "F5"];

/// The artifacts of one traced run.
pub struct TraceReport {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    pub json: String,
    /// Human-readable critical-path summary.
    pub summary: String,
}

/// A default-sized trace ring, every chain or a sampled slice.
fn traced(sample: Option<SampleSpec>) -> Observe {
    Observe { trace: Some(TraceSpec { capacity: DEFAULT_CAPACITY, sample }), ..Observe::default() }
}

/// Run the traced companion of `exp` (`F2`, `F3`, or `F5`), if it has one.
pub fn run(exp: &str, quick: bool) -> Option<TraceReport> {
    match exp {
        "F2" => Some(trace_f2(quick)),
        "F3" => Some(trace_f3(quick)),
        "F5" => Some(trace_f5(quick)),
        _ => None,
    }
}

/// F2 at 50% new objects, E2E: fresh accesses are 1 unicast RTT, new
/// objects take a broadcast rediscovery first.
fn trace_f2(quick: bool) -> TraceReport {
    let out = run_discovery_observed(
        &ScenarioConfig {
            kind: ScenarioKind::Fig2NewObjects { pct_new: 50 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::InvalidateOnMove,
            accesses: if quick { 200 } else { 1000 },
            num_objects: if quick { 64 } else { 256 },
            ..Default::default()
        },
        traced(None),
    );
    let trace = out.trace.expect("tracing was enabled");
    let summary = summarize(
        "F2 @ 50% new objects (E2E)",
        &trace,
        "broadcast discovery (new object)",
        "cached unicast",
    );
    TraceReport { json: export::chrome_json(&trace.tracer, &trace.node_names), summary }
}

/// F3 mid-sweep (50% of accesses to moved objects), E2E with
/// NACK-rediscover staleness: the latency rise the figure shows mid-sweep
/// is attributed to stale-cache accesses taking the 3-leg NACK →
/// broadcast rediscovery path.
fn trace_f3(quick: bool) -> TraceReport {
    let out = run_discovery_observed(
        &ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved: 50 },
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::NackRediscover,
            accesses: if quick { 100 } else { 400 },
            ..Default::default()
        },
        traced(None),
    );
    let trace = out.trace.expect("tracing was enabled");
    let summary = summarize(
        "F3 @ 50% moved (E2E, NACK-rediscover)",
        &trace,
        "stale cache → NACK → broadcast rediscovery",
        "fresh cache unicast",
    );
    TraceReport { json: export::chrome_json(&trace.tracer, &trace.node_names), summary }
}

/// F5 on the 100 k-host fabric (the full sweep's largest point; quick
/// mode uses the smallest so module tests stay cheap), with deterministic
/// sampled tracing: full recording at this scale would need an event ring
/// the size of the run, so the sampler keeps a fixed permille of
/// `fabric.storm` chains — each kept host records its entire bounce
/// chain, every other host records nothing, and the recorded bytes are
/// identical at every shard count (`tests/shard_determinism.rs` compares
/// the quick export at shards 1/2/8).
fn trace_f5(quick: bool) -> TraceReport {
    let (racks, hpr, permille) = if quick { (16, 64, 100) } else { (256, 400, 2) };
    let spec = FabricSpec {
        racks,
        hosts_per_rack: hpr,
        burst: 2,
        bounces: if quick { 4 } else { 16 },
        ring_packets: 8,
        ring_hops: racks as u64,
    };
    let sample =
        SampleSpec { seed: 0xF5, default_permille: 0, classes: vec![("fabric.storm", permille)] };
    let (fp, ring) = run_fabric_observed(&spec, 42, 0, traced(Some(sample)));
    let (tracer, names) = ring.expect("traced run");
    assert_eq!(fp, run_fabric(&spec, 42, 0), "tracing must not perturb the run");
    let (sampled, skipped) = tracer.sample_tallies().expect("sampled mode");

    let mut storm = PathBreakdown::default();
    for (id, ev) in tracer.iter() {
        if matches!(ev.kind, EventKind::SpanEnd { name: "fabric.storm" }) {
            storm.add(&CriticalPath::from_span(&tracer, id));
        }
    }
    let mut s = String::new();
    s.push_str(&format!(
        "critical-path summary — F5 storm @ {} hosts ({racks} racks, sampled tracing)\n",
        spec.hosts()
    ));
    s.push_str(&format!(
        "  sampling: kept {sampled} of {} storm chains ({permille}\u{2030} of class \
         fabric.storm), {} events recorded — full recording at this scale would keep \
         every chain\n",
        sampled + skipped,
        tracer.count(),
    ));
    s.push_str(&format!(
        "  sampled chains: {} paths, mean {} µs, mean hops {}.{:02}\n",
        storm.paths,
        storm.mean_ns() / 1000,
        storm.mean_hops_x100() / 100,
        storm.mean_hops_x100() % 100,
    ));
    for (i, cat) in CATEGORIES.iter().enumerate() {
        let mean = storm.by_category[i].checked_div(storm.paths).unwrap_or(0);
        s.push_str(&format!("    {cat:<10} {:>8} µs/chain\n", mean / 1000));
    }
    let queue_link = storm.by_category[1] + storm.by_category[2];
    s.push_str(&format!(
        "  attribution: a storm chain is wire time — queue + link carry {}% of the \
         critical path (hosts bounce echoes back with zero service delay)\n",
        (queue_link * 100).checked_div(storm.total_ns).unwrap_or(0),
    ));
    TraceReport { json: export::chrome_json(&tracer, &names), summary: s }
}

/// Split the driver's accesses into the slow group (took a broadcast
/// and/or NACK) and the fast group, extract each access's critical path
/// from its `discovery.access` span-end, and render the aggregate
/// host/queue/link/timer breakdown side by side.
fn summarize(title: &str, trace: &ScenarioTrace, slow_label: &str, fast_label: &str) -> String {
    let mut slow = PathBreakdown::default();
    let mut fast = PathBreakdown::default();
    for rec in &trace.records {
        let Some(end) = rec.trace_end else { continue };
        let path = CriticalPath::from_span(&trace.tracer, end);
        if rec.broadcasts > 0 || rec.nacks > 0 {
            slow.add(&path);
        } else {
            fast.add(&path);
        }
    }
    let mut s = String::new();
    s.push_str(&format!("critical-path summary — {title}\n"));
    for (label, agg) in [(fast_label, &fast), (slow_label, &slow)] {
        s.push_str(&format!(
            "  {label}: {} accesses, mean {} µs, mean hops {}.{:02}\n",
            agg.paths,
            agg.mean_ns() / 1000,
            agg.mean_hops_x100() / 100,
            agg.mean_hops_x100() % 100,
        ));
        for (i, cat) in CATEGORIES.iter().enumerate() {
            let mean = agg.by_category[i].checked_div(agg.paths).unwrap_or(0);
            s.push_str(&format!("    {cat:<10} {:>8} µs/access\n", mean / 1000));
        }
    }
    if slow.paths > 0 && fast.paths > 0 {
        s.push_str(&format!(
            "  attribution: slow group pays {}x the link legs of the fast group \
             ({}.{:02} vs {}.{:02} hops) — the extra legs are the rediscovery round trips\n",
            if fast.mean_hops_x100() > 0 {
                slow.mean_hops_x100() / fast.mean_hops_x100()
            } else {
                0
            },
            slow.mean_hops_x100() / 100,
            slow.mean_hops_x100() % 100,
            fast.mean_hops_x100() / 100,
            fast.mean_hops_x100() % 100,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_trace_attributes_latency_rise_to_broadcast_rediscovery() {
        let report = run("F3", true).expect("F3 is traceable");
        // The Perfetto export is non-trivial and well-formed JSON at the
        // bracket level.
        assert!(report.json.starts_with("{\"traceEvents\":["));
        assert!(report.json.ends_with("],\"displayTimeUnit\":\"ns\"}\n"));
        // The summary separates the two populations and shows the stale
        // group paying more network legs.
        assert!(report.summary.contains("stale cache → NACK → broadcast rediscovery"));
        assert!(report.summary.contains("fresh cache unicast"));
        assert!(report.summary.contains("attribution:"));
    }

    #[test]
    fn f3_stale_paths_cost_more_link_legs_than_fresh() {
        let out = run_discovery_observed(
            &ScenarioConfig {
                kind: ScenarioKind::Fig3Staleness { pct_moved: 50 },
                mode: DiscoveryMode::E2E,
                staleness: StalenessMode::NackRediscover,
                accesses: 100,
                ..Default::default()
            },
            traced(None),
        );
        let trace = out.trace.expect("traced");
        let mut slow = PathBreakdown::default();
        let mut fast = PathBreakdown::default();
        for rec in &trace.records {
            let path = CriticalPath::from_span(&trace.tracer, rec.trace_end.expect("span closed"));
            assert!(path.total_ns > 0, "every access has a non-empty critical path");
            if rec.broadcasts > 0 || rec.nacks > 0 {
                slow.add(&path);
            } else {
                fast.add(&path);
            }
        }
        assert!(slow.paths > 0 && fast.paths > 0, "mid-sweep has both populations");
        // The stale path is NACK + broadcast + unicast (3 round trips) vs
        // 1 for fresh: strictly more link legs and higher mean latency.
        assert!(slow.mean_hops_x100() > fast.mean_hops_x100());
        assert!(slow.mean_ns() > fast.mean_ns());
    }

    #[test]
    fn f5_sampled_trace_is_affordable() {
        // Fingerprint preservation is asserted inside trace_f5 itself;
        // this checks the artifacts.
        let report = run("F5", true).expect("F5 is traceable");
        assert!(report.json.starts_with("{\"traceEvents\":["));
        assert!(report.summary.contains("sampling: kept"));
        assert!(report.summary.contains("attribution:"));
        // Quick mode keeps 100‰ of 1024 chains: far fewer than every
        // chain, far more than none.
        let kept: u64 = report
            .summary
            .split("kept ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("summary quotes the kept tally");
        assert!(kept > 0 && kept < 1024, "sampler kept {kept} of 1024");
    }

    #[test]
    fn unknown_ids_have_no_traced_companion() {
        assert!(run("T1", true).is_none());
        assert!(run("nope", true).is_none());
    }
}
