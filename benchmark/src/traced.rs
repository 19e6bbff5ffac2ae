//! The traced run: the separate run that produces the per-layer numbers.
//!
//! Four repetitions of one workload in one process:
//!
//! 1. a *reference* repetition with plain nodes — the untraced time every
//!    overhead and the cost stack's gap are measured against, and the one
//!    allocations are counted over;
//! 2. a *tapped* repetition with every node boxed in a [`crate::tap::Tap`]
//!    — call counts and host time per node kind, engine self time, the
//!    captured payloads and end-of-run state the layer replays run on;
//! 3. a *sampled-tracing* repetition (`rdv_trace` sampler + critical
//!    path) — which category owns the median and the tail op's latency;
//! 4. on `storm_100k` only, a `shards = 2` repetition for the unmeasured
//!    parallel claim.
//!
//! Every repetition must reproduce the reference's simulated statistics
//! exactly: observing may cost host time, never change what was simulated.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rdv_trace::{CriticalPath, EventKind, SampleSpec, Tracer, CATEGORIES};

use crate::catalogue;
use crate::cli::Metric;
use crate::layers::{self, LayerCosts};
use crate::measure::{repetition, RepTiming, SimStats};
use crate::spans::{PhaseSpan, Phases};
use crate::tap::{Call, Kind, TapSink, Wrap};
use crate::workloads::{Env, Outcome, Prepared, Workload};

/// Span labels that bracket one op, by workload family.
const OP_SPANS: [&str; 4] = ["fabric.storm", "load.batch", "discovery.access", "core.script"];

/// Timer tags below this start a script on a `GasHostNode` (its internal
/// tags all carry a bit above 2⁵⁸).
const SCRIPT_TAG_LIMIT: u64 = 1 << 40;

fn phase_s(spans: &[PhaseSpan], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e9).sum()
}

fn current_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One row of the cost stack.
struct StackRow {
    layer: &'static str,
    what: &'static str,
    calls_per_op: f64,
    ns_per_call: f64,
}

impl StackRow {
    fn ns_per_op(&self) -> f64 {
        self.calls_per_op * self.ns_per_call
    }
}

/// Shares of an op's simulated critical path by category, in
/// [`CATEGORIES`] order (host, queue, link, timer.wait).
fn path_shares(tracer: &Tracer, end: rdv_trace::EventId) -> [f64; 4] {
    let path = CriticalPath::from_span(tracer, end);
    let total = path.total_ns.max(1) as f64;
    let mut shares = [0.0; 4];
    for (i, cat) in CATEGORIES.iter().enumerate() {
        shares[i] = path.category_ns(cat) as f64 / total;
    }
    shares
}

/// Critical-path shares of the median and the 99.9th-percentile op among
/// the ops the sampler kept, and how many it kept.
fn simpath(tracer: &Tracer) -> ([f64; 4], [f64; 4], usize) {
    let mut ops: Vec<(u64, rdv_trace::EventId)> = tracer
        .iter()
        .filter(|(_, e)| matches!(e.kind, EventKind::SpanEnd { name } if OP_SPANS.contains(&name)))
        .filter_map(|(id, e)| {
            let begin = tracer.get(e.aux?)?;
            Some((e.at.saturating_sub(begin.at), id))
        })
        .collect();
    if ops.is_empty() {
        return ([0.0; 4], [0.0; 4], 0);
    }
    ops.sort_unstable_by_key(|&(lat, id)| (lat, id.0));
    let at = |permille: usize| ops[(permille * ops.len()).div_ceil(1000).clamp(1, ops.len()) - 1].1;
    (path_shares(tracer, at(500)), path_shares(tracer, at(999)), ops.len())
}

struct Rep {
    prepared: Box<dyn Prepared>,
    outcome: Outcome,
    stats: SimStats,
    timing: RepTiming,
    spans: Vec<PhaseSpan>,
}

fn rep(
    workload: &dyn Workload,
    seed: u64,
    env: &Env,
    reference: Option<&SimStats>,
) -> Result<Rep, String> {
    let (prepared, mut outcome, timing) = repetition(workload, seed, env);
    let stats = SimStats::of(&mut outcome);
    if let Some(reference) = reference {
        if *reference != stats {
            return Err(format!(
                "observing changed what was simulated: {stats:?} vs reference {reference:?}"
            ));
        }
    }
    Ok(Rep { prepared, outcome, stats, timing, spans: env.phases.spans() })
}

/// Run the traced repetitions of `workload`, print every per-layer metric
/// and write the span file and the cost-stack fragment under `out_dir`.
pub fn run(workload: &dyn Workload, seed: u64, scale: u64, out_dir: &Path) -> Result<(), String> {
    // 1. Reference.
    let ref_env = Env { scale, ..Env::plain() };
    let rss_before = current_rss_bytes();
    let mut reference = rep(workload, seed, &ref_env, None)?;
    let rss_after = current_rss_bytes();
    reference.prepared.check(&reference.outcome)?;
    if reference.stats.failed != 0 {
        return Err(format!("{} ops failed or never completed", reference.stats.failed));
    }
    let nodes = reference.prepared.sim().node_count() as f64;
    let ref_spans = reference.spans;
    let ref_stats = reference.stats;
    let ref_timing = reference.timing;
    let run_allocs = ref_timing.run_allocs;
    drop(reference.prepared);

    // 2. Tapped.
    let sink = Arc::new(TapSink::default());
    let tap_env = Env {
        wrap: Wrap::tapped(sink.clone()),
        scale,
        phases: Phases::since(sink.epoch()),
        ..Env::plain()
    };
    let mut tapped = rep(workload, seed, &tap_env, Some(&ref_stats))?;
    let mut state = tapped.prepared.replay_state();
    let o = tapped.outcome;
    let tap_timing = tapped.timing;
    let tap_spans = tapped.spans;
    drop(tapped.prepared);
    let payloads = sink.payloads();
    let sharers = ratio(o.count("core.dir_invalidates_sent"), o.count("core.writes_served"));
    let costs = layers::replay(&mut state, &payloads, sharers);
    drop(state);

    // 3. Sampled tracing.
    let storm = workload.name() == "storm_100k";
    let spec = SampleSpec {
        seed,
        default_permille: if storm { 10 } else { 50 },
        classes: vec![("gossip.round", 0)],
    };
    let sample_env = Env {
        wrap: Wrap::plain().rooting_scripts(SCRIPT_TAG_LIMIT),
        sample: Some(spec),
        scale,
        ..Env::plain()
    };
    let mut sampled = rep(workload, seed, &sample_env, Some(&ref_stats))?;
    let tracer = sampled.prepared.sim().take_tracer();
    let (p50_path, p999_path, kept_ops) = simpath(&tracer);
    let sampled_timing = sampled.timing;
    drop(sampled);
    drop(tracer);

    // 4. shards = 2, where the parallel claim lives.
    let shards2_speedup = if storm {
        let env2 = Env { shards: 2, scale, ..Env::plain() };
        let two = rep(workload, seed, &env2, Some(&ref_stats))?;
        phase_s(&ref_spans, "run.sim") / phase_s(&two.spans, "run.sim")
    } else {
        0.0
    };

    // Derive the per-layer metrics.
    let ops = ref_stats.completed.max(1);
    let per_op = |n: u64| n as f64 / ops as f64;
    let per_kop = |n: u64| n as f64 * 1000.0 / ops as f64;
    let events = o.count("sim.events").max(1);
    let host_ns_per_op = ref_timing.run_s * 1e9 / ops as f64;
    // Engine self time: the reference repetition's `run.sim` minus the time
    // the taps saw inside nodes. (The tapped repetition's own `run.sim`
    // would charge the taps' clock reads to the engine.)
    let engine_self_ns =
        (phase_s(&ref_spans, "run.sim") * 1e9 - sink.node_ns() as f64).max(0.0) / events as f64;
    let dispatch_ns = (engine_self_ns - costs.queue_ns_per_event).max(0.0);
    let (echo_calls, echo_ns) = sink.kind_total(Kind::Echo);
    let host_decodes: u64 =
        [Kind::Host, Kind::GasHost].iter().map(|&k| sink.class(k, Call::Packet).0).sum();
    let kib_moved = o.count("core.rx_bytes") as f64 / 1024.0 / ops as f64;
    let cache_lookups = o.count("memproto.cache_hits") + o.count("memproto.cache_misses");
    let dest_lookups = o.count("discovery.destcache_hits") + o.count("discovery.destcache_misses");
    let rounds = o.count("gossip.rounds");
    let gossip_msgs = o.count("gossip.digests_sent") + o.count("gossip.deltas_sent");
    let arrivals = o.count("load.arrivals");

    let stack = vec![
        StackRow {
            layer: "netsim",
            what: "CalendarQueue pop+push per event",
            calls_per_op: per_op(events),
            ns_per_call: costs.queue_ns_per_event,
        },
        StackRow {
            layer: "netsim",
            what: "engine dispatch per event (reference run.sim − taps − queue)",
            calls_per_op: per_op(events),
            ns_per_call: dispatch_ns,
        },
        StackRow {
            layer: "node",
            what: "the benchmark's own echo nodes (from the taps)",
            calls_per_op: per_op(echo_calls),
            ns_per_call: ratio(echo_ns, echo_calls),
        },
        StackRow {
            layer: "p4rt",
            what: "Pipeline::apply per switch packet",
            calls_per_op: per_op(o.count("p4rt.applies")),
            ns_per_call: costs.p4rt_apply_ns,
        },
        StackRow {
            layer: "wire",
            what: "Msg::encode per host-sent packet",
            calls_per_op: per_op(o.count("wire.host_packets")),
            ns_per_call: costs.wire_encode_ns,
        },
        StackRow {
            layer: "wire",
            what: "Msg::decode per host-received packet",
            calls_per_op: per_op(host_decodes),
            ns_per_call: costs.wire_decode_ns,
        },
        StackRow {
            layer: "memproto",
            what: "fragment+reassemble per KiB of image",
            calls_per_op: kib_moved,
            ns_per_call: costs.frag_ns_per_kib,
        },
        StackRow {
            layer: "objspace",
            what: "to_image+from_image per KiB of image",
            calls_per_op: kib_moved,
            ns_per_call: costs.image_ns_per_kib,
        },
        StackRow {
            layer: "memproto",
            what: "ObjectCache::get",
            calls_per_op: per_op(cache_lookups),
            ns_per_call: costs.cache_get_ns,
        },
        StackRow {
            layer: "memproto",
            what: "ObjectCache::insert (evicting)",
            calls_per_op: per_op(o.count("core.fetch_completed")),
            ns_per_call: costs.cache_insert_ns,
        },
        StackRow {
            layer: "memproto",
            what: "Directory write + sharer re-registration",
            calls_per_op: per_op(o.count("core.writes_served")),
            ns_per_call: costs.dir_write_ns,
        },
        StackRow {
            layer: "discovery",
            what: "DestCache::lookup_at",
            calls_per_op: per_op(dest_lookups),
            ns_per_call: costs.destcache_lookup_ns,
        },
        StackRow {
            layer: "gossip",
            what: "GossipSync::on_round",
            calls_per_op: per_op(rounds),
            ns_per_call: costs.gossip_round_ns,
        },
        StackRow {
            layer: "gossip",
            what: "GossipSync::on_msg per digest/delta",
            calls_per_op: per_op(gossip_msgs),
            ns_per_call: costs.gossip_msg_ns,
        },
        StackRow {
            layer: "core",
            what: "PlacementEngine::choose per invoke",
            calls_per_op: per_op(o.count("core.invokes")),
            ns_per_call: costs.placement_ns,
        },
    ];
    let predicted: f64 = stack.iter().map(StackRow::ns_per_op).sum();
    let unexplained = 1.0 - predicted / host_ns_per_op;
    let tap_overhead = tap_timing.run_s / ref_timing.run_s - 1.0;
    let sampled_overhead = sampled_timing.run_s / ref_timing.run_s - 1.0;

    let mut values: Vec<(String, f64)> = vec![
        ("netsim.queue_ns_per_event".into(), costs.queue_ns_per_event),
        ("netsim.dispatch_ns_per_event".into(), dispatch_ns),
        ("netsim.events_per_op".into(), per_op(events)),
        ("netsim.timers_per_op".into(), per_op(o.count("sim.timers"))),
        ("netsim.build_ns_per_host".into(), phase_s(&ref_spans, "setup.build") * 1e9 / nodes),
        ("netsim.bytes_per_host".into(), (rss_after - rss_before).max(0.0) / nodes),
        (
            "netsim.dropped_share".into(),
            ratio(o.count("sim.packets_dropped"), o.count("sim.packets_sent")),
        ),
        ("netsim.shards2_speedup".into(), shards2_speedup),
        ("p4rt.apply_ns_per_pkt".into(), costs.p4rt_apply_ns),
        ("p4rt.applies_per_op".into(), per_op(o.count("p4rt.applies"))),
        (
            "p4rt.default_action_share".into(),
            ratio(o.count("p4rt.applies") - o.count("p4rt.hit"), o.count("p4rt.applies")),
        ),
        ("wire.encode_ns_per_msg".into(), costs.wire_encode_ns),
        ("wire.decode_ns_per_msg".into(), costs.wire_decode_ns),
        ("wire.bytes_per_msg".into(), costs.wire_bytes_per_msg),
        ("wire.frame_ns_per_kib".into(), costs.wire_frame_ns_per_kib),
        ("memproto.transport_ns_per_msg".into(), costs.transport_ns_per_msg),
        (
            "memproto.retransmits_per_kop".into(),
            per_kop(o.count("discovery.access_timeouts") + o.count("core.retries")),
        ),
        ("memproto.frag_ns_per_kib".into(), costs.frag_ns_per_kib),
        ("memproto.cache_get_ns".into(), costs.cache_get_ns),
        ("memproto.cache_insert_ns".into(), costs.cache_insert_ns),
        ("memproto.cache_hit_share".into(), ratio(o.count("memproto.cache_hits"), cache_lookups)),
        ("memproto.evictions_per_kop".into(), per_kop(o.count("memproto.cache_evictions"))),
        ("memproto.dir_write_ns".into(), costs.dir_write_ns),
        ("memproto.invalidations_per_write".into(), sharers),
        ("discovery.destcache_lookup_ns".into(), costs.destcache_lookup_ns),
        (
            "discovery.destcache_hit_share".into(),
            ratio(o.count("discovery.destcache_hits"), dest_lookups),
        ),
        ("discovery.broadcasts_per_kop".into(), per_kop(o.count("discovery.broadcasts"))),
        ("discovery.nacks_per_kop".into(), per_kop(o.count("discovery.nacks"))),
        ("discovery.access_timeouts_per_kop".into(), per_kop(o.count("discovery.access_timeouts"))),
        ("discovery.abandoned_share".into(), ratio(o.count("discovery.abandoned"), o.attempted)),
        ("gossip.round_ns".into(), costs.gossip_round_ns),
        ("gossip.digest_ns".into(), costs.gossip_digest_ns),
        ("gossip.apply_ns_per_fact".into(), costs.gossip_apply_ns_per_fact),
        ("gossip.msgs_per_node_round".into(), ratio(gossip_msgs, rounds)),
        ("gossip.delta_facts_per_round".into(), ratio(o.count("gossip.entries_applied"), rounds)),
        (
            "gossip.repair_hit_share".into(),
            ratio(
                o.count("gossip.repair_hits"),
                o.count("gossip.repair_hits") + o.count("discovery.broadcasts"),
            ),
        ),
        ("core.placement_ns_per_invoke".into(), costs.placement_ns),
        ("core.local_invoke_ns".into(), costs.local_invoke_ns),
        ("core.demand_fetches_per_op".into(), per_op(o.count("core.fetch_demand"))),
        ("core.script_retries_per_kop".into(), per_kop(o.count("core.retries"))),
        ("objspace.image_ns_per_kib".into(), costs.image_ns_per_kib),
        (
            "load.generate_ns_per_arrival".into(),
            ratio((phase_s(&ref_spans, "setup.generate") * 1e9) as u64, arrivals),
        ),
        (
            "load.batch_ns_per_arrival".into(),
            ratio((phase_s(&ref_spans, "setup.batch") * 1e9) as u64, arrivals),
        ),
        ("load.bytes_per_arrival".into(), ratio(o.count("load.input_bytes"), arrivals)),
        ("load.slo_ns_per_completion".into(), costs.slo_ns_per_completion),
        ("host.allocs_per_op".into(), per_op(run_allocs.0)),
        ("host.alloc_bytes_per_op".into(), per_op(run_allocs.1)),
    ];
    for kind in Kind::ALL {
        let (calls, ns) = sink.kind_total(kind);
        values.push((format!("node.{}_ns_per_call", kind.name()), ratio(ns, calls)));
        values.push((format!("node.{}_calls_per_op", kind.name()), per_op(calls)));
    }
    for (prefix, shares) in [("p50", p50_path), ("p999", p999_path)] {
        for (cat, share) in ["host", "queue", "link", "timer_wait"].iter().zip(shares) {
            values.push((format!("simpath.{prefix}_{cat}_share"), share));
        }
    }
    values.push(("stack.predicted_ns_per_op".into(), predicted));
    values.push(("stack.unexplained_share".into(), unexplained));
    values.push(("trace.tap_overhead_share".into(), tap_overhead));
    values.push(("trace.sampled_overhead_share".into(), sampled_overhead));

    let metrics: Vec<Metric> = catalogue::PER_LAYER
        .iter()
        .map(|&(name, unit, _, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not derived"));
            Metric { name: name.to_string(), value, unit, n: 1 }
        })
        .collect();
    assert_eq!(metrics.len(), values.len(), "a derived metric is missing from the catalogue");

    // Spans stay in memory until here; now write them out.
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let spans_path = out_dir.join(format!("{}.spans.json", workload.name()));
    std::fs::write(&spans_path, spans_json(workload.name(), seed, &tap_spans, &sink))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let stack_path = out_dir.join(format!("{}.stack.md", workload.name()));
    let md = stack_md(
        workload,
        host_ns_per_op,
        &stack,
        &sink,
        ops,
        predicted,
        unexplained,
        tap_overhead,
        &costs,
        kept_ops,
    );
    std::fs::write(&stack_path, md).map_err(|e| format!("write {}: {e}", stack_path.display()))?;

    let json: Vec<&Metric> = metrics.iter().collect();
    crate::cli::report(workload.name(), ref_stats.attempted, ref_stats.failed, &metrics, &json);
    Ok(())
}

/// The span file: phase brackets, per-class aggregates and the sampled
/// individual node calls of the tapped repetition, one time base.
fn spans_json(workload: &str, seed: u64, phases: &[PhaseSpan], sink: &TapSink) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"repetition\": \"tapped\","
    );
    out.push_str("\n \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = if p.name.starts_with("setup.") { "setup" } else { "repetition" };
        let _ = write!(
            out,
            "{sep}\n  {{\"name\": \"{}\", \"parent\": \"{parent}\", \"start_ns\": {}, \"end_ns\": {}}}",
            p.name, p.start_ns, p.end_ns
        );
    }
    out.push_str("\n ],\n \"classes\": [");
    let mut first = true;
    for kind in Kind::ALL {
        for call in Call::ALL {
            let (calls, ns) = sink.class(kind, call);
            if calls == 0 {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"node.{}.{}\", \"parent\": \"run.sim\", \"calls\": {calls}, \"total_ns\": {ns}}}",
                kind.name(),
                call.name()
            );
        }
    }
    out.push_str("\n ],\n \"calls\": [");
    for (i, s) in sink.call_spans().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {{\"name\": \"node.{}.{}\", \"parent\": \"run.sim\", \"node\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.kind.name(),
            s.call.name(),
            s.node,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n ]\n}\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn stack_md(
    workload: &dyn Workload,
    host_ns_per_op: f64,
    stack: &[StackRow],
    sink: &TapSink,
    ops: u64,
    predicted: f64,
    unexplained: f64,
    tap_overhead: f64,
    costs: &LayerCosts,
    kept_ops: usize,
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "## {}\n", workload.name());
    let _ = writeln!(md, "{}\n", workload.why());
    let _ = writeln!(
        md,
        "Untraced `host_ns_per_op` (reference repetition of the traced run): **{host_ns_per_op:.1} ns** over {ops} ops.\n"
    );
    let _ = writeln!(md, "| layer | call | calls/op | ns/call | ns/op | share |");
    let _ = writeln!(md, "|---|---|---:|---:|---:|---:|");
    for row in stack.iter().filter(|r| r.ns_per_op() > 0.0) {
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} | {:.1} | {:.1} | {:.1} % |",
            row.layer,
            row.what,
            row.calls_per_op,
            row.ns_per_call,
            row.ns_per_op(),
            row.ns_per_op() / host_ns_per_op * 100.0
        );
    }
    let _ = writeln!(
        md,
        "| **stack** | predicted | | | **{predicted:.1}** | {:.1} % |",
        predicted / host_ns_per_op * 100.0
    );
    let _ = writeln!(
        md,
        "| | `stack.unexplained_share` | | | {:.1} | **{:.1} %** |\n",
        host_ns_per_op - predicted,
        unexplained * 100.0
    );
    let _ = writeln!(
        md,
        "Host time inside nodes, from the taps (traced, tap overhead {:.0} %):\n",
        tap_overhead * 100.0
    );
    let _ = writeln!(md, "| node kind | calls/op | ns/call | ns/op |");
    let _ = writeln!(md, "|---|---:|---:|---:|");
    let mut node_ns_per_op = 0.0;
    for kind in Kind::ALL {
        let (calls, ns) = sink.kind_total(kind);
        if calls == 0 {
            continue;
        }
        node_ns_per_op += ns as f64 / ops as f64;
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.1} | {:.1} |",
            kind.name(),
            calls as f64 / ops as f64,
            ns as f64 / calls as f64,
            ns as f64 / ops as f64
        );
    }
    let in_nodes: f64 = stack
        .iter()
        .filter(|r| r.layer != "netsim" && r.layer != "node")
        .map(StackRow::ns_per_op)
        .sum();
    let _ = writeln!(md);
    if unexplained > 0.25 {
        let _ = writeln!(
            md,
            "More than a quarter is unexplained. The taps put {node_ns_per_op:.0} ns/op inside node \
             callbacks, of which the replayed layer calls account for {in_nodes:.0} ns/op: the rest is \
             most likely node-internal glue the replays do not reach — message construction, store and \
             `DetMap` bookkeeping (its `remove` is linear in the map), counters, and per-call allocation.\n"
        );
    }
    if unexplained < -0.25 {
        let _ = writeln!(
            md,
            "The stack over-predicts by more than a quarter: the replays run on end-of-run state — the \
             converged journal, the full tables and queue — and on the captured message mix, which cost \
             more per call than the run's average state did.\n"
        );
    }
    let reported: Vec<String> = [
        ("core.local_invoke_ns", costs.local_invoke_ns, ""),
        (
            "memproto.transport_ns_per_msg",
            costs.transport_ns_per_msg,
            " (no node on this path uses `ReliableEndpoint`)",
        ),
        ("wire.frame_ns_per_kib", costs.wire_frame_ns_per_kib, " (nor `FrameCodec`)"),
        ("gossip.digest_ns", costs.gossip_digest_ns, " (inside `on_round`)"),
    ]
    .iter()
    .filter(|(_, v, _)| *v > 0.0)
    .map(|(name, v, note)| format!("`{name}` {v:.0}{note}"))
    .collect();
    if !reported.is_empty() {
        let _ = writeln!(md, "Measured but not in the stack: {}.\n", reported.join(", "));
    }
    let _ = writeln!(md, "Simulated critical paths were taken over {kept_ops} sampled ops.\n");
    md
}
