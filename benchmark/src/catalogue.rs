//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit, direction, regression bound and — for layer metrics —
//! which end-to-end metric it should move on which workload. The single
//! source `BENCHMARK.json`, the README tables and the run's own
//! completeness checks are held against (`tests/manifest.rs`).

/// `(name, unit, better, bound)`. The bound is the share of the parent's
/// median by which the metric may worsen before a change is rejected. The
/// floors are the issue's; bounds above their floor were raised to at
/// least three times the ten-run spread in `baseline_spread.json`.
/// `failed_share` is absent: it is 0 on every workload (a metric that is
/// 0 cannot carry a relative bound) and travels as the result's
/// `failed`/`attempted` instead.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.20),
    ("host_ns_per_op", "ns", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_p50_us", "us", "lower", 0.01),
    ("sim_p99_us", "us", "lower", 0.01),
    ("sim_p999_us", "us", "lower", 0.03),
    ("sim_goodput_kops", "kops/s", "higher", 0.03),
    ("sim_packets_per_op", "packets", "lower", 0.04),
];

/// `(name, unit, better, moves)`: `moves` says which end-to-end metric the
/// layer metric should move, on which workload.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "netsim.queue_ns_per_event",
        "ns",
        "lower",
        "host_ns_per_op on storm_100k (most of it with dispatch); minor elsewhere",
    ),
    ("netsim.dispatch_ns_per_event", "ns", "lower", "host_ns_per_op on storm_100k"),
    ("netsim.events_per_op", "count", "lower", "host_ns_per_op on every workload"),
    (
        "netsim.timers_per_op",
        "count",
        "lower",
        "host_ns_per_op wherever nodes defer through timers (all but storm_100k)",
    ),
    ("netsim.build_ns_per_host", "ns", "lower", "setup_s on storm_100k"),
    ("netsim.bytes_per_host", "B", "lower", "peak_rss_mb on storm_100k"),
    ("netsim.dropped_share", "ratio", "lower", "failed ops and sim_p999_us on replog_blip"),
    (
        "netsim.shards2_speedup",
        "ratio",
        "higher",
        "reported only (storm_100k): the unmeasured parallel claim",
    ),
    (
        "p4rt.apply_ns_per_pkt",
        "ns",
        "lower",
        "host_ns_per_op on discovery_stale; little on invoke_*, none on storm_100k",
    ),
    (
        "p4rt.applies_per_op",
        "count",
        "lower",
        "host_ns_per_op and sim_packets_per_op on discovery_stale",
    ),
    (
        "p4rt.default_action_share",
        "ratio",
        "lower",
        "sim_packets_per_op on discovery_stale (floods leave the exact-match fast path)",
    ),
    (
        "wire.encode_ns_per_msg",
        "ns",
        "lower",
        "host_ns_per_op on replog_blip (per message) and invoke_read (per byte)",
    ),
    ("wire.decode_ns_per_msg", "ns", "lower", "host_ns_per_op on replog_blip and invoke_read"),
    ("wire.bytes_per_msg", "B", "lower", "wire.*_ns_per_msg and simulated link time on invoke_*"),
    (
        "wire.frame_ns_per_kib",
        "ns",
        "lower",
        "reported only: no node on the six paths frames with FrameCodec",
    ),
    (
        "memproto.transport_ns_per_msg",
        "ns",
        "lower",
        "reported only: no node on the six paths uses ReliableEndpoint",
    ),
    (
        "memproto.retransmits_per_kop",
        "count",
        "lower",
        "host_ns_per_op and sim_p999_us on replog_blip (watchdog re-sends)",
    ),
    ("memproto.frag_ns_per_kib", "ns", "lower", "host_ns_per_op on invoke_read"),
    ("memproto.cache_get_ns", "ns", "lower", "host_ns_per_op on invoke_read"),
    ("memproto.cache_insert_ns", "ns", "lower", "host_ns_per_op on invoke_read (LRU victim scan)"),
    (
        "memproto.cache_hit_share",
        "ratio",
        "higher",
        "sim_p50_us and sim_packets_per_op on invoke_read",
    ),
    ("memproto.evictions_per_kop", "count", "lower", "sim_packets_per_op on invoke_read"),
    ("memproto.dir_write_ns", "ns", "lower", "host_ns_per_op on invoke_write"),
    (
        "memproto.invalidations_per_write",
        "count",
        "lower",
        "sim_p50_us and sim_packets_per_op on invoke_write",
    ),
    ("discovery.destcache_lookup_ns", "ns", "lower", "host_ns_per_op on discovery_stale"),
    (
        "discovery.destcache_hit_share",
        "ratio",
        "higher",
        "sim_packets_per_op and sim_p99_us on discovery_stale",
    ),
    (
        "discovery.broadcasts_per_kop",
        "count",
        "lower",
        "sim_packets_per_op and sim_p99_us on discovery_stale",
    ),
    ("discovery.nacks_per_kop", "count", "lower", "sim_p99_us on discovery_stale"),
    ("discovery.access_timeouts_per_kop", "count", "lower", "sim_p999_us on replog_blip"),
    ("discovery.abandoned_share", "ratio", "lower", "failed ops on replog_blip"),
    ("gossip.round_ns", "ns", "lower", "host_ns_per_op on gossip_256; flat elsewhere"),
    ("gossip.digest_ns", "ns", "lower", "host_ns_per_op on gossip_256 (inside round_ns)"),
    (
        "gossip.apply_ns_per_fact",
        "ns",
        "lower",
        "host_ns_per_op on gossip_256 while journals converge",
    ),
    ("gossip.msgs_per_node_round", "count", "lower", "sim_packets_per_op on gossip_256"),
    ("gossip.delta_facts_per_round", "count", "lower", "host_ns_per_op on gossip_256"),
    (
        "gossip.repair_hit_share",
        "ratio",
        "higher",
        "reported: 0 with gossip off or in controller mode",
    ),
    ("core.placement_ns_per_invoke", "ns", "lower", "host_ns_per_op on invoke_read"),
    ("core.local_invoke_ns", "ns", "lower", "reported: the no-network floor of one invoke"),
    (
        "core.demand_fetches_per_op",
        "count",
        "lower",
        "sim_p50_us and host_ns_per_op on invoke_read and invoke_write",
    ),
    (
        "core.script_retries_per_kop",
        "count",
        "lower",
        "sim_p999_us on invoke_* (0 on lossless links)",
    ),
    ("objspace.image_ns_per_kib", "ns", "lower", "host_ns_per_op on invoke_read and invoke_write"),
    ("load.generate_ns_per_arrival", "ns", "lower", "setup_s on replog_blip"),
    ("load.batch_ns_per_arrival", "ns", "lower", "setup_s on replog_blip"),
    (
        "load.bytes_per_arrival",
        "B",
        "lower",
        "peak_rss_mb on replog_blip (where streaming arrivals would land)",
    ),
    ("load.slo_ns_per_completion", "ns", "lower", "reported: SLO series cost per completed batch"),
    ("host.allocs_per_op", "count", "lower", "host_ns_per_op on every workload"),
    ("host.alloc_bytes_per_op", "B", "lower", "host_ns_per_op on every workload"),
    (
        "node.host_ns_per_call",
        "ns",
        "lower",
        "host_ns_per_op on replog_blip, discovery_stale, gossip_256",
    ),
    (
        "node.host_calls_per_op",
        "count",
        "lower",
        "host_ns_per_op on replog_blip, discovery_stale, gossip_256",
    ),
    ("node.switch_ns_per_call", "ns", "lower", "host_ns_per_op on every workload but storm_100k"),
    (
        "node.switch_calls_per_op",
        "count",
        "lower",
        "host_ns_per_op on every workload but storm_100k",
    ),
    ("node.gashost_ns_per_call", "ns", "lower", "host_ns_per_op on invoke_read and invoke_write"),
    (
        "node.gashost_calls_per_op",
        "count",
        "lower",
        "host_ns_per_op on invoke_read and invoke_write",
    ),
    ("node.echo_ns_per_call", "ns", "lower", "host_ns_per_op on storm_100k"),
    ("node.echo_calls_per_op", "count", "lower", "host_ns_per_op on storm_100k"),
    ("simpath.p50_host_share", "ratio", "lower", "who owns sim_p50_us: serve delays and compute"),
    (
        "simpath.p50_queue_share",
        "ratio",
        "lower",
        "who owns sim_p50_us: serialization and queueing",
    ),
    ("simpath.p50_link_share", "ratio", "lower", "who owns sim_p50_us: propagation"),
    ("simpath.p50_timer_wait_share", "ratio", "lower", "who owns sim_p50_us: deliberate delays"),
    ("simpath.p999_host_share", "ratio", "lower", "who owns sim_p999_us"),
    ("simpath.p999_queue_share", "ratio", "lower", "who owns sim_p999_us"),
    ("simpath.p999_link_share", "ratio", "lower", "who owns sim_p999_us"),
    (
        "simpath.p999_timer_wait_share",
        "ratio",
        "lower",
        "who owns sim_p999_us: on replog_blip the discovery watchdog",
    ),
    (
        "stack.predicted_ns_per_op",
        "ns",
        "higher",
        "sum of calls-per-op × ns-per-call; should approach host_ns_per_op",
    ),
    ("stack.unexplained_share", "ratio", "lower", "gap between the stack and host_ns_per_op"),
    ("trace.tap_overhead_share", "ratio", "lower", "cost of observing with taps"),
    ("trace.sampled_overhead_share", "ratio", "lower", "cost of observing with sampled tracing"),
];

/// How long one contract run measures: five repetitions of about two seconds.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the catalogue and the workload list.
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        workloads
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better, _)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
