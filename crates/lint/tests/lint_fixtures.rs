//! Fixture tests: each rule fires with exact `file:line` diagnostics, the
//! allow-comment escape hatch suppresses, and the real workspace is clean.

use rdv_lint::rules::{
    enum_variants_in, lint_enum_parity, lint_handler_parity, lint_source, LintConfig, ParityTarget,
};
use rdv_lint::{lint_workspace, to_json, Diagnostic};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stub_cfg() -> LintConfig {
    LintConfig {
        sim_registry: vec!["sim.events".to_string()],
        gauge_registry: vec!["link.queue_bytes".to_string(), "transport.inflight".to_string()],
        load_registry: ["load.arrivals", "load.completions", "load.failures"]
            .map(String::from)
            .to_vec(),
        gossip_registry: ["gossip.rounds", "gossip.digests_sent"].map(String::from).to_vec(),
        span_registry: ["gossip.round", "load.batch", "fabric.storm"].map(String::from).to_vec(),
        obs_registry: ["obs.spans_sampled", "obs.spans_skipped"].map(String::from).to_vec(),
        flight_registry: ["flight.dumps", "flight.events"].map(String::from).to_vec(),
    }
}

/// (line, rule) pairs, in output order.
fn locs(diags: &[Diagnostic]) -> Vec<(usize, &str)> {
    diags.iter().map(|d| (d.line, d.rule.as_str())).collect()
}

#[test]
fn d1_flags_every_hash_collection_and_honors_allows() {
    let diags = lint_source("d1_hash.rs", &fixture("d1_hash.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (2, "D1/hash-order"),
            (3, "D1/hash-order"),
            (6, "D1/hash-order"),
            (6, "D1/hash-order"),
            (7, "D1/hash-order"),
            (7, "D1/hash-order"),
        ],
        "lines 11–12 are excused by allow comments; diagnostics were: {diags:#?}"
    );
    assert!(diags[0].message.contains("DetMap"), "fix hint names the replacement");
}

#[test]
fn d2_flags_ambient_time_rand_env_but_not_bare_imports() {
    let diags = lint_source("d2_ambient.rs", &fixture("d2_ambient.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (5, "D2/ambient-time"),
            (6, "D2/ambient-time"),
            (7, "D2/ambient-rand"),
            (8, "D2/ambient-rand"),
            (9, "D2/ambient-env"),
        ],
        "line 2 `use Instant` and line 14 (allowed) must not fire; got: {diags:#?}"
    );
}

#[test]
fn d3_enforces_name_scheme_and_sim_registry() {
    let diags = lint_source("d3_counters.rs", &fixture("d3_counters.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (3, "D3/counter-name"),
            (4, "D3/counter-name"),
            (5, "D3/counter-name"),
            (6, "D3/counter-name"),
            (7, "D3/counter-name"),
        ],
        "good names (lines 8–9) and the allowed legacy name (line 11) must pass; \
         got: {diags:#?}"
    );
    assert!(diags[3].message.contains("not a registered engine counter"));
}

#[test]
fn d3_enforces_event_name_scheme_on_trace_labels() {
    let diags = lint_source("d3_trace.rs", &fixture("d3_trace.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (2, "D3/event-name"),
            (3, "D3/event-name"),
            (4, "D3/event-name"),
            (5, "D3/event-name"),
        ],
        "good labels (lines 6–8) and the allowed one (line 10) must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("dotted lowercase"));
}

#[test]
fn d3_enforces_gauge_name_scheme_and_registry() {
    let diags = lint_source("d3_gauges.rs", &fixture("d3_gauges.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (3, "D3/gauge-name"),
            (4, "D3/gauge-name"),
            (5, "D3/gauge-name"),
            (6, "D3/gauge-name"),
        ],
        "registered names (lines 7–9), dynamic names (line 10), and the allowed one \
         (line 12) must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("dotted lowercase"));
    assert!(diags[3].message.contains("not a registered gauge"));
}

#[test]
fn d3_covers_the_sharded_engine_names() {
    // Same D3 rules, registries extended the way the real workspace's are:
    // the shard counters live in ENGINE_SLOTS, the shard gauges in
    // GAUGE_NAMES. Unregistered `sim.shard.*` / `shard.*` names must fire.
    let cfg = LintConfig {
        sim_registry: [
            "sim.events",
            "sim.shard.windows",
            "sim.shard.xshard_packets",
            "sim.shard.worker_spawns",
        ]
        .map(String::from)
        .to_vec(),
        gauge_registry: ["shard.queue_events", "shard.clock_ns"].map(String::from).to_vec(),
        load_registry: Vec::new(),
        gossip_registry: Vec::new(),
        span_registry: Vec::new(),
        obs_registry: Vec::new(),
        flight_registry: Vec::new(),
    };
    let diags = lint_source("d3_shards.rs", &fixture("d3_shards.rs"), &cfg);
    assert_eq!(
        locs(&diags),
        vec![(3, "D3/counter-name"), (4, "D3/gauge-name")],
        "registered shard names (lines 5–9) must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("not a registered engine counter"));
    assert!(diags[1].message.contains("not a registered gauge"));
}

#[test]
fn d3_enforces_load_counter_registry() {
    let diags = lint_source("d3_load.rs", &fixture("d3_load.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![(3, "D3/counter-name"), (4, "D3/counter-name")],
        "registered names (lines 5–7) and the allowed shim (line 9) must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("not a registered load-plane counter"));
    assert!(diags[1].message.contains("dotted lowercase"));
}

#[test]
fn d3_enforces_obs_flight_and_span_label_registries() {
    let diags = lint_source("d3_obs.rs", &fixture("d3_obs.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (5, "D3/counter-name"),
            (6, "D3/counter-name"),
            (7, "D3/event-name"),
            (8, "D3/event-name"),
            (9, "D3/event-name"),
        ],
        "registered names (lines 10–15), the unscoped discovery label (line 16), and \
         the allowed shims (lines 17–20) must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("not a registered sampler tally"));
    assert!(diags[1].message.contains("not a registered flight-recorder counter"));
    assert!(diags[2].message.contains("not a registered span label"));
}

/// The observability names the engine and protocol planes actually emit
/// are present in the real registries the workspace lint parses —
/// renaming a span label or a sampler/flight counter without updating
/// its table breaks here first.
#[test]
fn real_registries_carry_the_observability_names() {
    use rdv_lint::rules::{parse_flight_counters, parse_obs_counters, parse_span_labels};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let event = std::fs::read_to_string(root.join("crates/trace/src/event.rs")).unwrap();
    let spans = parse_span_labels(&event);
    for name in ["gossip.round", "gossip.sync", "load.batch", "load.head_advance", "fabric.storm"] {
        assert!(spans.iter().any(|s| s == name), "{name} missing from SPAN_LABELS");
    }
    let sample = std::fs::read_to_string(root.join("crates/trace/src/sample.rs")).unwrap();
    let obs = parse_obs_counters(&sample);
    for name in ["obs.spans_sampled", "obs.spans_skipped"] {
        assert!(obs.iter().any(|s| s == name), "{name} missing from OBS_COUNTERS");
    }
    let flight = std::fs::read_to_string(root.join("crates/netsim/src/flight.rs")).unwrap();
    let counters = parse_flight_counters(&flight);
    for name in ["flight.dumps", "flight.events"] {
        assert!(counters.iter().any(|s| s == name), "{name} missing from FLIGHT_COUNTERS");
    }
}

/// The load-plane counters the harness actually emits are present in the
/// real registry the workspace lint parses — renaming a `load.*` tally
/// without updating `LOAD_COUNTERS` breaks here first.
#[test]
fn real_registry_carries_the_load_counters() {
    use rdv_lint::rules::parse_load_counters;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let src = std::fs::read_to_string(root.join("crates/load/src/lib.rs")).unwrap();
    let counters = parse_load_counters(&src);
    for name in [
        "load.arrivals",
        "load.batches",
        "load.entries",
        "load.completions",
        "load.failures",
        "load.churn_joins",
        "load.churn_leaves",
    ] {
        assert!(counters.iter().any(|c| c == name), "{name} missing from LOAD_COUNTERS");
    }
}

/// The shard names the engine actually emits are present in the real
/// registries the workspace lint parses — if someone renames a slot, this
/// pins the D3 contract to the sharded engine's telemetry.
#[test]
fn real_registries_carry_the_shard_names() {
    use rdv_lint::rules::{parse_engine_slots, parse_gauge_names};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let stats = std::fs::read_to_string(root.join("crates/netsim/src/stats.rs")).unwrap();
    let slots = parse_engine_slots(&stats);
    for name in ["sim.shard.windows", "sim.shard.xshard_packets", "sim.shard.worker_spawns"] {
        assert!(slots.iter().any(|s| s == name), "{name} missing from ENGINE_SLOTS");
    }
    let metrics = std::fs::read_to_string(root.join("crates/metrics/src/lib.rs")).unwrap();
    let gauges = parse_gauge_names(&metrics);
    for name in ["shard.queue_events", "shard.clock_ns"] {
        assert!(gauges.iter().any(|g| g == name), "{name} missing from GAUGE_NAMES");
    }
}

#[test]
fn gauge_name_table_is_validated() {
    use rdv_lint::rules::lint_gauge_names;
    let bad =
        "pub const GAUGE_NAMES: [&str; 2] = [\n    \"link.queue_bytes\",\n    \"Bad.Gauge\",\n];\n";
    let diags = lint_gauge_names("lib.rs", bad);
    assert_eq!(locs(&diags), vec![(3, "D3/gauge-name")], "got: {diags:#?}");
    let missing = "pub const OTHER: &[&str] = &[\"x\"];\n";
    let diags = lint_gauge_names("lib.rs", missing);
    assert_eq!(locs(&diags), vec![(1, "D3/gauge-name")], "unparseable table is a finding");
}

#[test]
fn event_name_table_is_validated() {
    use rdv_lint::rules::lint_event_names;
    let bad =
        "pub const EVENT_NAMES: &[&str] = &[\n    \"packet.enqueue\",\n    \"Bad.Name\",\n];\n";
    let diags = lint_event_names("event.rs", bad);
    assert_eq!(locs(&diags), vec![(3, "D3/event-name")], "got: {diags:#?}");
    let missing = "pub const OTHER: &[&str] = &[\"x\"];\n";
    let diags = lint_event_names("event.rs", missing);
    assert_eq!(locs(&diags), vec![(1, "D3/event-name")], "unparseable table is a finding");
}

#[test]
fn d4_reports_decode_missing_a_variant() {
    let target = [ParityTarget { enum_name: "Frame", fns: &["encode", "decode"] }];
    let diags = lint_enum_parity("d4_parity.rs", &fixture("d4_parity.rs"), &target);
    assert_eq!(locs(&diags), vec![(17, "D4/wire-parity")], "got: {diags:#?}");
    assert!(diags[0].message.contains("Frame::Data"));
    assert!(diags[0].message.contains("fn decode"));
}

#[test]
fn d5_flags_engine_internals_outside_the_barrier_files() {
    let diags = lint_source("d5_shard.rs", &fixture("d5_shard.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (3, "D5/shard-interference"),
            (3, "D5/shard-interference"),
            (4, "D5/shard-interference"),
            (5, "D5/shard-interference"),
            (6, "D5/shard-interference"),
            (7, "D5/shard-interference"),
            (8, "D5/shard-interference"),
            (9, "D5/shard-interference"),
        ],
        "the allowed window-drive on line 11 must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("outbox"), "fix hint names the sanctioned channel");
}

#[test]
fn d5_and_d6_exempt_the_engine_internal_files() {
    // The same source is a violation in node code but legitimate inside the
    // engine's own barrier internals (the exemption is path-keyed).
    let src = "fn seed(gid: u64) {\n    let key = EventKey { at: 0, src: 0, seq: 0 };\n    \
               let rng = StdRng::seed_from_u64(gid);\n    self.queue.push(key, rng);\n}\n";
    let hits = lint_source("crates/foo/src/node.rs", src, &stub_cfg());
    assert_eq!(hits.len(), 2, "node code trips D5+D6: {hits:#?}");
    for file in [
        "crates/netsim/src/engine/mod.rs",
        "crates/netsim/src/engine/shard.rs",
        "crates/netsim/src/engine/tests.rs",
        "crates/netsim/src/queue.rs",
        "crates/netsim/src/audit.rs",
    ] {
        let diags = lint_source(file, src, &stub_cfg());
        assert!(diags.is_empty(), "{file} is barrier-internal and exempt: {diags:#?}");
    }
}

#[test]
fn d6_flags_stream_construction_cloning_and_entropy() {
    let diags = lint_source("d6_rng.rs", &fixture("d6_rng.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![
            (3, "D6/rng-stream"),
            (4, "D6/rng-stream"),
            (5, "D6/rng-stream"),
            (6, "D6/rng-stream"),
        ],
        "non-RNG clones (line 7) and the allowed generator stream (line 9) must pass; \
         got: {diags:#?}"
    );
    assert!(diags[0].message.contains("NodeCtx"), "fix hint names the per-node stream");
    assert!(diags[2].message.contains("cloning an RNG"), "clone case gets its own message");
}

#[test]
fn d7_reports_wildcard_dispatches_and_honors_allows() {
    let src = fixture("d7_handlers.rs");
    let variants = enum_variants_in(&src, "Body").expect("enum Body parses");
    assert_eq!(variants, ["Ping", "Pong", "Halt"]);
    let diags = lint_handler_parity(
        "d7_handlers.rs",
        &src,
        "Body",
        &variants,
        &["on_msg_good", "on_msg_bad", "on_msg_allowed"],
    );
    assert_eq!(
        locs(&diags),
        vec![(17, "D7/handler-parity"), (17, "D7/handler-parity")],
        "the exhaustive dispatch and the allowed demux must pass; got: {diags:#?}"
    );
    assert!(diags[0].message.contains("Body::Pong"));
    assert!(diags[1].message.contains("Body::Halt"));
    assert!(diags[0].message.contains("fn on_msg_bad"));
}

#[test]
fn json_output_is_stable_and_escaped() {
    let diags = vec![Diagnostic {
        file: "a.rs".to_string(),
        line: 3,
        rule: "D1/hash-order".to_string(),
        message: "uses \"HashMap\"".to_string(),
    }];
    assert_eq!(
        to_json(&diags),
        "[\n  {\"file\": \"a.rs\", \"line\": 3, \"rule\": \"D1/hash-order\", \
         \"message\": \"uses \\\"HashMap\\\"\"}\n]\n"
    );
    assert_eq!(to_json(&[]), "[]\n", "a clean run is an empty array, still valid JSON");
}

#[test]
fn malformed_allow_comments_are_diagnostics() {
    let diags = lint_source("bad_allow.rs", &fixture("bad_allow.rs"), &stub_cfg());
    assert_eq!(
        locs(&diags),
        vec![(2, "allow-syntax"), (3, "allow-syntax"), (4, "allow-syntax"), (5, "allow-syntax")],
        "got: {diags:#?}"
    );
    assert!(diags[0].message.contains("reason"), "missing-reason case explains the grammar");
}

#[test]
fn clean_fixture_has_zero_findings() {
    let diags = lint_source("clean.rs", &fixture("clean.rs"), &stub_cfg());
    assert!(diags.is_empty(), "strings/comments must never fire: {diags:#?}");
}

/// The acceptance criterion: the migrated workspace itself lints clean.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let diags = lint_workspace(root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "the deterministic crates must lint clean:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
