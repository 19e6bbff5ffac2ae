//! The benchmark composes its workloads itself (so every node can be boxed
//! in a tap); these tests hold each composition, at a small size, to the
//! program's own harness — so the benchmark measures the program's
//! behaviour, not a drifting copy.

use rdv_bench::fabric::{host_link, run_fabric, trunk_link, FabricSpec};
use rdv_discovery::scenario::{run_discovery, ScenarioConfig, ScenarioKind};
use rdv_discovery::{DiscoveryMode, StalenessMode};
use rdv_load::{Blip, LoadFabricSpec, LoadRun, OpenLoopSpec, ReplogSpec};
use rdv_netsim::{LinkSpec, SimTime};
use rdvperf::workloads::discovery::{self, StaleSpec};
use rdvperf::workloads::replog::{self, ReplogParams};
use rdvperf::workloads::storm::{self, StormSpec};
use rdvperf::workloads::{Env, Prepared};

fn load_inputs(bystanders: usize, gossip: Option<SimTime>) -> (LoadFabricSpec, ReplogParams) {
    let replog = ReplogSpec::small();
    let mut open = OpenLoopSpec::flat(1000, replog.heads, 400_000, SimTime::from_millis(1));
    open.zipf_skew_permille = 900;
    let blip = Blip {
        at: SimTime::from_micros(300),
        dur: SimTime::from_micros(200),
        partition_holder: Some(0),
        crash_holder: Some(1),
    };
    let fabric =
        LoadFabricSpec { shards: 1, bystanders, gossip_period: gossip, ..LoadFabricSpec::small() };
    let params = ReplogParams {
        open,
        replog,
        holders: fabric.holders,
        bystanders,
        gossip_period: gossip,
        serve_delay: fabric.serve_delay,
        access_timeout: fabric.access_timeout,
        max_access_retries: fabric.max_access_retries,
        blip: Some(blip),
        link: replog::host_link_rack(),
    };
    (fabric, params)
}

fn assert_replog_matches_load_run(bystanders: usize, gossip: Option<SimTime>, seed: u64) {
    let (fabric, params) = load_inputs(bystanders, gossip);
    let theirs =
        LoadRun::execute(&fabric, &params.open, &params.replog, params.blip.as_ref(), seed, false);

    let env = Env::plain();
    let inputs = replog::generate(&params, seed, &env);
    let mut ours = replog::build(&params, &inputs, seed, &env, gossip.is_some());
    ours.run();
    let outcome = ours.collect();
    ours.check(&outcome).expect("the small run is self-consistent");

    assert!(theirs.completions.len() > 10, "workload too small to mean anything");
    assert_eq!(ours.completions(), theirs.completions, "completions differ");
    assert_eq!(outcome.failed as usize, theirs.failed, "failures differ");
    let counters = ours.counters();
    let mut compared = 0;
    for (name, value) in theirs.counters.iter().filter(|(n, _)| n.starts_with("sim.")) {
        assert_eq!(counters.get(name), value, "{name} differs");
        compared += 1;
    }
    assert!(compared >= 5, "expected the engine's sim.* counters, compared {compared}");
    assert!(theirs.counters.get("access_timeouts") > 0, "the blip must force re-sends");
    assert_eq!(counters.get("access_timeouts"), theirs.counters.get("access_timeouts"));
}

#[test]
fn replog_composition_matches_load_run_through_a_blip() {
    assert_replog_matches_load_run(0, None, 5);
}

#[test]
fn gossip_composition_matches_load_run_with_bystanders() {
    assert_replog_matches_load_run(29, Some(SimTime::from_micros(40)), 13);
}

#[test]
fn testbed_composition_matches_run_discovery() {
    for (staleness, pct_moved) in
        [(StalenessMode::NackRediscover, 30u8), (StalenessMode::InvalidateOnMove, 50)]
    {
        let cfg = ScenarioConfig {
            kind: ScenarioKind::Fig3Staleness { pct_moved },
            mode: DiscoveryMode::E2E,
            staleness,
            accesses: 200,
            seed: 11,
            ..ScenarioConfig::default()
        };
        let theirs = run_discovery(&cfg);

        let spec = StaleSpec {
            pool: cfg.accesses,
            rounds: 1,
            pct_moved: usize::from(pct_moved),
            access_gap: cfg.access_gap,
            staleness,
            link: LinkSpec::rack(),
        };
        let mut ours = discovery::build(&spec, cfg.seed, &Env::plain());
        ours.run();
        let outcome = ours.collect();
        ours.check(&outcome).expect("the small run is self-consistent");
        let (completed, broadcasts, nacks, latency_sum, events) = ours.summary();

        assert_eq!(theirs.incomplete, 0);
        assert_eq!(completed, theirs.completed, "{staleness:?}: completed");
        let their_broadcasts = theirs.broadcasts_per_100 * theirs.completed as f64 / 100.0;
        assert_eq!(broadcasts as f64, their_broadcasts.round(), "{staleness:?}: broadcasts");
        assert_eq!(nacks, theirs.nacks, "{staleness:?}: NACKs");
        assert_eq!(events, theirs.events, "{staleness:?}: events");
        let their_sum: u64 = theirs.rtt.samples().iter().sum();
        assert_eq!(latency_sum, their_sum, "{staleness:?}: latency sum");
    }
}

#[test]
fn storm_composition_matches_run_fabric() {
    let theirs_spec = FabricSpec {
        racks: 4,
        hosts_per_rack: 3,
        burst: 2,
        bounces: 20,
        ring_packets: 8,
        ring_hops: 12,
    };
    let spec = StormSpec {
        racks: theirs_spec.racks,
        hosts_per_rack: theirs_spec.hosts_per_rack,
        burst: theirs_spec.burst,
        bounces: theirs_spec.bounces,
        ring_packets: theirs_spec.ring_packets,
        ring_hops: theirs_spec.ring_hops,
        host_link: host_link(),
        trunk_link: trunk_link(),
    };
    for shards in [1usize, 2] {
        let (events, clock_ns) = run_fabric(&theirs_spec, 7, shards);
        let env = Env { shards, ..Env::plain() };
        let (mut sim, _ring) = storm::build(&spec, 7, &env);
        let ours = sim.run_until_idle();
        assert_eq!((ours, sim.now().as_nanos()), (events, clock_ns), "shards = {shards}");
        assert_eq!(events, spec.expected_events(), "closed form");
    }
}
