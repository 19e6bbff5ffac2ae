//! The six workloads and the interface the measurement loops drive them
//! through.
//!
//! Each workload composes its system from the crates' public node types,
//! topology builders and generators — the program under test receives only
//! the generated inputs. One repetition is `setup` (everything up to the
//! first `Sim::run_*` call), `run`, and `collect`; `check` then verifies
//! the outputs without being timed.

pub mod discovery;
pub mod invoke;
pub mod replog;
pub mod storm;

use std::collections::BTreeMap;

use rdv_netsim::{LinkSpec, NodeId, Sim, SimTime};
use rdv_p4rt::pipeline::SwitchNode;
use rdv_trace::SampleSpec;

use crate::spans::Phases;
use crate::stats::splitmix64;
use crate::tap::{node_ref, Wrap};

/// Trace-ring capacity for the sampled-tracing repetition.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// What the measurement loop hands a workload's `setup`.
pub struct Env {
    /// How nodes are boxed (plain, tapped, spinning).
    pub wrap: Wrap,
    /// Engine shard count (1 everywhere except the `shards2` probe).
    pub shards: usize,
    /// Op-count divisor: 1 for the benchmark, 50 for `--smoke`.
    pub scale: u64,
    /// Arm deterministic sampled tracing with this spec.
    pub sample: Option<SampleSpec>,
    /// Where `setup.*` phase brackets are recorded.
    pub phases: Phases,
}

impl Env {
    /// Full-size, single-shard, untraced, plain nodes.
    pub fn plain() -> Env {
        Env { wrap: Wrap::plain(), shards: 1, scale: 1, sample: None, phases: Phases::default() }
    }

    /// `count` divided by the scale, at least `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        (count / self.scale).max(floor)
    }

    /// Arm sampled tracing on a freshly built sim when this run asks for it.
    pub fn arm_tracing(&self, sim: &mut Sim) {
        if let Some(spec) = &self.sample {
            sim.enable_trace_sampled(TRACE_CAPACITY, spec.clone());
        }
    }
}

/// What one repetition did, read back from the nodes after the run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the workload issued.
    pub attempted: u64,
    /// Ops that completed.
    pub completed: u64,
    /// Ops that failed typed or were refused.
    pub failed: u64,
    /// Simulated latency of every op that has one, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Simulated time from the first issue to the last completion.
    pub sim_span_ns: u64,
    /// Raw counts read from `Sim::counters` and the nodes' public counters,
    /// keyed `<layer>.<what>`; the traced run turns them into per-op ratios.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Ops attempted that neither completed nor failed typed.
    pub fn wedged(&self) -> u64 {
        self.attempted.saturating_sub(self.completed + self.failed)
    }

    /// A raw count, 0 when the workload has no such layer.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Add to a raw count.
    pub fn add(&mut self, key: &'static str, delta: u64) {
        *self.counts.entry(key).or_insert(0) += delta;
    }
}

/// State the per-layer replays need from a finished repetition: the
/// tables, caches and journals as the run left them. A workload fills in
/// what its layers have and leaves the rest empty.
#[derive(Default)]
pub struct ReplayState {
    /// A switch pipeline with its installed and learned routes.
    pub pipeline: Option<rdv_p4rt::pipeline::Pipeline>,
    /// A sample of the object images the run moved.
    pub images: Vec<Vec<u8>>,
    /// Byte budget of an invoker's object cache.
    pub cache_bytes: u64,
    /// A destination cache's `(object, holder)` contents.
    pub dest_entries: Vec<(rdv_objspace::ObjId, rdv_objspace::ObjId)>,
    /// One gossiping host's journal at the end of the run.
    pub journal: Option<rdv_gossip::Journal>,
    /// Placement view, oracle space and a sample of invoke calls.
    pub placement: Option<invoke::PlacementReplay>,
    /// The open-loop generator's specs.
    pub load: Option<replog::LoadReplay>,
    /// Event-queue model: times (ns) of the externally scheduled events
    /// that sit in the queue from the start of the run …
    pub queue_prefill_ns: Vec<u64>,
    /// … the delays (ns) node-generated events are pushed with …
    pub queue_delays_ns: Vec<u64>,
    /// … and how many node-generated events are resident at any time.
    pub queue_resident: usize,
}

/// One of the six workloads.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// One line on why the workload exists.
    fn why(&self) -> &'static str;

    /// Generate the inputs from `seed`, create the objects and build the
    /// fabric: everything before the first `Sim::run_*` call.
    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared>;
}

/// A built repetition.
pub trait Prepared {
    /// The `Sim::run_*` call.
    fn run(&mut self);

    /// Read the results back from the nodes.
    fn collect(&mut self) -> Outcome;

    /// Verify the outputs (untimed). `Err` names the first violated check.
    fn check(&mut self, outcome: &Outcome) -> Result<(), String>;

    /// The simulator, for counters and the tracer.
    fn sim(&mut self) -> &mut Sim;

    /// End-of-run state for the per-layer replays.
    fn replay_state(&mut self) -> ReplayState;
}

/// The six workloads in their fixed run order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(storm::Storm100k),
        Box::new(replog::ReplogBlip),
        Box::new(discovery::DiscoveryStale),
        Box::new(replog::Gossip256),
        Box::new(invoke::Invoke { write: false }),
        Box::new(invoke::Invoke { write: true }),
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all().into_iter().find(|w| w.name() == name)
}

/// Fold the engine's deterministic counters into `out.counts`.
pub fn engine_counts(sim: &Sim, out: &mut Outcome) {
    for name in [
        "sim.events",
        "sim.packets_sent",
        "sim.packets_delivered",
        "sim.packets_dropped",
        "sim.timers",
    ] {
        out.add(name, sim.counters.get(name));
    }
}

/// Fold one switch's pipeline counters into `out.counts`: `p4rt.applies`
/// (packets run through `Pipeline::apply`) and `p4rt.hit` (those an
/// exact-match entry forwarded; the rest took the default action).
pub fn switch_counts(sim: &Sim, switch: NodeId, out: &mut Outcome) {
    let counters = &node_ref::<SwitchNode>(sim, switch).counters;
    out.add("p4rt.hit", counters.get("hit"));
    for name in ["hit", "flood", "flood_suppressed", "punt", "drop", "parse_error"] {
        out.add("p4rt.applies", counters.get(name));
    }
}

/// `link` with the run's cable-length jitter: extra propagation delay of up
/// to 0.2 % of the link's own (0–1 ns on the storm's 500 ns host links,
/// 0–10 ns on a 5 µs rack link), drawn from the seed. Every workload's
/// fabric is otherwise so lightly loaded that its simulated latencies
/// would be the same constants for every seed; the jitter makes each seed
/// a (minutely) different fabric, so simulated metrics vary between seeds
/// like every other input while staying exact for a given seed.
pub fn jittered(link: LinkSpec, seed: u64) -> LinkSpec {
    let extra = splitmix64(seed) % (1 + link.latency.as_nanos() / 500);
    LinkSpec { latency: link.latency + SimTime::from_nanos(extra), ..link }
}
