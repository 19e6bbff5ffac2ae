//! The discrete-event engine.
//!
//! [`Sim`] partitions its nodes into **shards**. Each shard owns its nodes'
//! behaviour, RNG streams, timers, outgoing link directions, and a local
//! event queue. Events are ordered by a canonical key
//! `(time, source, sequence)` ([`crate::queue::EventKey`]) where the
//! sequence number is per *source* (node or external scheduler), never a
//! global insertion counter — so the total order over events is a pure
//! function of the workload and does not depend on how many shards execute
//! it. That is the invariant that makes `--shards N` byte-identical to
//! `--shards 1` for every exported artifact.
//!
//! Execution modes:
//!
//! - **Serial** (one shard, tracing enabled, or a zero-latency cross-shard
//!   link): pop the globally smallest key, one event at a time — the
//!   classic loop.
//! - **Parallel** (conservative lookahead): shards advance together
//!   through windows `[N, E)` where `E − N` is bounded by the minimum
//!   cross-shard link latency. A packet sent during a window arrives no
//!   earlier than its link's latency after the send, i.e. at or after `E`,
//!   so shards cannot affect each other *within* a window; cross-shard
//!   deliveries ride an outbox and merge into the destination queues at
//!   the barrier. Faults and metrics samples are applied only at barriers,
//!   which the window bound also respects.

mod shard;

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdv_det::DetMap;
use rdv_metrics::{MetricSet, MetricsConfig};
use rdv_trace::{
    EventId, EventKind as TraceKind, EventRing, FaultKind, Recorder, SampleSpec, Tracer,
    ENGINE_NODE,
};

use self::shard::{Shard, ShardQueue};

use crate::audit::{ShardAudit, ShardAuditViolation};
use crate::fault::{FaultEvent, FaultPlan};
use crate::flight;
use crate::link::{Direction, Link, LinkClass, LinkId, LinkRate, LinkSpec};
use crate::node::{Node, NodeCtx, NodeId, PortId};
use crate::packet::Packet;
use crate::queue::EventKey;
use crate::stats::{
    Counters, ENGINE_OUTPUT_SLOTS, ENGINE_SLOTS, ENGINE_SLOT_IDS, SIM_DELIVERIES_DROPPED_CRASH,
    SIM_EVENTS, SIM_FAULTS_APPLIED, SIM_PACKETS_DELIVERED, SIM_PACKETS_DROPPED,
    SIM_PACKETS_DROPPED_BAD_PORT, SIM_PACKETS_DROPPED_DEAD_NODE, SIM_PACKETS_DROPPED_LINK_DOWN,
    SIM_PACKETS_DROPPED_PARTITION, SIM_PACKETS_LOST, SIM_PACKETS_SENT, SIM_SHARD_WINDOWS,
    SIM_SHARD_WORKER_SPAWNS, SIM_SHARD_XSHARD_PACKETS,
};
use crate::time::SimTime;

/// Process-wide default shard count, used when [`SimConfig::shards`] is 0.
/// Harnesses (e.g. `figures --shards N`) set this once at startup so every
/// scenario they build inherits the setting without plumbing a parameter
/// through each constructor.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the process-wide default shard count (clamped to ≥ 1). Only affects
/// simulations created afterwards with [`SimConfig::shards`] = 0.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The current process-wide default shard count.
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed).max(1)
}

/// Arm the shard-ownership race detector on every simulation created
/// afterwards — how suites whose scenarios build simulations internally
/// (chaos soak, shard-determinism, CI audit runs) run with
/// [`Sim::enable_shard_audit`] on without plumbing a flag through each
/// constructor. Mirrors [`set_default_shards`].
static DEFAULT_SHARD_AUDIT: AtomicUsize = AtomicUsize::new(0);

/// Set whether newly created simulations arm the shard-ownership race
/// detector by default (see [`Sim::enable_shard_audit`]).
pub fn set_default_shard_audit(on: bool) {
    DEFAULT_SHARD_AUDIT.store(usize::from(on), Ordering::Relaxed);
}

/// The current process-wide shard-audit default.
pub fn default_shard_audit() -> bool {
    DEFAULT_SHARD_AUDIT.load(Ordering::Relaxed) != 0
}

/// Per-node RNG stream seed: the root seed xored with a golden-ratio
/// multiple of the node id. `StdRng::seed_from_u64` runs SplitMix64 over
/// this, so consecutive node ids get well-separated streams. Per-node
/// streams (rather than one engine-wide RNG) are what keep draws
/// byte-identical for any shard count.
fn node_stream_seed(root: u64, gid: u64) -> u64 {
    root ^ 0x9E3779B97F4A7C15u64.wrapping_mul(gid + 1)
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for the per-node RNG streams handed to nodes.
    pub seed: u64,
    /// Safety valve: abort after this many events (guards against event
    /// storms in buggy protocols). Generous default.
    pub max_events: u64,
    /// Number of shards to partition nodes across. 0 (the default) means
    /// "inherit the process-wide default" (see [`set_default_shards`]);
    /// any other value is used as-is. Results are byte-identical for
    /// every value.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0, max_events: 200_000_000, shards: 0 }
    }
}

#[derive(Debug)]
enum EvKind {
    /// `epoch` is the destination node's crash epoch at scheduling time;
    /// the event is discarded if the node crashed in the interim.
    Deliver {
        node: u32,
        port: u32,
        packet: Packet,
        epoch: u32,
    },
    Timer {
        node: u32,
        tag: u64,
        epoch: u32,
    },
}

/// Queue payload: the event plus its trace provenance (the recorded event
/// that scheduled it — a packet's transmit, a timer's set).
#[derive(Debug)]
struct EvData {
    kind: EvKind,
    trace: Option<EventId>,
}

// A queue entry is an `(EventKey, EvData)`: 24 bytes of key, a packet
// (itself held to 24 bytes in `packet.rs`) and its routing words. Every
// live event costs this much — `storm_100k` holds 208 896 at once — so
// growing it is a decision, not a drift.
const _: () = assert!(std::mem::size_of::<(EventKey, EvData)>() == 80);

/// A timer with no trace provenance, as a shard's timer queue holds it:
/// everything [`EvKind::Timer`] carries but the variant's room for a
/// packet. `replog_blip` pre-schedules half a million of these.
struct TimerRec {
    tag: u64,
    node: u32,
    /// The node's crash epoch when the timer was armed.
    epoch: u32,
}

// A timer queue entry is an `(EventKey, TimerRec)`: half a delivery's.
const _: () = assert!(std::mem::size_of::<(EventKey, TimerRec)>() == 40);

// The topology tables are paid once per node and once per link, so they
// are held to fixed records. Budget per rack-ring host (one node, one
// uplink): a 24 B node record, a ≤ 40 B link record (36 B today) and two
// 4 B CSR port entries, ≈ 68 B of `Globals`;
// `tests::topology_tables_stay_within_budget_per_host` holds it to 72 B.
const _: () = assert!(std::mem::size_of::<NodeRec>() == 24);
const _: () = assert!(std::mem::size_of::<Link>() <= 40);

/// A fault event with link endpoints already resolved to a [`LinkId`] and
/// partitions registered, so applying one is a constant-time state flip.
#[derive(Debug)]
enum FaultAction {
    LinkState { link: LinkId, down: bool },
    LossOverride { link: LinkId, loss: Option<u16> },
    PartitionOn { id: usize },
    PartitionOff { id: usize },
    Crash { node: NodeId },
    Restart { node: NodeId },
}

/// A registered partition: two node groups whose cross traffic is blocked
/// while `active`.
#[derive(Debug)]
struct Partition {
    left: Vec<NodeId>,
    right: Vec<NodeId>,
    active: bool,
}

impl Partition {
    /// True when `a` and `b` fall on opposite sides of this cut.
    fn separates(&self, a: NodeId, b: NodeId) -> bool {
        (self.left.contains(&a) && self.right.contains(&b))
            || (self.left.contains(&b) && self.right.contains(&a))
    }
}

/// Faults live on a coordinator-level heap, not in shard queues: they
/// mutate global state (link flags, liveness, partitions), so the engine
/// applies them only at window barriers, before any event at an equal or
/// later time.
struct FaultEntry {
    at: SimTime,
    seq: u64,
    action: FaultAction,
}

impl PartialEq for FaultEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for FaultEntry {}
impl PartialOrd for FaultEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FaultEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Everything the event path reads about one node, in one record.
struct NodeRec {
    /// Owning shard.
    shard: u32,
    /// Index within the owning shard's per-node vectors.
    local: u32,
    /// First entry of this node's ports in [`Globals::port_links`].
    port_start: u32,
    /// Ports attached so far; port `p` is `port_links[port_start + p]`.
    port_count: u32,
    /// Crash epoch. Bumped on every crash so events scheduled before the
    /// crash can be recognized and discarded on pop.
    epoch: u32,
    /// Is the network stack up? Crashed nodes receive nothing.
    alive: bool,
}

/// Topology and fault state shared read-only by all shards during a
/// window. Mutated only between windows (faults, wiring).
struct Globals {
    /// Per node, by global id.
    nodes: Vec<NodeRec>,
    links: Vec<Link>,
    /// Every node's port → link map in CSR form: node `n`'s ports are
    /// `port_links[n.port_start..][..n.port_count]`. Rebuilt from the
    /// links' ends by [`Globals::build_ports`] when wiring changed.
    port_links: Vec<u32>,
    /// `connect` ran since `port_links` was last built. A node without
    /// ports needs no entry, so `add_node` leaves it alone.
    ports_stale: bool,
    /// Interned link classes, indexed by [`Link::class`].
    classes: Vec<LinkClass>,
    /// Spec → index into `classes`.
    class_of: DetMap<LinkSpec, u32>,
    /// Registered partitions (from installed fault plans).
    partitions: Vec<Partition>,
    /// Number of currently active partitions — lets the per-send check
    /// stay a single integer compare when no partition is live.
    active_partitions: usize,
    /// Per crashed node: trace/flight id of its most recent crash fault,
    /// for the fault→dropped-delivery aux edge. Lives here (not on
    /// [`Sim`]) so both the serial tracer path and flight-recording
    /// parallel windows can read it; like all of [`Globals`], it is
    /// mutated only between windows (faults apply at barriers). Sparse:
    /// only faults that were recorded leave an entry.
    crash_trace: DetMap<u32, EventId>,
    /// Per downed link: trace/flight id of its most recent link-down fault.
    link_fault_trace: DetMap<u32, EventId>,
    /// Per partition: trace/flight id of the fault that activated it.
    partition_fault_trace: Vec<Option<EventId>>,
}

impl Globals {
    /// The index of an active partition separating `a` from `b`, if any.
    fn blocking_partition(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.partitions.iter().position(|p| p.active && p.separates(a, b))
    }

    /// The class index for `spec`, interning it on first sight.
    fn intern(&mut self, spec: LinkSpec) -> u32 {
        let next = self.classes.len() as u32;
        let class = *self.class_of.entry(spec).or_insert(next);
        if class == next {
            self.classes.push(LinkClass { spec, rate: LinkRate::from_spec(&spec) });
        }
        class
    }

    /// Rebuild `port_links` from the links' ends if wiring changed since
    /// the last build. The tables are frozen until the next `add_node` /
    /// `connect`, so their spare capacity is returned here too.
    fn build_ports(&mut self) {
        if !self.ports_stale {
            return;
        }
        let mut start = 0u32;
        for n in self.nodes.iter_mut() {
            n.port_start = start;
            start += n.port_count;
        }
        self.port_links = vec![0; start as usize];
        for (l, link) in self.links.iter().enumerate() {
            for &(node, port) in &link.ends {
                let at = self.nodes[node as usize].port_start + port;
                self.port_links[at as usize] = l as u32;
            }
        }
        self.nodes.shrink_to_fit();
        self.links.shrink_to_fit();
        self.ports_stale = false;
    }

    /// `node`'s port → link map.
    #[inline]
    fn ports(&self, node: &NodeRec) -> &[u32] {
        debug_assert!(!self.ports_stale, "port_links read before build_ports");
        &self.port_links[node.port_start as usize..][..node.port_count as usize]
    }
}

/// Record `id` as `key`'s most recent fault; a fault that no back-end
/// recorded leaves no entry.
fn note_fault(map: &mut DetMap<u32, EventId>, key: u32, id: Option<EventId>) {
    match id {
        Some(id) => {
            map.insert(key, id);
        }
        None => {
            map.remove(&key);
        }
    }
}

/// The simulator.
pub struct Sim {
    cfg: SimConfig,
    nshards: usize,
    clock: SimTime,
    /// Sequence for externally scheduled timers ([`Sim::schedule`]), which
    /// use the reserved event-key source 0.
    ext_seq: u64,
    fault_seq: u64,
    globals: Globals,
    shards: Vec<Shard>,
    faults: BinaryHeap<Reverse<FaultEntry>>,
    /// Engine-level counters: `sim.events`, `sim.packets_sent`,
    /// `sim.packets_delivered`, `sim.packets_dropped`, `sim.timers`.
    /// Rebuilt from the per-shard slices at every barrier and at the end
    /// of each `run_until` call.
    pub counters: Counters,
    /// Counter contributions made by the coordinator itself (fault
    /// application), outside any shard.
    base_counters: Counters,
    /// Execution statistics (`sim.shard.*`): window count, cross-shard
    /// packets, worker spawns. Kept apart from [`Sim::counters`] because
    /// their values depend on `--shards`, and run output must not.
    exec: Counters,
    started: bool,
    /// Events processed so far — a plain field so the per-event budget
    /// check doesn't round-trip through the counter table.
    events: u64,
    /// Causal-trace recorder (see [`Sim::enable_trace`]). Disabled by
    /// default: every emission site is a single branch and nothing
    /// allocates. Enabling tracing forces serial execution.
    pub tracer: Tracer,
    /// Time-series telemetry plane (see [`Sim::enable_metrics`]).
    /// Disabled by default: the event loop pays one branch per iteration
    /// and nothing allocates.
    pub metrics: MetricSet,
    /// Emit per-shard `shard.*` gauges on each metrics tick. Off by
    /// default so committed metrics artifacts stay byte-identical across
    /// shard counts; see [`Sim::enable_shard_telemetry`].
    shard_telemetry: bool,
    /// Test-only imbalance injected by [`Sim::debug_leak_inflight`].
    inflight_leak: i64,
    /// Shard-ownership race detector armed (see
    /// [`Sim::enable_shard_audit`]). Off by default: every check site in
    /// the event loop is a single branch.
    audit_armed: bool,
    /// Minimum latency over cross-shard links (ns) — the conservative
    /// lookahead bound. `u64::MAX` when no link crosses shards.
    lookahead_ns: u64,
    /// A zero-latency link crosses shards: no safe lookahead exists, so
    /// execution stays serial.
    zero_lookahead: bool,
    /// Barrier merge scratch, reused window after window.
    merge_buf: Vec<(u32, EventKey, EvData)>,
    /// Flight-recorder rings, empty unless armed (see
    /// [`Sim::enable_flight_recorder`]): one per shard in shard order,
    /// then the coordinator's (fault events, external schedules). Unlike
    /// the tracer they record during parallel windows too — ids are
    /// namespaced per ring, so no cross-thread coordination is needed.
    flight: Vec<EventRing>,
}

/// The one place the engine picks a recording back-end: an enabled tracer
/// wins (tracing is serial, so one ring sees every shard in order), else
/// the flight ring of whoever is acting, else nothing.
fn recorder<'a>(tracer: &'a mut Tracer, flight: Option<&'a mut EventRing>) -> Recorder<'a> {
    if tracer.is_enabled() {
        Recorder::Trace(tracer)
    } else {
        flight.map_or(Recorder::Off, Recorder::Flight)
    }
}

impl Sim {
    /// Create an empty simulation.
    pub fn new(cfg: SimConfig) -> Sim {
        let nshards = if cfg.shards == 0 { default_shards() } else { cfg.shards }.max(1);
        let mut sim = Sim {
            cfg,
            nshards,
            clock: SimTime::ZERO,
            ext_seq: 0,
            fault_seq: 0,
            globals: Globals {
                nodes: Vec::new(),
                links: Vec::new(),
                port_links: Vec::new(),
                ports_stale: false,
                classes: Vec::new(),
                class_of: DetMap::new(),
                partitions: Vec::new(),
                active_partitions: 0,
                crash_trace: DetMap::new(),
                link_fault_trace: DetMap::new(),
                partition_fault_trace: Vec::new(),
            },
            shards: (0..nshards).map(Shard::new).collect(),
            faults: BinaryHeap::new(),
            counters: Counters::new(),
            base_counters: Counters::new(),
            exec: Counters::new(),
            started: false,
            events: 0,
            tracer: Tracer::disabled(),
            metrics: MetricSet::disabled(),
            shard_telemetry: false,
            inflight_leak: 0,
            audit_armed: false,
            lookahead_ns: u64::MAX,
            zero_lookahead: false,
            merge_buf: Vec::new(),
            flight: Vec::new(),
        };
        if default_shard_audit() {
            sim.enable_shard_audit();
        }
        sim
    }

    /// Number of shards this simulation partitions its nodes across.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Execution statistics (`sim.shard.windows`, `sim.shard.
    /// xshard_packets`, `sim.shard.worker_spawns`). These describe *how*
    /// the run executed, not *what* it simulated — they vary with
    /// `--shards` and are therefore never folded into [`Sim::counters`].
    pub fn exec_stats(&self) -> &Counters {
        &self.exec
    }

    /// Emit per-shard `shard.queue_events` / `shard.clock_ns` gauges
    /// (instances `s0`, `s1`, …) on each metrics tick. Off by default:
    /// these gauges depend on the shard count, so committed metrics
    /// artifacts leave them disabled to stay byte-identical across
    /// `--shards`.
    pub fn enable_shard_telemetry(&mut self) {
        self.shard_telemetry = true;
    }

    /// Turn on causal tracing, retaining the most recent `capacity`
    /// events. Call before running; the recorded stream (ids included) is
    /// deterministic per seed. Tracing forces serial execution (the trace
    /// stream is a total order), which cannot change simulation results —
    /// only wall-clock speed.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// Turn on *sampled* causal tracing: only operation chains rooted by a
    /// winning [`TraceCtx::sample`] verdict are recorded, per `spec`.
    /// Verdicts are pure in `(seed, class, origin)` — never in ring
    /// occupancy or shard layout — so the sampled trace bytes are
    /// identical across `--shards` counts and processes. Like full
    /// tracing, this forces serial execution; unlike full tracing, the
    /// ring holds a uniform slice of operations instead of the most
    /// recent burst, which is what tail-attribution figures (F8) join
    /// against SLO windows.
    pub fn enable_trace_sampled(&mut self, capacity: usize, spec: SampleSpec) {
        self.tracer = Tracer::sampled(capacity, spec);
    }

    /// Arm the crash flight recorder: every shard gets an always-on
    /// last-`capacity`-events ring (plus one at the coordinator for fault
    /// events and external schedules). On any invariant-monitor failure or
    /// [`ShardAuditViolation`], the panic carries a rendered postmortem —
    /// the causal ancestry of the failing event walked across rings, a
    /// gauge snapshot, and per-shard window state — instead of a bare
    /// message.
    ///
    /// The recorder observes only: rings record what already happened,
    /// `flight.*` counters move only when a dump is rendered, and
    /// recording works inside parallel windows (ids are namespaced per
    /// ring), so arming it on a clean run changes zero output bytes and
    /// never forces serial execution. When tracing is enabled too, the
    /// tracer does the recording and the postmortem walks its ring.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.flight = (0..self.nshards)
            .map(flight::shard_base)
            .chain([flight::COORD_BASE])
            .map(|base| EventRing::new(base, capacity))
            .collect();
    }

    /// Extract the tracer, leaving a disabled one behind — how harnesses
    /// keep the trace after the simulation is dropped.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Turn on metrics sampling (and, per `cfg`, the invariant monitor).
    /// Call before running. Sampling reads state only — no events are
    /// scheduled and no RNG is drawn — so enabling metrics never perturbs
    /// the simulation. Samples are taken at window barriers; the window
    /// bound respects tick boundaries, so sampled values are identical
    /// for every shard count.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        self.metrics = MetricSet::enabled(cfg);
    }

    /// Extract the metric set, leaving a disabled one behind — how
    /// harnesses keep the series after the simulation is dropped.
    pub fn take_metrics(&mut self) -> MetricSet {
        std::mem::replace(&mut self.metrics, MetricSet::disabled())
    }

    /// Take any samples still due up to and including `until` — for
    /// harnesses that want the tail of a run (after the last event)
    /// covered before exporting.
    pub fn flush_metrics(&mut self, until: SimTime) {
        if self.metrics.is_enabled() {
            self.pump_metrics(until.as_nanos().saturating_add(1));
        }
    }

    /// Deliberately unbalance the in-flight packet account — the
    /// test-only hook seeded-violation tests use to prove the
    /// packet-conservation audit fires. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_leak_inflight(&mut self) {
        self.inflight_leak += 1;
    }

    /// Arm the shard-ownership race detector (the dynamic half of
    /// rdv-audit; see `DESIGN.md §11` and [`crate::audit`]). Every
    /// mutable access to node, link, timer, RNG, and queue state is
    /// tagged with its `(shard, window)` and checked at the access site:
    /// only the owner shard may touch it, cross-shard effects must route
    /// through the outbox barrier, and cross-shard schedule times must
    /// respect the conservative-lookahead bound. The first violation
    /// aborts the run via [`std::panic::panic_any`] with a typed
    /// [`crate::audit::ShardAuditViolation`] payload carrying the engine
    /// `file:line` of the failed check, the sim time, and the event key
    /// being executed.
    ///
    /// Disabled (the default), each check site costs one branch. Armed,
    /// the detector reads state only — a clean armed run is
    /// byte-identical to an unarmed one for every `--shards` count.
    pub fn enable_shard_audit(&mut self) {
        self.audit_armed = true;
        for s in self.shards.iter_mut() {
            if s.audit.is_none() {
                let mut a = Box::new(ShardAudit::new());
                a.rng_owner = s.gids.clone();
                s.audit = Some(a);
            }
        }
    }

    /// True when the shard-ownership race detector is armed.
    pub fn shard_audit_enabled(&self) -> bool {
        self.audit_armed
    }

    /// Seed an outbox-bypass bug: the next cross-shard send is pushed
    /// straight onto the producing shard's local queue, skipping the
    /// outbox barrier — the mutation seeded-violation tests use to prove
    /// the armed detector catches discipline (2). Requires
    /// [`Sim::enable_shard_audit`]. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_audit_bypass_outbox(&mut self) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        for s in self.shards.iter_mut() {
            if let Some(a) = s.audit.as_deref_mut() {
                a.fault_bypass_outbox = true;
            }
        }
    }

    /// Seed a lookahead bug: the next cross-shard send produced inside a
    /// parallel window is scheduled at the sender's current clock,
    /// ignoring the link latency that funds the lookahead — the mutation
    /// seeded-violation tests use to prove the armed detector catches
    /// discipline (3). Requires [`Sim::enable_shard_audit`]. Not part of
    /// the public API.
    #[doc(hidden)]
    pub fn debug_audit_violate_lookahead(&mut self) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        for s in self.shards.iter_mut() {
            if let Some(a) = s.audit.as_deref_mut() {
                a.fault_violate_lookahead = true;
            }
        }
    }

    /// Seed a shared-RNG-stream bug: dispatches for `victim` draw from
    /// `donor`'s per-node stream — the mutation seeded-violation tests
    /// use to prove the armed detector catches RNG stream discipline.
    /// Both nodes must live on the same shard (co-locate them with
    /// [`Sim::add_node_in_region`]). Requires
    /// [`Sim::enable_shard_audit`]. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_audit_share_rng(&mut self, donor: NodeId, victim: NodeId) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        let (d, v) = (&self.globals.nodes[donor.0], &self.globals.nodes[victim.0]);
        assert_eq!(d.shard, v.shard, "debug_audit_share_rng: nodes must share a shard");
        let alias = (v.local as usize, d.local as usize);
        if let Some(a) = self.shards[d.shard as usize].audit.as_deref_mut() {
            a.rng_alias = Some(alias);
        }
    }

    /// Panic with the first recorded shard-audit violation, if any check
    /// tripped since the last coordination point. Violations are
    /// recorded (and printed) at the access site on worker threads, but
    /// raised here on the coordinator so the typed payload survives
    /// `thread::scope` and reaches `catch_unwind` intact.
    fn audit_check_barrier(&mut self) {
        if !self.audit_armed {
            return;
        }
        let mut hit: Option<(usize, ShardAuditViolation)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(v) = s.audit.as_deref_mut().and_then(|a| a.violation.take()) {
                hit = Some((i, v));
                break;
            }
        }
        if let Some((i, mut v)) = hit {
            // With the flight recorder armed, attach a postmortem anchored
            // at the offending shard's most recent recorded event.
            let anchor = self.flight.get(i).and_then(EventRing::latest);
            let gauges =
                if self.metrics.is_enabled() { self.metrics.last_values() } else { Vec::new() };
            v.postmortem = self.render_flight_dump(anchor, &gauges);
            std::panic::panic_any(v);
        }
    }

    /// The nodes' [`Node::name`]s in id order — the track labels trace
    /// exporters want.
    pub fn node_names(&self) -> Vec<String> {
        (0..self.node_count()).map(|gid| self.node(NodeId(gid)).name().to_string()).collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Add a node; returns its ID. Default placement assigns each node its
    /// own region (round-robin across shards); use
    /// [`Sim::add_node_in_region`] to co-locate nodes that talk on
    /// low-latency links.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let region = self.globals.nodes.len();
        self.add_node_in_region(node, region)
    }

    /// Add a node in spatial `region` (e.g. a rack or pod index). Nodes
    /// sharing a region land on the same shard (`region % shards`), so
    /// their traffic never crosses a shard boundary and the engine's
    /// lookahead is bounded only by inter-region trunk latency. Placement
    /// affects wall-clock speed, never results.
    pub fn add_node_in_region(&mut self, node: Box<dyn Node>, region: usize) -> NodeId {
        let gid = self.globals.nodes.len();
        let si = region % self.nshards;
        let shard = &mut self.shards[si];
        let li = shard.nodes.len();
        self.globals.nodes.push(NodeRec {
            shard: si as u32,
            local: li as u32,
            port_start: 0,
            port_count: 0,
            epoch: 0,
            alive: true,
        });
        shard.gids.push(gid as u32);
        shard.nodes.push(node);
        shard.rngs.push(StdRng::seed_from_u64(node_stream_seed(self.cfg.seed, gid as u64)));
        if let Some(a) = shard.audit.as_deref_mut() {
            a.rng_owner.push(gid as u32);
        }
        shard.node_seq.push(0);
        shard.pending_timers.push(0);
        NodeId(gid)
    }

    /// True when `node`'s network stack is up (not crashed by fault
    /// injection, or restarted since).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.globals.nodes[node.0].alive
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.globals.nodes.len()
    }

    /// Connect `a` and `b` with a link, returning the port each end got.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        let g = &mut self.globals;
        let n = g.nodes.len();
        assert!(a.0 < n && b.0 < n, "connect: unknown node");
        assert_ne!(a, b, "self-links are not supported");
        // Link ids and CSR port offsets (two ports per link) are `u32`.
        assert!(g.links.len() < 1 << 31, "connect: too many links");
        let class = g.intern(spec);
        let mut ends = [(a.0 as u32, 0u32), (b.0 as u32, 0)];
        // Each direction's transmitter state lives with its source node's
        // shard (single writer).
        let mut dir_slot = [0u32; 2];
        for (d, end) in ends.iter_mut().enumerate() {
            let rec = &mut g.nodes[end.0 as usize];
            end.1 = rec.port_count;
            rec.port_count += 1;
            let dirs = &mut self.shards[rec.shard as usize].dirs;
            dir_slot[d] = dirs.len() as u32;
            dirs.push(Direction::default());
        }
        g.links.push(Link { class, ends, dir_slot, down: false, loss_override: None });
        g.ports_stale = true;
        // Cross-shard links bound the conservative lookahead.
        if g.nodes[a.0].shard != g.nodes[b.0].shard {
            let lat = spec.latency.as_nanos();
            if lat == 0 {
                self.zero_lookahead = true;
            } else {
                self.lookahead_ns = self.lookahead_ns.min(lat);
            }
        }
        (PortId(ends[0].1 as usize), PortId(ends[1].1 as usize))
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.globals.nodes[node.0].port_count as usize
    }

    /// Schedule a timer event for `node` at absolute time `at`.
    ///
    /// This is how workload drivers kick protocols into motion from outside.
    pub fn schedule(&mut self, at: SimTime, node: NodeId, tag: u64) {
        let rec = &self.globals.nodes[node.0];
        let (epoch, si, li) = (rec.epoch, rec.shard as usize, rec.local as usize);
        let node = node.0 as u32;
        let seq = self.ext_seq;
        self.ext_seq += 1;
        self.shards[si].pending_timers[li] += 1;
        // Causeless, so sampled tracing drops it: an external kick roots
        // no chain by itself and becomes visible only when a protocol
        // callback roots one with a winning sample() verdict.
        let trace = recorder(&mut self.tracer, self.flight.last_mut()).record_caused(
            self.clock.as_nanos(),
            node,
            TraceKind::TimerSet { tag },
            None,
            None,
        );
        let key = EventKey { at: at.as_nanos(), src: 0, seq };
        self.shards[si].queue.push_timer(key, TimerRec { tag, node, epoch }, trace);
    }

    /// Bulk [`Sim::schedule`]: install a whole open-loop arrival schedule
    /// in one call. Arrivals are consumed in iteration order; same-time
    /// timers fire in that order, for every shard count — the workload
    /// plane (`rdv-load`) relies on this to keep offered load a pure
    /// function of the schedule, independent of completions.
    pub fn schedule_batch(&mut self, arrivals: impl IntoIterator<Item = (SimTime, NodeId, u64)>) {
        for (at, node, tag) in arrivals {
            self.schedule(at, node, tag);
        }
    }

    /// Install a [`FaultPlan`]: resolve its link references against the
    /// current topology and schedule every fault at its exact simulated
    /// time. Faults apply at window barriers, before any simulation event
    /// at an equal or later time — for every shard count.
    ///
    /// Call after all links are connected. Plans compose: installing
    /// several plans merges their schedules.
    ///
    /// # Panics
    /// Panics if a plan event names a node pair with no link between them.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.globals.build_ports();
        for ev in plan.events() {
            match ev {
                FaultEvent::LinkDown { at, a, b } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(*at, FaultAction::LinkState { link, down: true });
                }
                FaultEvent::LinkUp { at, a, b } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(*at, FaultAction::LinkState { link, down: false });
                }
                FaultEvent::LossBurst { at, until, a, b, loss_permille } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(
                        *at,
                        FaultAction::LossOverride { link, loss: Some(*loss_permille) },
                    );
                    self.push_fault(*until, FaultAction::LossOverride { link, loss: None });
                }
                FaultEvent::Partition { at, until, left, right } => {
                    let id = self.globals.partitions.len();
                    self.globals.partitions.push(Partition {
                        left: left.clone(),
                        right: right.clone(),
                        active: false,
                    });
                    self.globals.partition_fault_trace.push(None);
                    self.push_fault(*at, FaultAction::PartitionOn { id });
                    self.push_fault(*until, FaultAction::PartitionOff { id });
                }
                FaultEvent::Crash { at, node } => {
                    self.push_fault(*at, FaultAction::Crash { node: *node });
                }
                FaultEvent::Restart { at, node } => {
                    self.push_fault(*at, FaultAction::Restart { node: *node });
                }
            }
        }
    }

    /// The link directly connecting `a` and `b` (either orientation): the
    /// first of `a`'s ports whose far end is `b`. Ports are numbered in
    /// wiring order, so this is the lowest-numbered such link.
    fn resolve_link(&self, a: NodeId, b: NodeId) -> LinkId {
        let g = &self.globals;
        if let Some(rec) = g.nodes.get(a.0) {
            for &l in g.ports(rec) {
                let [(x, _), (y, _)] = g.links[l as usize].ends;
                let far = if x as usize == a.0 { y } else { x };
                if far as usize == b.0 {
                    return LinkId(l as usize);
                }
            }
        }
        panic!("fault plan references a non-existent link between node {} and node {}", a.0, b.0);
    }

    fn push_fault(&mut self, at: SimTime, action: FaultAction) {
        let seq = self.fault_seq;
        self.fault_seq += 1;
        self.faults.push(Reverse(FaultEntry { at, seq, action }));
    }

    /// Record the trace (or flight) event for a fault action and remember
    /// its id where later drops will need it for aux edges. Faults apply
    /// only at barriers, so writing the `Globals` maps here never races
    /// a window.
    fn trace_fault(&mut self, action: &FaultAction) -> Option<EventId> {
        let kind = match action {
            FaultAction::LinkState { .. } => FaultKind::LinkState,
            FaultAction::LossOverride { .. } => FaultKind::LossOverride,
            FaultAction::PartitionOn { .. } => FaultKind::PartitionOn,
            FaultAction::PartitionOff { .. } => FaultKind::PartitionOff,
            FaultAction::Crash { .. } => FaultKind::Crash,
            FaultAction::Restart { .. } => FaultKind::Restart,
        };
        let id = recorder(&mut self.tracer, self.flight.last_mut()).record(
            self.clock.as_nanos(),
            ENGINE_NODE,
            TraceKind::Fault(kind),
            None,
            None,
        );
        match action {
            FaultAction::LinkState { link, down: true } => {
                note_fault(&mut self.globals.link_fault_trace, link.0 as u32, id)
            }
            FaultAction::PartitionOn { id: p } => self.globals.partition_fault_trace[*p] = id,
            FaultAction::Crash { node } => {
                note_fault(&mut self.globals.crash_trace, node.0 as u32, id)
            }
            _ => {}
        }
        id
    }

    /// Flip the engine state a fault action describes. Restarts re-enter
    /// the node via [`Node::on_restart`] so it can re-arm its timers;
    /// `trace` is the fault's own trace event, which becomes the causal
    /// parent of whatever the restart handler does.
    fn apply_fault(&mut self, action: FaultAction, trace: Option<EventId>) {
        match action {
            FaultAction::LinkState { link, down } => self.globals.links[link.0].down = down,
            FaultAction::LossOverride { link, loss } => {
                self.globals.links[link.0].loss_override = loss
            }
            FaultAction::PartitionOn { id } => {
                if !self.globals.partitions[id].active {
                    self.globals.partitions[id].active = true;
                    self.globals.active_partitions += 1;
                }
            }
            FaultAction::PartitionOff { id } => {
                if self.globals.partitions[id].active {
                    self.globals.partitions[id].active = false;
                    self.globals.active_partitions -= 1;
                }
            }
            FaultAction::Crash { node } => {
                let rec = &mut self.globals.nodes[node.0];
                if rec.alive {
                    rec.alive = false;
                    // Every event scheduled for the old incarnation is now
                    // stale; bumping the epoch invalidates them lazily.
                    rec.epoch = rec.epoch.checked_add(1).expect("a node crashed 2^32 times");
                }
            }
            FaultAction::Restart { node } => {
                let rec = &mut self.globals.nodes[node.0];
                if !rec.alive {
                    rec.alive = true;
                    self.dispatch_coord(node, trace, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    /// Coordinator-side dispatch into a node's owning shard, at the
    /// engine clock (used for `on_start` and post-restart callbacks, which
    /// happen between windows).
    fn dispatch_coord(
        &mut self,
        node: NodeId,
        cause: Option<EventId>,
        f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    ) {
        let si = self.globals.nodes[node.0].shard as usize;
        let now_ns = self.clock.as_nanos();
        let mut rec = recorder(&mut self.tracer, self.flight.get_mut(si));
        let g = &self.globals;
        let shard = &mut self.shards[si];
        // All pending events are at or after the engine clock here, so
        // lifting the shard clock preserves its monotonicity.
        shard.clock_ns = shard.clock_ns.max(now_ns);
        shard.dispatch(g, node.0 as u32, cause, &mut rec, f);
        // Sends from this dispatch may target other shards; deliver them
        // now — the next outbox drain could be windows away.
        self.drain_outboxes();
        self.audit_check_barrier();
    }

    /// Move every shard's outbox into the destination shard queues. Pop
    /// order at the destination is governed by the canonical key, so the
    /// iteration order here is immaterial.
    fn drain_outboxes(&mut self) -> u64 {
        let mut merge = std::mem::take(&mut self.merge_buf);
        for s in self.shards.iter_mut() {
            merge.append(&mut s.outbox);
        }
        let moved = merge.len() as u64;
        for (dst, key, data) in merge.drain(..) {
            self.shards[dst as usize].queue.push(key, data);
        }
        self.merge_buf = merge;
        moved
    }

    /// A node's behaviour, wherever its shard keeps it.
    fn node(&self, id: NodeId) -> &dyn Node {
        let rec = &self.globals.nodes[id.0];
        self.shards[rec.shard as usize].nodes[rec.local as usize].as_ref()
    }

    /// Borrow a node's behaviour, downcast to its concrete type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> Option<&T> {
        (self.node(id) as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow a node's behaviour, downcast to its concrete type.
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let rec = &self.globals.nodes[id.0];
        let node = self.shards[rec.shard as usize].nodes[rec.local as usize].as_mut();
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for gid in 0..self.globals.nodes.len() {
            self.dispatch_coord(NodeId(gid), None, |n, ctx| n.on_start(ctx));
        }
    }

    /// Rebuild the public counter table from the coordinator's own
    /// contributions plus every shard's slice. Merging is an elementwise
    /// add over global counter ids, so the result is independent of shard
    /// layout.
    fn refresh_counters(&mut self) {
        let mut c = self.base_counters.clone();
        for s in &self.shards {
            c.merge(&s.counters);
        }
        // Sampling-decision tallies surface as counters only when a
        // sampler exists, so runs without sampled tracing (including every
        // committed figure) expose an unchanged counter table.
        if let Some((sampled, skipped)) = self.tracer.sample_tallies() {
            c.add("obs.spans_sampled", sampled);
            c.add("obs.spans_skipped", skipped);
        }
        self.counters = c;
    }

    /// Signed in-flight total across shards plus any test-injected leak.
    fn total_inflight(&self) -> u64 {
        let sum: i64 = self.inflight_leak + self.shards.iter().map(|s| s.inflight).sum::<i64>();
        sum.max(0) as u64
    }

    /// Every ring a postmortem resolves ids against: the flight rings,
    /// then the tracer's — which holds the history instead of them when
    /// tracing was armed too, and is empty otherwise.
    fn postmortem_rings(&self) -> impl Iterator<Item = &EventRing> {
        self.flight.iter().chain([&*self.tracer])
    }

    /// The most recently stamped event across every postmortem ring
    /// (fixed scan order, strict max on sim time — deterministic). `None`
    /// when nothing has been recorded.
    fn flight_latest(&self) -> Option<EventId> {
        let mut best: Option<(u64, EventId)> = None;
        for r in self.postmortem_rings() {
            if let Some(id) = r.latest() {
                let at = r.get(id).map(|ev| ev.at).unwrap_or(0);
                if best.is_none_or(|(bat, _)| at > bat) {
                    best = Some((at, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Render the flight-recorder postmortem: the causal ancestry of
    /// `anchor` (or of the most recent recorded event when `None`) walked
    /// across rings, per-shard window state, the merged counter table, and
    /// a gauge snapshot. Returns `None` when the recorder is unarmed. This is the only place the `flight.*`
    /// counters move, so a run that never dumps is byte-identical to one
    /// with the recorder off.
    fn render_flight_dump(
        &mut self,
        anchor: Option<EventId>,
        gauges: &[(String, u64)],
    ) -> Option<String> {
        use std::fmt::Write as _;
        if self.flight.is_empty() {
            return None;
        }
        self.refresh_counters();
        let mut out = String::new();
        out.push_str("==== flight-recorder postmortem ====\n");
        let _ = writeln!(out, "sim clock: {} ns", self.clock.as_nanos());
        out.push_str("causal ancestry (most recent first):\n");
        match anchor.or_else(|| self.flight_latest()) {
            Some(a) => {
                let rings: Vec<&EventRing> = self.postmortem_rings().collect();
                flight::render_ancestry(&rings, a, &mut out);
            }
            None => out.push_str("  (no events recorded)\n"),
        }
        out.push_str("shard state:\n");
        let (coord, shard_rings) = self.flight.split_last().expect("armed");
        for (s, ring) in self.shards.iter().zip(shard_rings) {
            let (clock, queue, outbox) = (s.clock_ns, s.queue.len(), s.outbox.len());
            let state = flight::ring_state(ring);
            let _ = writeln!(
                out,
                "  s{}: clock={clock} ns queue={queue} outbox={outbox} {state}",
                s.idx
            );
        }
        let clock = self.clock.as_nanos();
        let _ = writeln!(out, "  coord: clock={clock} ns {}", flight::ring_state(coord));
        if self.tracer.is_enabled() {
            let _ = writeln!(out, "  trace: {}", flight::ring_state(&self.tracer));
        }
        let ring_events: u64 = self.postmortem_rings().map(EventRing::count).sum();
        out.push_str("counters:\n");
        for (name, v) in self.counters.iter() {
            let _ = writeln!(out, "  {name} = {v}");
        }
        if !gauges.is_empty() {
            out.push_str("gauge snapshot:\n");
            for (name, v) in gauges {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        out.push_str("==== end postmortem ====");
        self.base_counters.inc("flight.dumps");
        self.base_counters.add("flight.events", ring_events);
        self.refresh_counters();
        Some(out)
    }

    /// Render the postmortem a failure at this moment would carry,
    /// anchored at `anchor` (or the most recent recorded event when
    /// `None`). `None` when the recorder is unarmed. Public so harnesses
    /// and chaos suites can capture a dump around their own typed
    /// failures, not just engine-raised ones.
    pub fn flight_postmortem(&mut self, anchor: Option<EventId>) -> Option<String> {
        let gauges =
            if self.metrics.is_enabled() { self.metrics.last_values() } else { Vec::new() };
        self.render_flight_dump(anchor, &gauges)
    }

    /// Run until the event queues are empty (or the event budget is
    /// spent). Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run while events exist with `at <= deadline`. Returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.globals.build_ports();
        self.start_if_needed();
        let deadline_ns = deadline.as_nanos();
        let serial = self.nshards == 1 || self.tracer.is_enabled() || self.zero_lookahead;
        let mut processed = 0u64;
        loop {
            let mut next_ev = u64::MAX;
            for s in self.shards.iter_mut() {
                if let Some(k) = s.queue.peek() {
                    next_ev = next_ev.min(k.at);
                }
            }
            let next_fault = self.faults.peek().map(|r| r.0.at.as_nanos()).unwrap_or(u64::MAX);
            let next_at = next_ev.min(next_fault);
            if next_at == u64::MAX || next_at > deadline_ns {
                break;
            }
            // Take any samples due strictly before the next event, so a
            // sample at boundary `b` reflects the state after every event
            // with time ≤ `b`. Sampling reads state only: no events, no
            // RNG — disabled metrics cost exactly this one branch.
            if self.metrics.is_enabled() {
                self.pump_metrics(next_at);
            }
            if self.events >= self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} — likely an event storm",
                    self.cfg.max_events
                );
            }
            if next_fault <= next_ev {
                // Faults mutate global state; apply at the barrier, before
                // any event at an equal or later time.
                self.apply_next_fault();
                processed += 1;
            } else if serial {
                self.process_next_serial();
                processed += 1;
            } else {
                processed += self.run_window(next_ev, next_fault, deadline_ns);
            }
        }
        // Drained queues hand back their lane storage. Lane chunk lists
        // grow mid-run, between the packets and chunks that come and go;
        // kept, they would split that freed memory into pieces too small
        // for whatever the caller allocates next (DESIGN.md §9).
        for s in self.shards.iter_mut().filter(|s| s.queue.is_empty()) {
            s.queue = ShardQueue::new();
        }
        self.refresh_counters();
        self.audit_check_barrier();
        processed
    }

    /// Pop and apply the earliest pending fault.
    fn apply_next_fault(&mut self) {
        let Reverse(f) = self.faults.pop().expect("caller peeked a fault");
        debug_assert!(f.at >= self.clock, "time must not run backwards");
        self.clock = f.at;
        self.events += 1;
        self.base_counters.inc_id(SIM_EVENTS);
        self.base_counters.inc_id(SIM_FAULTS_APPLIED);
        let trace = self.trace_fault(&f.action);
        self.apply_fault(f.action, trace);
    }

    /// Serial mode: execute the globally smallest event key. Identical
    /// pop order to any sharded execution — keys are canonical — so this
    /// is also the reference order the trace stream exposes.
    fn process_next_serial(&mut self) {
        let mut best: Option<(EventKey, usize)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(k) = s.queue.peek() {
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, i));
                }
            }
        }
        let (key, si) = best.expect("caller peeked an event");
        let mut rec = recorder(&mut self.tracer, self.flight.get_mut(si));
        let g = &self.globals;
        self.shards[si].process_one(g, &mut rec);
        self.events += 1;
        self.clock = SimTime::from_nanos(key.at);
        // With more than one shard, serial mode still routes cross-shard
        // sends through the outbox; deliver them before the next pop so
        // the global argmin sees every pending event.
        if self.nshards > 1 {
            self.drain_outboxes();
        }
        self.audit_check_barrier();
    }

    /// Parallel mode: run one conservative-lookahead window starting at
    /// `start_ns` across all shards with due events, then merge
    /// cross-shard traffic at the barrier. Returns events processed.
    fn run_window(&mut self, start_ns: u64, next_fault_ns: u64, deadline_ns: u64) -> u64 {
        // Window end: bounded by the lookahead (cross-shard sends during
        // [start, end) arrive at ≥ start + min cross-shard latency ≥ end,
        // so shards are independent inside the window), clipped so faults,
        // the deadline, and metrics ticks all land on barriers.
        let mut end = start_ns.saturating_add(self.lookahead_ns);
        end = end.min(next_fault_ns);
        end = end.min(deadline_ns.saturating_add(1));
        if let Some(tick) = self.metrics.due_before(u64::MAX) {
            end = end.min(tick.saturating_add(1));
        }
        // Budget: each worker honours the full remaining budget; overshoot
        // is bounded by one window and the panic fires at the next
        // barrier, exactly like the serial loop's check.
        let cap = self.cfg.max_events.saturating_sub(self.events).max(1);
        if self.audit_armed {
            // Tag the window every access inside it will be checked
            // against: the lookahead bound only binds in-window sends.
            for s in self.shards.iter_mut() {
                if let Some(a) = s.audit.as_deref_mut() {
                    a.window_end_ns = end;
                    a.in_window = true;
                }
            }
        }
        let mut spawned = 0u64;
        {
            let g = &self.globals;
            // Windows run only with tracing off (it forces serial), so a
            // shard records into its own flight ring or nowhere.
            let mut rings = self.flight.iter_mut();
            let mut active: Vec<(&mut Shard, Recorder<'_>)> = self
                .shards
                .iter_mut()
                .filter_map(|s| {
                    let rec = rings.next().map_or(Recorder::Off, Recorder::Flight);
                    let due = s.queue.peek().is_some_and(|k| k.at < end);
                    due.then_some((s, rec))
                })
                .collect();
            if let [(s, rec)] = active.as_mut_slice() {
                // One busy shard: run inline, no thread overhead.
                s.process_window(g, rec, end, cap);
            } else {
                spawned = active.len() as u64;
                std::thread::scope(|scope| {
                    for (s, mut rec) in active {
                        scope.spawn(move || s.process_window(g, &mut rec, end, cap));
                    }
                });
            }
        }
        // Barrier: collect window results and merge outboxes. The merge
        // inserts by canonical key, so destination pop order is
        // independent of shard iteration order.
        let mut done = 0u64;
        let mut max_clock = self.clock.as_nanos();
        for s in self.shards.iter_mut() {
            done += std::mem::take(&mut s.window_done);
            max_clock = max_clock.max(s.clock_ns);
        }
        let moved = self.drain_outboxes();
        self.clock = SimTime::from_nanos(max_clock);
        self.events += done;
        self.exec.inc_id(SIM_SHARD_WINDOWS);
        self.exec.add_id(SIM_SHARD_XSHARD_PACKETS, moved);
        self.exec.add_id(SIM_SHARD_WORKER_SPAWNS, spawned);
        if self.audit_armed {
            for s in self.shards.iter_mut() {
                if let Some(a) = s.audit.as_deref_mut() {
                    a.window_end_ns = u64::MAX;
                    a.in_window = false;
                }
            }
            self.audit_check_barrier();
        }
        done
    }

    // ---- metrics plumbing (called only when metrics are enabled) ----

    /// Take every sample due strictly before `next_event_ns`, one tick per
    /// interval boundary — so a sample stamped at boundary `b` reflects
    /// the state after every event with time ≤ `b`.
    fn pump_metrics(&mut self, next_event_ns: u64) {
        while let Some(at) = self.metrics.due_before(next_event_ns) {
            self.take_sample(at);
            self.metrics.advance();
        }
    }

    /// Instance labels for per-node gauges: the node's [`Node::name`] when
    /// unique within the sim, else `n<id>` (the sampler normalizes labels
    /// to the gauge grammar).
    fn metric_instances(&self) -> Vec<String> {
        let names = self.node_names();
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if names.iter().filter(|m| *m == name).count() == 1 {
                    name.clone()
                } else {
                    format!("n{i}")
                }
            })
            .collect()
    }

    /// The runtime state of one link direction, wherever its owner shard
    /// keeps it.
    fn link_dir(&self, link: usize, d: usize) -> &Direction {
        let l = &self.globals.links[link];
        let si = self.globals.nodes[l.ends[d].0 as usize].shard as usize;
        &self.shards[si].dirs[l.dir_slot[d] as usize]
    }

    /// Record one metrics tick at sim time `at` (ns): link and engine
    /// gauges, every node's [`Node::sample_metrics`], derived counter
    /// rates, then (when configured) the invariant audits. The set is
    /// `mem::take`n around the walk so nodes can be borrowed while
    /// recording.
    fn take_sample(&mut self, at: u64) {
        use std::fmt::Write as _;
        self.refresh_counters();
        let mut set = std::mem::take(&mut self.metrics);
        {
            let mut m = set.sampler(at);
            let mut label = String::new();
            for i in 0..self.globals.links.len() {
                // Queue depth in bytes, both directions: the backlog is
                // kept in the time domain, so scale back by the link rate.
                let rate = self.globals.classes[self.globals.links[i].class as usize].rate;
                let mut queue_bytes = 0u64;
                for d in 0..2 {
                    let backlog_ns =
                        self.link_dir(i, d).next_free.saturating_sub(self.clock).as_nanos();
                    queue_bytes +=
                        ((backlog_ns as u128 * 1000) / rate.ps_per_byte.max(1) as u128) as u64;
                }
                label.clear();
                let _ = write!(label, "l{i}");
                m.set_instance(&label);
                m.gauge("link.queue_bytes", queue_bytes);
                for d in 0..2 {
                    label.clear();
                    let _ = write!(label, "l{i}_d{d}");
                    m.set_instance(&label);
                    m.windowed_pct("link.util_pct", self.link_dir(i, d).busy_ns);
                }
            }
            let instances = self.metric_instances();
            for (gid, instance) in instances.iter().enumerate() {
                let rec = &self.globals.nodes[gid];
                let (shard, li) = (&self.shards[rec.shard as usize], rec.local as usize);
                m.set_instance(instance);
                m.gauge("node.pending_timers", shard.pending_timers[li]);
                shard.nodes[li].sample_metrics(&mut m);
            }
            m.clear_instance();
            m.gauge("engine.inflight_packets", self.total_inflight());
            // Windowed rates over the *output* engine counters:
            // `rate.<counter>`. The `sim.shard.*` execution-statistic tail
            // of ENGINE_SLOTS is excluded — those values depend on
            // --shards, and sampled output must not.
            let mut rate_name = String::new();
            for (slot, id) in ENGINE_SLOTS[..ENGINE_OUTPUT_SLOTS]
                .iter()
                .zip(ENGINE_SLOT_IDS[..ENGINE_OUTPUT_SLOTS].iter())
            {
                rate_name.clear();
                rate_name.push_str("rate.");
                rate_name.push_str(slot.name);
                m.rate_per_s(&rate_name, self.counters.get_id(*id));
            }
            if self.shard_telemetry {
                for (i, s) in self.shards.iter().enumerate() {
                    label.clear();
                    let _ = write!(label, "s{i}");
                    m.set_instance(&label);
                    m.gauge("shard.queue_events", s.queue.len() as u64);
                    m.gauge("shard.clock_ns", s.clock_ns);
                }
                m.clear_instance();
            }
        }
        if set.audit_enabled() {
            self.run_audit(&mut set, at);
        }
        self.metrics = set;
    }

    /// One invariant-monitor pass at sim time `at`. With the flight
    /// recorder armed and the monitor in panic-on-violation mode, the
    /// checks run with panics deferred so a failure can carry the rendered
    /// postmortem: the panic message is the violation's own rendering
    /// (identical prefix to the bare panic) followed by the dump.
    fn run_audit(&mut self, set: &mut MetricSet, at: u64) {
        if !self.flight.is_empty() && set.panic_on_violation() {
            let before = set.violations().len();
            set.set_panic_on_violation(false);
            self.run_audit_checks(set, at);
            set.set_panic_on_violation(true);
            if set.violations().len() > before {
                let rendered = set.violations()[before].render();
                let gauges = set.last_values();
                let dump = self.render_flight_dump(None, &gauges).unwrap_or_default();
                panic!("{rendered}\n{dump}");
            }
        } else {
            self.run_audit_checks(set, at);
        }
    }

    /// The invariant checks themselves: the engine-level ones (packet
    /// conservation, counter monotonicity), then every node's
    /// [`Node::audit`] claims, cross-checked at the end.
    fn run_audit_checks(&mut self, set: &mut MetricSet, at: u64) {
        // With tracing on, pin any violation to the most recent recorded
        // event — audits run between events, so the last thing that
        // happened is the right anchor.
        let ev = self.tracer.latest();
        let inflight = self.total_inflight();
        let sent = self.counters.get_id(SIM_PACKETS_SENT);
        let accounted = self.counters.get_id(SIM_PACKETS_DELIVERED)
            + self.counters.get_id(SIM_PACKETS_DROPPED)
            + self.counters.get_id(SIM_PACKETS_DROPPED_BAD_PORT)
            + self.counters.get_id(SIM_PACKETS_LOST)
            + self.counters.get_id(SIM_PACKETS_DROPPED_LINK_DOWN)
            + self.counters.get_id(SIM_PACKETS_DROPPED_PARTITION)
            + self.counters.get_id(SIM_PACKETS_DROPPED_DEAD_NODE)
            + self.counters.get_id(SIM_DELIVERIES_DROPPED_CRASH)
            + inflight;
        if sent != accounted {
            set.report_violation(
                at,
                "packet_conservation",
                format!(
                    "sent={sent} but delivered+dropped+lost+in-flight={accounted} \
                     (in-flight={inflight})"
                ),
                ev,
            );
        }
        let snapshot: Vec<(&'static str, u64)> = ENGINE_SLOTS[..ENGINE_OUTPUT_SLOTS]
            .iter()
            .zip(ENGINE_SLOT_IDS[..ENGINE_OUTPUT_SLOTS].iter())
            .map(|(slot, id)| (slot.name, self.counters.get_id(*id)))
            .collect();
        set.check_monotonic(at, &snapshot, ev);
        set.begin_audit();
        for gid in 0..self.globals.nodes.len() {
            let mut scope = set.auditor(gid as u32, self.globals.nodes[gid].alive);
            self.node(NodeId(gid)).audit(&mut scope);
        }
        set.check_claims(at, ev);
    }
}

#[cfg(test)]
mod tests;
