//! `invoke_read` and `invoke_write`: the rendezvous runtime at the
//! large-message end of the size range.
//!
//! 16 `core::GasHostNode`s — 8 invokers, 8 holders — on the object-routed
//! star; 512 data objects of 48 KiB homed at the holders (13 fragments
//! each at the default 4 KiB MTU), four small activation objects per
//! invoker and one code object. Ops arrive open loop (Poisson, Zipf 900 ‰
//! over the objects), one single-step script each.
//!
//! * `invoke_read`: 70 % `Invoke { executor: None }` (placement decides:
//!   the four full-speed invokers pull the data and run locally, the four
//!   quarter-speed ones ship the call to the data's home), 30 % `Fetch`.
//!   Invoker caches hold a quarter of the working set, so hit, miss and
//!   evict paths all run.
//! * `invoke_write`: same fabric, objects and seed, but half the ops are
//!   256 B `Write`s through the home's coherence directory and the rest
//!   `Fetch`es of the same objects — invalidations, version bumps and
//!   re-fetches instead of cache hits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdv_core::code::{make_code_object, CodeDesc, ExecOutcome};
use rdv_core::runtime::{GasHostConfig, GasHostNode, ScriptStep};
use rdv_core::scenarios::{activation_object, standard_registry};
use rdv_core::{FnRegistry, HostProfile, LocalSpace, PlacementEngine};
use rdv_load::{ArrivalSchedule, LoadCurve, OpenLoopSpec};
use rdv_netsim::{Node, NodeId, Sim, SimTime};
use rdv_objspace::{ObjId, Object, ObjectKind};
use rdv_p4rt::pipeline::{SwitchConfig, SwitchNode};

use super::replog::{host_link_rack, star};
use super::{
    engine_counts, jittered, switch_counts, Env, Outcome, Prepared, ReplayState, Workload,
};
use crate::stats::splitmix64;
use crate::tap::{node_ref, port_calls, Kind};

const INVOKERS: usize = 8;
const HOLDERS: usize = 8;
const OBJECTS: u32 = 512;
const OBJECT_BYTES: u64 = 48 * 1024;
const ACTIVATIONS: usize = 4;
const WRITE_BYTES: u64 = 256;
/// First byte of an object's write slots: each invoker writes only its own
/// 256 B slot, so the final content does not depend on how writes from
/// different invokers interleave at the home.
const SLOT_BASE: u64 = 8;

const CODE_OBJ: ObjId = ObjId(0xC0DE_0B1E);
/// Registry id of the benchmark's function: a digest of its arguments.
const FN_DIGEST: u64 = 0xD16E;

fn invoker_inbox(i: usize) -> ObjId {
    ObjId(0x1_0000 + i as u128)
}

fn holder_inbox(h: usize) -> ObjId {
    ObjId(0x2_0000 + h as u128)
}

fn activation_id(invoker: usize, slot: usize) -> ObjId {
    ObjId(0xAC7_0000 + (invoker * ACTIVATIONS + slot) as u128)
}

/// Quarter speed for the odd invokers: placement ships their invokes to
/// the data's home instead of pulling 48 KiB to a slow executor.
fn invoker_speed(i: usize) -> f64 {
    if i.is_multiple_of(2) {
        1.0
    } else {
        0.25
    }
}

/// `standard_registry()` plus the digest function the invokes run: FNV-1a
/// over the head of the data object and of the activation, so a result
/// proves which bytes the executor saw.
fn registry() -> FnRegistry {
    let mut reg = standard_registry();
    reg.register(FN_DIGEST, |ctx, args| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut touched = 0;
        for &arg in args {
            let obj = ctx.object(arg)?;
            let len = obj.heap_len().saturating_sub(SLOT_BASE).min(4096);
            let bytes = obj.read(SLOT_BASE, len).map_err(|_| rdv_core::CoreError::InvokeRefused)?;
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            touched += obj.heap_len();
        }
        Ok(ExecOutcome { result: h.to_le_bytes().to_vec(), bytes_touched: touched })
    });
    reg
}

/// 2 µs dispatch + 2 ns per byte touched: ≈ 100 µs over one data object.
/// The median op is a cache-hit local invoke whose latency is this cost
/// alone — no link, so no cable jitter — hence a few seed-drawn
/// nanoseconds of dispatch cost, for the reason given at
/// [`super::jittered`].
fn code_desc(seed: u64) -> CodeDesc {
    CodeDesc {
        fn_id: FN_DIGEST,
        base_ns: 2_000 + splitmix64(seed ^ 0xC0DE) % 16,
        ps_per_byte: 2_000,
    }
}

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `ScriptStep::Invoke { executor: None, .. }`.
    Invoke,
    /// `ScriptStep::Fetch`.
    Fetch,
    /// `ScriptStep::Write` of 256 B.
    Write,
}

/// One generated op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Issue time.
    pub at: SimTime,
    /// Issuing invoker.
    pub invoker: usize,
    /// Zipf rank of the data object.
    pub obj: u32,
    /// What it does.
    pub kind: OpKind,
    /// Per-op pseudo-random word (activation choice, write payload).
    pub salt: u64,
}

fn write_payload(salt: u64) -> Vec<u8> {
    (0..WRITE_BYTES / 8).flat_map(|i| splitmix64(salt ^ i).to_le_bytes()).collect()
}

/// The generated inputs: the objects and the op stream.
pub struct InvokeInputs {
    /// Data objects by Zipf rank; object `k` is homed at holder `k % 8`.
    pub objects: Vec<Object>,
    /// The ops, time-sorted.
    pub ops: Vec<Op>,
}

/// Generate the objects and the open-loop op stream for `seed`.
pub fn generate(write: bool, seed: u64, env: &Env) -> InvokeInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1470);
    let objects = (0..OBJECTS as u64)
        .map(|k| {
            let mut obj = Object::with_capacity(
                ObjId::random(&mut rng),
                ObjectKind::Data,
                OBJECT_BYTES + (1 << 12),
            );
            let off = obj.alloc(OBJECT_BYTES).expect("capacity");
            debug_assert_eq!(off, SLOT_BASE);
            let fill: Vec<u8> = (0..OBJECT_BYTES / 8)
                .flat_map(|w| splitmix64(seed ^ (k << 32) ^ w).to_le_bytes())
                .collect();
            obj.write(off, &fill).expect("in bounds");
            obj
        })
        .collect();
    let ops = env.scaled(if write { 80_000 } else { 50_000 }, 2_000);
    let rate_per_s = 400_000;
    let open = OpenLoopSpec {
        clients: INVOKERS as u32,
        objects: OBJECTS,
        zipf_skew_permille: 900,
        base_rate_per_s: rate_per_s,
        start: SimTime::from_micros(100),
        duration: SimTime::from_nanos(ops * 1_000_000_000 / rate_per_s),
        curve: LoadCurve::flat(),
        churn: None,
    };
    let schedule = ArrivalSchedule::generate(&open, seed);
    let ops = schedule
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let salt = splitmix64(seed ^ 0x0905 ^ ((i as u64) << 8));
            let roll = salt % 100;
            let kind = match (write, roll) {
                (false, r) if r < 70 => OpKind::Invoke,
                (true, r) if r < 50 => OpKind::Write,
                _ => OpKind::Fetch,
            };
            Op { at: a.at, invoker: a.client as usize, obj: a.obj, kind, salt: salt >> 8 }
        })
        .collect();
    InvokeInputs { objects, ops }
}

/// The placement view every invoker carries: all 16 hosts, the default
/// rack link between any pair, every object at its home.
fn placement_engine(inputs: &InvokeInputs) -> PlacementEngine {
    let mut engine = PlacementEngine::new();
    for i in 0..INVOKERS {
        engine.add_host(HostProfile {
            inbox: invoker_inbox(i),
            speed: invoker_speed(i),
            load: 1.0,
        });
    }
    for h in 0..HOLDERS {
        engine.add_host(HostProfile { inbox: holder_inbox(h), speed: 1.0, load: 1.0 });
    }
    for (k, obj) in inputs.objects.iter().enumerate() {
        engine.set_object(obj.id(), holder_inbox(k % HOLDERS), obj.image_len() as u64);
    }
    for i in 0..INVOKERS {
        for slot in 0..ACTIVATIONS {
            engine.set_object(activation_id(i, slot), invoker_inbox(i), 512);
        }
    }
    engine.set_object(CODE_OBJ, holder_inbox(0), 256);
    engine
}

fn activation_values(invoker: usize, slot: usize) -> Vec<f32> {
    (0..64).map(|v| ((invoker * 31 + slot * 7 + v) % 17) as f32 / 17.0).collect()
}

fn invoke_args(inputs: &InvokeInputs, op: &Op) -> Vec<ObjId> {
    vec![
        inputs.objects[op.obj as usize].id(),
        activation_id(op.invoker, (op.salt % ACTIVATIONS as u64) as usize),
    ]
}

fn step(inputs: &InvokeInputs, op: &Op) -> ScriptStep {
    let target = inputs.objects[op.obj as usize].id();
    match op.kind {
        OpKind::Invoke => ScriptStep::Invoke {
            executor: None,
            code: CODE_OBJ,
            args: invoke_args(inputs, op),
            result_bytes: 8,
        },
        OpKind::Fetch => ScriptStep::Fetch(target),
        OpKind::Write => ScriptStep::Write {
            target,
            offset: SLOT_BASE + op.invoker as u64 * WRITE_BYTES,
            data: write_payload(op.salt),
        },
    }
}

/// A built invoke run.
pub struct InvokeRun {
    inputs: InvokeInputs,
    sim: Sim,
    ids: Vec<NodeId>,
    switch: NodeId,
    /// Index into `inputs.ops` of each invoker's scripts, in script order.
    scripts_of: Vec<Vec<usize>>,
    cache_bytes: u64,
    seed: u64,
}

/// Create the hosts, objects and scripts, wire the star and schedule the
/// op stream.
pub fn build(inputs: InvokeInputs, seed: u64, env: &Env) -> InvokeRun {
    let registry = registry();
    let engine = placement_engine(&inputs);
    // A quarter of an invoker's working set (every object, Zipf-weighted).
    let cache_bytes = u64::from(OBJECTS) * inputs.objects[0].image_len() as u64 / 4;

    let mut invokers: Vec<GasHostNode> = (0..INVOKERS)
        .map(|i| {
            let cfg = GasHostConfig { speed: invoker_speed(i), cache_bytes, ..Default::default() };
            let mut n = GasHostNode::new(format!("inv{i}"), invoker_inbox(i), cfg);
            n.registry = registry.clone();
            n.placement = Some(engine.clone());
            for slot in 0..ACTIVATIONS {
                activation_object(
                    &mut n.store,
                    activation_id(i, slot),
                    &activation_values(i, slot),
                );
            }
            n
        })
        .collect();
    let mut holders: Vec<GasHostNode> = (0..HOLDERS)
        .map(|h| {
            let mut n =
                GasHostNode::new(format!("hold{h}"), holder_inbox(h), GasHostConfig::default());
            n.registry = registry.clone();
            n
        })
        .collect();
    holders[0].store.insert(make_code_object(CODE_OBJ, code_desc(seed))).expect("fresh id");
    let mut obj_routes = vec![(CODE_OBJ, INVOKERS)];
    for (k, obj) in inputs.objects.iter().enumerate() {
        holders[k % HOLDERS].store.insert(obj.clone()).expect("fresh id");
        obj_routes.push((obj.id(), INVOKERS + k % HOLDERS));
    }
    for i in 0..INVOKERS {
        for slot in 0..ACTIVATIONS {
            obj_routes.push((activation_id(i, slot), i));
        }
    }

    let mut scripts_of: Vec<Vec<usize>> = vec![Vec::new(); INVOKERS];
    let mut timers = Vec::with_capacity(inputs.ops.len());
    for (i, op) in inputs.ops.iter().enumerate() {
        let node = &mut invokers[op.invoker];
        timers.push((op.at, op.invoker, node.scripts.len() as u64));
        node.scripts.push(vec![step(&inputs, op)]);
        scripts_of[op.invoker].push(i);
    }

    let link = jittered(host_link_rack(), seed);
    let mut nodes: Vec<(Box<dyn Node>, ObjId, rdv_netsim::LinkSpec)> = Vec::new();
    for (i, n) in invokers.into_iter().enumerate() {
        nodes.push((env.wrap.node(Kind::GasHost, n), invoker_inbox(i), link));
    }
    for (h, n) in holders.into_iter().enumerate() {
        nodes.push((env.wrap.node(Kind::GasHost, n), holder_inbox(h), link));
    }
    let (mut sim, ids, switch) = star(seed, env, nodes, &obj_routes);
    sim.schedule_batch(timers.into_iter().map(|(at, inv, tag)| (at, ids[inv], tag)));
    InvokeRun { inputs, sim, ids, switch, scripts_of, cache_bytes, seed }
}

impl InvokeRun {
    fn host(&self, index: usize) -> &GasHostNode {
        node_ref::<GasHostNode>(&self.sim, self.ids[index])
    }

    /// The home copy of data object `k`.
    fn home_object(&self, k: usize) -> &Object {
        self.host(INVOKERS + k % HOLDERS)
            .store
            .get(self.inputs.objects[k].id())
            .expect("homes never give objects away")
    }

    /// A `LocalSpace` holding the same hosts and objects — the semantics
    /// oracle invoke results are compared against.
    fn local_space(&self) -> LocalSpace {
        let mut space = LocalSpace::new(registry(), 0);
        for i in 0..INVOKERS {
            space.add_host(HostProfile {
                inbox: invoker_inbox(i),
                speed: invoker_speed(i),
                load: 1.0,
            });
            for slot in 0..ACTIVATIONS {
                let mut store = rdv_objspace::ObjectStore::new();
                activation_object(&mut store, activation_id(i, slot), &activation_values(i, slot));
                let act = store.remove(activation_id(i, slot)).expect("just built");
                space.insert_object(invoker_inbox(i), act).expect("fresh id");
            }
        }
        for h in 0..HOLDERS {
            space.add_host(HostProfile { inbox: holder_inbox(h), speed: 1.0, load: 1.0 });
        }
        space
            .insert_object(holder_inbox(0), make_code_object(CODE_OBJ, code_desc(self.seed)))
            .expect("fresh id");
        for (k, obj) in self.inputs.objects.iter().enumerate() {
            space.insert_object(holder_inbox(k % HOLDERS), obj.clone()).expect("fresh id");
        }
        space
    }

    /// A sample of invoke ops as `(invoker, script index, op)`.
    fn sampled_invokes(&self, want: usize) -> Vec<(usize, usize, Op)> {
        let all: Vec<(usize, usize, Op)> = self
            .scripts_of
            .iter()
            .enumerate()
            .flat_map(|(inv, scripts)| scripts.iter().enumerate().map(move |(s, &op)| (inv, s, op)))
            .map(|(inv, s, op)| (inv, s, self.inputs.ops[op]))
            .filter(|(_, _, op)| op.kind == OpKind::Invoke)
            .collect();
        let stride = (all.len() / want.max(1)).max(1);
        all.into_iter().step_by(stride).collect()
    }
}

impl Prepared for InvokeRun {
    fn run(&mut self) {
        self.sim.run_until_idle();
    }

    fn collect(&mut self) -> Outcome {
        let mut out = Outcome { attempted: self.inputs.ops.len() as u64, ..Outcome::default() };
        let (mut first, mut last) = (u64::MAX, 0u64);
        for i in 0..INVOKERS {
            let host = self.host(i);
            for r in &host.records {
                if r.failed {
                    out.failed += 1;
                    continue;
                }
                out.latencies_ns.push((r.completed - r.started).as_nanos());
                first = first.min(r.started.as_nanos());
                last = last.max(r.completed.as_nanos());
            }
        }
        out.completed = out.latencies_ns.len() as u64;
        out.sim_span_ns = last.saturating_sub(first.min(last));
        for index in 0..self.ids.len() {
            let host = self.host(index);
            if index < INVOKERS {
                out.add("memproto.cache_hits", host.cache.hits);
                out.add("memproto.cache_misses", host.cache.misses);
                out.add("memproto.cache_evictions", host.cache.evictions);
                out.add("memproto.cache_invalidations", host.cache.invalidations);
            }
            for (key, name) in [
                ("core.fetch_demand", "fetch.demand"),
                ("core.fetch_completed", "fetch.completed"),
                ("core.serves", "serves"),
                ("core.invokes_executed", "invokes_executed"),
                ("core.writes_served", "writes_served"),
                ("core.dir_invalidates_sent", "dir_invalidates_sent"),
                ("core.retries", "retries.fetch"),
                ("core.retries", "retries.invoke"),
                ("core.retries", "retries.write"),
                ("core.retries", "retries.push"),
                ("core.rx_bytes", "rx_bytes"),
                ("core.tx_bytes", "tx_bytes"),
                ("core.nacks", "nacks"),
            ] {
                out.add(key, host.counters.get(name));
            }
        }
        let ops = &self.inputs.ops;
        out.add("core.invokes", ops.iter().filter(|o| o.kind == OpKind::Invoke).count() as u64);
        out.add("core.writes", ops.iter().filter(|o| o.kind == OpKind::Write).count() as u64);
        let by_port = port_calls::<SwitchNode>(&self.sim, self.switch);
        out.add("wire.host_packets", by_port.map_or(0, |p| p.iter().sum()));
        switch_counts(&self.sim, self.switch, &mut out);
        engine_counts(&self.sim, &mut out);
        out
    }

    fn check(&mut self, _outcome: &Outcome) -> Result<(), String> {
        for i in 0..INVOKERS {
            let host = self.host(i);
            if host.records.len() != host.scripts.len() {
                return Err(format!(
                    "inv{i}: {} of {} scripts never completed",
                    host.scripts.len() - host.records.len(),
                    host.scripts.len()
                ));
            }
        }
        // A sample of invoke results equals `LocalSpace::invoke` over the
        // same objects (data objects are never written in `invoke_read`,
        // and `invoke_write` issues no invokes).
        let sample = self.sampled_invokes(64);
        if !sample.is_empty() {
            let mut space = self.local_space();
            for (inv, script, op) in sample {
                let record = self
                    .host(inv)
                    .records
                    .iter()
                    .find(|r| r.script == script)
                    .expect("every script has a record");
                let oracle = space
                    .invoke(invoker_inbox(inv), None, CODE_OBJ, &invoke_args(&self.inputs, &op), 8)
                    .map_err(|e| format!("oracle invoke failed: {e:?}"))?;
                if record.invoke_result != oracle.result {
                    return Err(format!(
                        "inv{inv} script {script}: result {:?}, LocalSpace says {:?}",
                        record.invoke_result, oracle.result
                    ));
                }
            }
        }
        // Every home object equals a replay of its acknowledged writes:
        // all writes were acknowledged (no op failed), one invoker's writes
        // reach the home in issue order, and slots are disjoint — so each
        // slot holds its invoker's last write, or the generated fill.
        let mut expected: Vec<Vec<u8>> = self
            .inputs
            .objects
            .iter()
            .map(|o| o.read(SLOT_BASE, OBJECT_BYTES).expect("in bounds").to_vec())
            .collect();
        for op in self.inputs.ops.iter().filter(|o| o.kind == OpKind::Write) {
            let at = (op.invoker as u64 * WRITE_BYTES) as usize;
            expected[op.obj as usize][at..at + WRITE_BYTES as usize]
                .copy_from_slice(&write_payload(op.salt));
        }
        for (k, want) in expected.iter().enumerate() {
            let home = self.home_object(k);
            if home.read(SLOT_BASE, OBJECT_BYTES).expect("in bounds") != want.as_slice() {
                return Err(format!("home object {k} differs from the replay of its writes"));
            }
        }
        // Coherence at quiescence: no invoker still caches a copy older
        // than its home (every write invalidated its sharers).
        for i in 0..INVOKERS {
            for k in 0..OBJECTS as usize {
                let id = self.inputs.objects[k].id();
                let home = self.home_object(k).version();
                if let Some(cached) = self.host(i).cache.version(id) {
                    if cached != home {
                        return Err(format!(
                            "inv{i} caches object {k} at version {cached}, home is at {home}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn replay_state(&mut self) -> ReplayState {
        let link = host_link_rack();
        let cfg = GasHostConfig::default();
        let calls = self
            .sampled_invokes(256)
            .into_iter()
            .map(|(inv, _, op)| (invoker_inbox(inv), invoke_args(&self.inputs, &op)))
            .collect();
        ReplayState {
            pipeline: Some(node_ref::<SwitchNode>(&self.sim, self.switch).pipeline.clone()),
            images: (0..192).map(|k| self.home_object(k).to_image()).collect(),
            cache_bytes: self.cache_bytes,
            placement: Some(PlacementReplay {
                engine: placement_engine(&self.inputs),
                space: self.local_space(),
                code: CODE_OBJ,
                desc: code_desc(self.seed),
                calls,
            }),
            queue_prefill_ns: self.inputs.ops.iter().map(|o| o.at.as_nanos()).collect(),
            queue_delays_ns: vec![
                (link.latency + link.tx_time(4200)).as_nanos(),
                SwitchConfig::default().pipeline_latency.as_nanos(),
                cfg.serve_delay.as_nanos(),
                cfg.retry_timeout.as_nanos(),
            ],
            ..ReplayState::default()
        }
    }
}

/// Inputs of the `core.*` replays.
pub struct PlacementReplay {
    /// An invoker's placement view.
    pub engine: PlacementEngine,
    /// The oracle space holding the same objects.
    pub space: LocalSpace,
    /// The code object.
    pub code: ObjId,
    /// Its descriptor.
    pub desc: CodeDesc,
    /// `(invoker, args)` of a sample of invokes.
    pub calls: Vec<(ObjId, Vec<ObjId>)>,
}

/// The `invoke_read` / `invoke_write` workloads.
pub struct Invoke {
    /// Half the ops are coherent writes instead of 70 % invokes.
    pub write: bool,
}

impl Workload for Invoke {
    fn name(&self) -> &'static str {
        if self.write {
            "invoke_write"
        } else {
            "invoke_read"
        }
    }

    fn why(&self) -> &'static str {
        if self.write {
            "same fabric and objects, half the ops 256 B coherent writes: directory invalidations, version bumps and re-fetches — the cost of caching harder shows here"
        } else {
            "16 GasHostNodes, 48 KiB objects, 70 % placed invokes + 30 % fetches, cache = 1/4 working set: core placement/runtime, memproto frag/cache and objspace images at large messages"
        }
    }

    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared> {
        let inputs = env.phases.phase("setup.generate", || generate(self.write, seed, env));
        Box::new(env.phases.phase("setup.build", || build(inputs, seed, env)))
    }
}
