//! Experiment scenarios: Figure 1 (F1), the serialization claim (S1), and
//! the prefetching ablation (A1).
//!
//! Every scenario builds a star fabric (hosts around one object-routing
//! switch) with routes pre-installed — equivalent to the controller scheme
//! after its advertise/bootstrap phase, which keeps the measured part of
//! the run about the *strategies*, not discovery (discovery is measured
//! separately in `rdv-discovery`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rdv_netsim::{LinkSpec, Node, NodeId, Observe, Sim, SimConfig, SimTime};
use rdv_objspace::{FotFlags, ObjId, ObjectKind, ObjectStore};
use rdv_p4rt::capacity::SramBudget;
use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
use rdv_p4rt::table::{Action, MatchKind, Table, TableEntry};
use rdv_wire::cost::{CostMeter, Phase};
use rdv_wire::sparsemodel::{serialize_model, SparseModel, SparseModelSpec};

use crate::code::{make_code_object, CodeDesc, ExecOutcome, FnRegistry};
use crate::modelobj::{infer_in_place, model_to_object};
use crate::placement::{HostProfile, LinkCost, PlacementEngine};
use crate::runtime::{GasHostConfig, GasHostNode, PrefetchPolicy, ScriptStep};

/// Registry function ID: sparse inference over `[model, activation]`.
pub const FN_INFER: u64 = 1;
/// Registry function ID: sum the values of a traversed chain (tests).
pub const FN_NOOP: u64 = 2;

/// Offset where an activation object's f32 vector begins.
pub const ACT_OFFSET: u64 = 8;

/// Build the shared function registry.
pub fn standard_registry() -> FnRegistry {
    let mut reg = FnRegistry::new();
    reg.register(FN_INFER, |ctx, args| {
        if args.len() != 2 {
            return Err(crate::CoreError::InvokeRefused);
        }
        let (cols, act) = {
            let model = ctx.object(args[0])?;
            let shape = crate::modelobj::model_shape(model)
                .map_err(|_| crate::CoreError::MalformedObject(args[0], "shape"))?;
            (shape.cols, shape)
        };
        let _ = act;
        let activation = {
            let act_obj = ctx.object(args[1])?;
            act_obj
                .read_f32s(ACT_OFFSET, cols as usize)
                .map_err(|_| crate::CoreError::MalformedObject(args[1], "activation"))?
        };
        let model = ctx.object(args[0])?;
        let (output, flops) = infer_in_place(model, &activation)
            .map_err(|_| crate::CoreError::MalformedObject(args[0], "model"))?;
        let mut w = rdv_wire::WireWriter::with_capacity(output.len() * 4 + 8);
        w.put_uvarint(output.len() as u64);
        for v in &output {
            w.put_f32(*v);
        }
        // `bytes_touched` carries cost units; for inference we report flops
        // and pair it with a ps-per-flop CodeDesc.
        Ok(ExecOutcome { result: w.into_vec(), bytes_touched: flops })
    });
    reg.register(FN_NOOP, |_ctx, _args| Ok(ExecOutcome { result: vec![1], bytes_touched: 0 }));
    reg
}

/// The inference code descriptor: 10 µs dispatch + 0.25 ns per flop.
pub fn infer_code_desc() -> CodeDesc {
    CodeDesc { fn_id: FN_INFER, base_ns: 10_000, ps_per_byte: 250 }
}

/// Build a star fabric, unobserved, at the process-default shard count:
/// see [`build_star_fabric_observed`].
pub fn build_star_fabric(
    seed: u64,
    nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)>,
    obj_routes: &[(ObjId, usize)],
) -> (Sim, Vec<NodeId>) {
    build_star_fabric_observed(seed, 0, Observe::default(), nodes, obj_routes)
}

/// Build a star fabric: `nodes[i]` (with its inbox and link) attaches to
/// switch port `i`; inbox routes plus `obj_routes` (object → host index)
/// are pre-installed (post-bootstrap controller state). `shards` is the
/// engine shard count (0 inherits the process default; the chaos soak
/// replays scenarios at several counts and asserts byte-identical
/// outcomes), and `observe` is armed before the first node is added.
pub fn build_star_fabric_observed(
    seed: u64,
    shards: usize,
    observe: Observe,
    nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)>,
    obj_routes: &[(ObjId, usize)],
) -> (Sim, Vec<NodeId>) {
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    sim.observe(observe);
    let mut pl = Pipeline::new(objnet_format(), Action::Drop);
    pl.add_table(Table::new(
        "objroute",
        vec![OBJNET_DST_OBJ],
        MatchKind::Exact,
        128,
        SramBudget::tofino(),
    ));
    for (i, (_, inbox, _)) in nodes.iter().enumerate() {
        pl.table_mut(0)
            .expect("table 0")
            .insert(TableEntry::Exact { key: vec![inbox.as_u128()] }, Action::Forward(i))
            .expect("capacity");
    }
    for &(obj, host) in obj_routes {
        pl.table_mut(0)
            .expect("table 0")
            .insert(TableEntry::Exact { key: vec![obj.as_u128()] }, Action::Forward(host))
            .expect("capacity");
    }
    let host_count = nodes.len();
    let mut ids = Vec::with_capacity(host_count);
    let mut links = Vec::with_capacity(host_count);
    for (node, _, link) in nodes {
        ids.push(sim.add_node(node));
        links.push(link);
    }
    let switch = sim.add_node(Box::new(SwitchNode::new("s0", pl, SwitchConfig::default())));
    for (id, link) in ids.iter().zip(links) {
        // Hosts connect in order, so switch port i leads to host i.
        sim.connect(*id, switch, link);
    }
    (sim, ids)
}

/// Big-buffer host NIC link (congestion control is out of scope; see
/// DESIGN.md): rack latency/bandwidth, effectively unbounded queue.
pub fn host_link_rack() -> LinkSpec {
    LinkSpec { queue_bytes: 1 << 32, ..LinkSpec::rack() }
}

/// Edge-device link with a big buffer.
pub fn host_link_edge() -> LinkSpec {
    LinkSpec { queue_bytes: 1 << 32, ..LinkSpec::edge() }
}

/// Build an activation object holding `values` at [`ACT_OFFSET`].
pub fn activation_object(store: &mut ObjectStore, id: ObjId, values: &[f32]) {
    let mut obj = rdv_objspace::Object::with_capacity(id, ObjectKind::Data, 1 << 20);
    let off = obj.alloc(values.len() as u64 * 4).expect("capacity");
    debug_assert_eq!(off, ACT_OFFSET);
    obj.write_f32s(off, values).expect("in bounds");
    store.insert(obj).expect("fresh id");
}

// ---------------------------------------------------------------------------
// F1 — Figure 1: rendezvous strategies
// ---------------------------------------------------------------------------

/// The Figure 1 strategies (plus the Wang et al. halfway design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F1Strategy {
    /// (1) Alice copies the data to herself, forwards it to Carol, then
    /// invokes — two traversals of Alice's slow link.
    ManualCopy,
    /// (2) Alice tells Carol to pull from Bob, then invokes — efficient,
    /// but Alice's application code orchestrates the movement.
    ManualPull,
    /// Wang et al. (HotOS '21): first-class references, but the executor is
    /// still fixed by the programmer (compute-centric).
    RefRpcFixed,
    /// (3) Alice invokes by reference; the system places the computation
    /// and moves data on demand.
    Automatic,
}

impl F1Strategy {
    /// All strategies in figure order.
    pub const ALL: [F1Strategy; 4] = [
        F1Strategy::ManualCopy,
        F1Strategy::ManualPull,
        F1Strategy::RefRpcFixed,
        F1Strategy::Automatic,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            F1Strategy::ManualCopy => "manual-copy",
            F1Strategy::ManualPull => "manual-pull",
            F1Strategy::RefRpcFixed => "ref-rpc-fixed",
            F1Strategy::Automatic => "automatic",
        }
    }
}

/// F1 configuration.
#[derive(Debug, Clone, Copy)]
pub struct F1Config {
    /// Which strategy to run.
    pub strategy: F1Strategy,
    /// The model workload.
    pub model: SparseModelSpec,
    /// RNG seed.
    pub seed: u64,
}

/// F1 result.
#[derive(Debug, Clone)]
pub struct F1Outcome {
    /// End-to-end latency as observed by Alice.
    pub latency: SimTime,
    /// Bytes crossing Alice's (slow) access link, both directions.
    pub alice_bytes: u64,
    /// Total bytes transmitted by all hosts.
    pub fabric_bytes: u64,
    /// Who executed the inference ("alice"/"bob"/"carol").
    pub executor: &'static str,
    /// The inference output length (sanity).
    pub output_len: usize,
}

/// Well-known F1 inboxes.
pub const ALICE: ObjId = ObjId(0xA11CE);
/// Bob's inbox.
pub const BOB: ObjId = ObjId(0xB0B);
/// Carol's inbox.
pub const CAROL: ObjId = ObjId(0xCA801);

const MODEL_OBJ: ObjId = ObjId(0x40de1);
const ACT_OBJ: ObjId = ObjId(0xAC7);
const CODE_OBJ: ObjId = ObjId(0xC0DE);

/// Run one Figure 1 strategy.
pub fn run_fig1(cfg: &F1Config) -> F1Outcome {
    let registry = standard_registry();
    let model = SparseModel::generate(&cfg.model);
    let cols = cfg.model.cols;

    // Alice: weak edge device holding the activation.
    let mut alice =
        GasHostNode::new("alice", ALICE, GasHostConfig { speed: 0.1, ..Default::default() });
    alice.registry = registry.clone();
    let activation: Vec<f32> = (0..cols).map(|i| (i % 7) as f32 / 7.0).collect();
    activation_object(&mut alice.store, ACT_OBJ, &activation);

    // Bob: loaded cloud host holding the model and the code object.
    let mut bob =
        GasHostNode::new("bob", BOB, GasHostConfig { speed: 1.0, load: 8.0, ..Default::default() });
    bob.registry = registry.clone();
    let model_obj = model_to_object(MODEL_OBJ, &model).expect("model fits");
    let model_size = model_obj.image_len() as u64;
    bob.store.insert(model_obj).expect("fresh");
    bob.store.insert(make_code_object(CODE_OBJ, infer_code_desc())).expect("fresh");

    // Carol: idle cloud host.
    let mut carol = GasHostNode::new("carol", CAROL, GasHostConfig::default());
    carol.registry = registry.clone();

    // Code objects are tiny and cached everywhere (like program binaries);
    // pre-warm Alice's cache so placement can read the descriptor locally.
    alice.cache.insert(
        make_code_object(CODE_OBJ, infer_code_desc()),
        rdv_memproto::cache::CacheState::Shared,
    );

    // Alice's script per strategy.
    let invoke = |executor: Option<ObjId>| ScriptStep::Invoke {
        executor,
        code: CODE_OBJ,
        args: vec![MODEL_OBJ, ACT_OBJ],
        result_bytes: cols as u64 * 4 + 16,
    };
    alice.scripts = vec![match cfg.strategy {
        F1Strategy::ManualCopy => vec![
            ScriptStep::Fetch(MODEL_OBJ),
            ScriptStep::PushTo { obj: MODEL_OBJ, dest: CAROL },
            invoke(Some(CAROL)),
        ],
        F1Strategy::ManualPull | F1Strategy::RefRpcFixed => vec![invoke(Some(CAROL))],
        F1Strategy::Automatic => vec![invoke(None)],
    }];

    // Placement knowledge for the automatic strategy (the "system view").
    let mut engine = PlacementEngine::new();
    engine.add_host(HostProfile { inbox: ALICE, speed: 0.1, load: 1.0 });
    engine.add_host(HostProfile { inbox: BOB, speed: 1.0, load: 8.0 });
    engine.add_host(HostProfile { inbox: CAROL, speed: 1.0, load: 1.0 });
    let edge = LinkCost { latency_ns: 200_000, bandwidth_bps: 1_000_000_000 };
    let rack = LinkCost { latency_ns: 10_000, bandwidth_bps: 100_000_000_000 };
    engine.set_link(ALICE, BOB, edge);
    engine.set_link(ALICE, CAROL, edge);
    engine.set_link(BOB, CAROL, rack);
    engine.set_object(MODEL_OBJ, BOB, model_size);
    engine.set_object(ACT_OBJ, ALICE, cols as u64 * 4 + 64);
    engine.set_object(CODE_OBJ, BOB, 256);
    alice.placement = Some(engine);

    let (mut sim, ids) = build_star_fabric(
        cfg.seed,
        vec![
            (Box::new(alice), ALICE, host_link_edge()),
            (Box::new(bob), BOB, host_link_rack()),
            (Box::new(carol), CAROL, host_link_rack()),
        ],
        &[(MODEL_OBJ, 1), (ACT_OBJ, 0), (CODE_OBJ, 1)],
    );
    sim.schedule(SimTime::from_millis(1), ids[0], 0);
    sim.run_until_idle();

    let names = ["alice", "bob", "carol"];
    let mut executor = "none";
    let mut fabric_bytes = 0;
    for (i, &id) in ids.iter().enumerate() {
        let host = sim.node_as::<GasHostNode>(id).expect("host type");
        fabric_bytes += host.counters.get("tx_bytes");
        if host.counters.get("invokes_executed") > 0 {
            executor = names[i];
        }
    }
    let alice_node = sim.node_as::<GasHostNode>(ids[0]).expect("host type");
    let record = alice_node.records.first().expect("script completed");
    let output_len = {
        let mut r = rdv_wire::WireReader::new(&record.invoke_result);
        r.get_uvarint().unwrap_or(0) as usize
    };
    F1Outcome {
        latency: record.completed - record.started,
        alice_bytes: alice_node.counters.get("tx_bytes") + alice_node.counters.get("rx_bytes"),
        fabric_bytes,
        executor,
        output_len,
    }
}

/// The §5 "Dave" variant: the edge device is strong and already holds the
/// model. A fixed-executor call (any RPC flavor) still ships everything to
/// the cloud; automatic placement runs locally.
pub fn run_fig1_dave(automatic: bool, model: &SparseModelSpec, seed: u64) -> F1Outcome {
    let registry = standard_registry();
    let m = SparseModel::generate(model);
    let cols = model.cols;
    let dave_inbox = ObjId(0xDA7E);

    let mut dave =
        GasHostNode::new("dave", dave_inbox, GasHostConfig { speed: 2.0, ..Default::default() });
    dave.registry = registry.clone();
    let model_obj = model_to_object(MODEL_OBJ, &m).expect("model fits");
    let model_size = model_obj.image_len() as u64;
    dave.store.insert(model_obj).expect("fresh");
    dave.store.insert(make_code_object(CODE_OBJ, infer_code_desc())).expect("fresh");
    let activation: Vec<f32> = (0..cols).map(|i| (i % 5) as f32 / 5.0).collect();
    activation_object(&mut dave.store, ACT_OBJ, &activation);

    let mut carol = GasHostNode::new("carol", CAROL, GasHostConfig::default());
    carol.registry = registry.clone();

    dave.scripts = vec![vec![ScriptStep::Invoke {
        executor: if automatic { None } else { Some(CAROL) },
        code: CODE_OBJ,
        args: vec![MODEL_OBJ, ACT_OBJ],
        result_bytes: cols as u64 * 4 + 16,
    }]];
    let mut engine = PlacementEngine::new();
    engine.add_host(HostProfile { inbox: dave_inbox, speed: 2.0, load: 1.0 });
    engine.add_host(HostProfile { inbox: CAROL, speed: 1.0, load: 1.0 });
    engine.set_link(
        dave_inbox,
        CAROL,
        LinkCost { latency_ns: 200_000, bandwidth_bps: 1_000_000_000 },
    );
    engine.set_object(MODEL_OBJ, dave_inbox, model_size);
    engine.set_object(ACT_OBJ, dave_inbox, cols as u64 * 4 + 64);
    engine.set_object(CODE_OBJ, dave_inbox, 256);
    dave.placement = Some(engine);

    let (mut sim, ids) = build_star_fabric(
        seed,
        vec![
            (Box::new(dave), dave_inbox, host_link_edge()),
            (Box::new(carol), CAROL, host_link_rack()),
        ],
        &[(MODEL_OBJ, 0), (ACT_OBJ, 0), (CODE_OBJ, 0)],
    );
    sim.schedule(SimTime::from_millis(1), ids[0], 0);
    sim.run_until_idle();

    let mut executor = "none";
    let mut fabric_bytes = 0;
    for (i, &id) in ids.iter().enumerate() {
        let host = sim.node_as::<GasHostNode>(id).expect("host type");
        fabric_bytes += host.counters.get("tx_bytes");
        if host.counters.get("invokes_executed") > 0 {
            executor = ["dave", "carol"][i];
        }
    }
    let dave_node = sim.node_as::<GasHostNode>(ids[0]).expect("host type");
    let record = dave_node.records.first().expect("script completed");
    F1Outcome {
        latency: record.completed - record.started,
        alice_bytes: dave_node.counters.get("tx_bytes") + dave_node.counters.get("rx_bytes"),
        fabric_bytes,
        executor,
        output_len: 0,
    }
}

// ---------------------------------------------------------------------------
// S1 — request-time serialization/loading (the "70%" claim)
// ---------------------------------------------------------------------------

/// The three model-serving paths S1 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S1Path {
    /// RPC, model serialized into every request (call-by-value extreme).
    RpcValue,
    /// RPC, model stored serialized at the server, deserialized + loaded at
    /// request time (the TrIMS scenario).
    RpcName,
    /// Global address space: the model is an object, used in place.
    Gas,
}

/// S1 result for one request.
#[derive(Debug, Clone, Copy)]
pub struct S1Outcome {
    /// End-to-end request latency.
    pub latency: SimTime,
    /// Server-side nanoseconds spent deserializing.
    pub deser_ns: u64,
    /// Server-side nanoseconds spent loading (pointer fix-up, interning).
    pub load_ns: u64,
    /// Server-side nanoseconds of useful compute.
    pub compute_ns: u64,
    /// Client-side serialization nanoseconds.
    pub client_serialize_ns: u64,
    /// Fraction of server processing spent in deserialize + load.
    pub deser_load_fraction: f64,
}

const CLIENT_INBOX: ObjId = ObjId(0xC11);
const SERVER_INBOX: ObjId = ObjId(0x5E8);

/// Run one S1 request along `path`.
pub fn run_s1(path: S1Path, spec: &SparseModelSpec, seed: u64) -> S1Outcome {
    let model = SparseModel::generate(spec);
    let cols = spec.cols;
    let activation: Vec<f32> = (0..cols).map(|i| (i % 3) as f32 / 3.0).collect();
    match path {
        S1Path::RpcValue | S1Path::RpcName => {
            use rdv_rpc::client::{ClientNode, PlannedCall};
            use rdv_rpc::server::ServerNode;
            use rdv_rpc::service::{model_methods, ModelServingService};
            let mut meter = CostMeter::new();
            let model_bytes = serialize_model(&model, &mut meter);
            let client_serialize_ns =
                if path == S1Path::RpcValue { meter.phase_ns(Phase::Serialize) } else { 0 };

            let mut svc = ModelServingService::default();
            let (method, args, serialize_ns) = match path {
                S1Path::RpcValue => (
                    model_methods::INFER_WITH_MODEL,
                    ModelServingService::encode_args(&model_bytes, &activation),
                    client_serialize_ns,
                ),
                S1Path::RpcName => {
                    svc.store_model("user", model_bytes.clone());
                    (
                        model_methods::INFER_BY_NAME,
                        ModelServingService::encode_name_args("user", &activation),
                        0,
                    )
                }
                S1Path::Gas => unreachable!(),
            };
            let mut server = ServerNode::new("server", SERVER_INBOX);
            server.register(1, Box::new(svc));
            let mut client = ClientNode::new("client", CLIENT_INBOX);
            client.plan = vec![PlannedCall {
                server: SERVER_INBOX,
                service: 1,
                method,
                args,
                serialize_ns,
                lookup_via: None,
                timeout_ns: 0,
            }];
            let (mut sim, ids) = build_star_fabric(
                seed,
                vec![
                    (Box::new(client), CLIENT_INBOX, host_link_rack()),
                    (Box::new(server), SERVER_INBOX, host_link_rack()),
                ],
                &[],
            );
            sim.schedule(SimTime::from_millis(1), ids[0], 0);
            sim.run_until_idle();
            let client = sim.node_as::<ClientNode>(ids[0]).expect("client");
            let record = client.records.first().expect("call completed");
            assert!(record.result.is_ok(), "S1 RPC call failed: {:?}", record.result);
            let server = sim.node_as::<ServerNode>(ids[1]).expect("server");
            let svc = server.service_as::<ModelServingService>(1).expect("svc");
            let deser_ns = svc.meter.phase_ns(Phase::Deserialize);
            let load_ns = svc.meter.phase_ns(Phase::Load);
            let compute_ns = svc.meter.phase_ns(Phase::Compute);
            let busy = deser_ns + load_ns + compute_ns + client_serialize_ns;
            S1Outcome {
                latency: record.latency(),
                deser_ns,
                load_ns,
                compute_ns,
                client_serialize_ns,
                deser_load_fraction: if busy == 0 {
                    0.0
                } else {
                    (deser_ns + load_ns) as f64 / busy as f64
                },
            }
        }
        S1Path::Gas => {
            let registry = standard_registry();
            let mut client = GasHostNode::new("client", CLIENT_INBOX, GasHostConfig::default());
            client.registry = registry.clone();
            activation_object(&mut client.store, ACT_OBJ, &activation);
            client.scripts = vec![vec![ScriptStep::Invoke {
                executor: Some(SERVER_INBOX),
                code: CODE_OBJ,
                args: vec![MODEL_OBJ, ACT_OBJ],
                result_bytes: cols as u64 * 4 + 16,
            }]];
            let mut server = GasHostNode::new("server", SERVER_INBOX, GasHostConfig::default());
            server.registry = registry.clone();
            server.store.insert(model_to_object(MODEL_OBJ, &model).expect("fits")).expect("fresh");
            server.store.insert(make_code_object(CODE_OBJ, infer_code_desc())).expect("fresh");
            let (mut sim, ids) = build_star_fabric(
                seed,
                vec![
                    (Box::new(client), CLIENT_INBOX, host_link_rack()),
                    (Box::new(server), SERVER_INBOX, host_link_rack()),
                ],
                &[(MODEL_OBJ, 1), (CODE_OBJ, 1), (ACT_OBJ, 0)],
            );
            sim.schedule(SimTime::from_millis(1), ids[0], 0);
            sim.run_until_idle();
            let client = sim.node_as::<GasHostNode>(ids[0]).expect("client");
            let record = client.records.first().expect("script completed");
            // Compute time: flops at 0.25 ns each (matching infer_code_desc).
            let flops = {
                let model_obj = model_to_object(MODEL_OBJ, &model).expect("fits");
                infer_in_place(&model_obj, &activation).expect("valid").1
            };
            let compute_ns = 10_000 + flops / 4;
            S1Outcome {
                latency: record.completed - record.started,
                deser_ns: 0,
                load_ns: 0,
                compute_ns,
                client_serialize_ns: 0,
                deser_load_fraction: 0.0,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A1 — prefetching ablation
// ---------------------------------------------------------------------------

/// A1 configuration.
#[derive(Debug, Clone, Copy)]
pub struct A1Config {
    /// Chain length (node objects).
    pub nodes: usize,
    /// Unrelated decoy objects sharing the address space (what address
    /// adjacency confuses with reachability).
    pub decoys: usize,
    /// Extra payload bytes per object.
    pub payload: u64,
    /// Walker prefetch policy.
    pub policy: PrefetchPolicy,
    /// Layout of allocation order: `false` = chain nodes allocated
    /// consecutively (adjacency's best case); `true` = chain nodes
    /// scattered among the decoys (the common case after churn).
    pub scattered: bool,
    /// FOT lookahead: each node also references the next `skip` chain
    /// successors (reachability the object space exposes).
    pub skip: usize,
    /// The holder's uplink bandwidth — the bottleneck that makes wasted
    /// prefetch bytes cost something (bits per second).
    pub holder_bw_bps: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for A1Config {
    fn default() -> Self {
        A1Config {
            nodes: 64,
            decoys: 192,
            payload: 4096,
            policy: PrefetchPolicy::None,
            scattered: false,
            skip: 3,
            holder_bw_bps: 10_000_000_000,
            seed: 5,
        }
    }
}

/// A1 result.
#[derive(Debug, Clone)]
pub struct A1Outcome {
    /// Traversal completion time.
    pub latency: SimTime,
    /// Demand fetches the walker had to issue (blocking misses).
    pub demand_fetches: u64,
    /// Prefetch fetches issued.
    pub prefetch_fetches: u64,
    /// The values collected (position indices — must be `0..nodes`).
    pub values: Vec<u64>,
}

const WALKER_INBOX: ObjId = ObjId(0x3A1);
const HOLDER_INBOX: ObjId = ObjId(0x301D);

/// Build a chain of `n` node objects plus `decoys` unrelated objects in
/// `store`. Returns `(head (obj, offset), allocation order)` where the
/// allocation order either keeps the chain contiguous at the front
/// (`scattered = false`) or interleaves it randomly with the decoys.
pub fn build_remote_chain(
    store: &mut ObjectStore,
    rng: &mut StdRng,
    n: usize,
    decoys: usize,
    payload: u64,
    scattered: bool,
    skip: usize,
) -> ((ObjId, u64), Vec<ObjId>) {
    assert!(n > 0);
    let chain: Vec<ObjId> = (0..n)
        .map(|_| store.create_with_capacity(rng, ObjectKind::Data, payload + (1 << 12)))
        .collect();
    let decoy_ids: Vec<ObjId> = (0..decoys)
        .map(|_| store.create_with_capacity(rng, ObjectKind::Data, payload + (1 << 12)))
        .collect();
    // Allocate node blocks and payload in every object (decoys look the
    // same as nodes from the outside).
    for &id in chain.iter().chain(&decoy_ids) {
        let obj = store.get_mut(id).expect("present");
        let block = obj.alloc(16).expect("capacity");
        debug_assert_eq!(block, 8);
        if payload > 0 {
            obj.alloc(payload).expect("capacity");
        }
    }
    // Link chain[k] → chain[k+1], store position k as the value, and add
    // skip references to the next `skip` successors.
    for k in 0..n {
        let id = chain[k];
        let obj = store.get_mut(id).expect("present");
        obj.write_u64(8, k as u64).expect("in bounds");
        if k + 1 < n {
            let next = chain[k + 1];
            let ptr = obj.make_ptr(next, 8, FotFlags::RO).expect("fot");
            obj.write_ptr(16, ptr).expect("in bounds");
        } else {
            obj.write_ptr(16, rdv_objspace::InvPtr::NULL).expect("in bounds");
        }
        for s in 2..=skip {
            if k + s < n {
                let target = chain[k + s];
                store.get_mut(id).expect("present").ref_to(target, FotFlags::RO).expect("fot");
            }
        }
    }
    // The allocation-order view the adjacency prefetcher sees.
    let mut alloc_order: Vec<ObjId> = chain.iter().chain(&decoy_ids).copied().collect();
    if scattered {
        alloc_order.shuffle(rng);
    }
    ((chain[0], 8), alloc_order)
}

/// Run one A1 traversal.
pub fn run_a1(cfg: &A1Config) -> A1Outcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed); // rdv-lint: allow(rng-stream) -- pre-sim topology/plan generator stream, derived from the scenario seed before any node runs
    let mut holder = GasHostNode::new("holder", HOLDER_INBOX, GasHostConfig::default());
    let (head, alloc_order) = build_remote_chain(
        &mut holder.store,
        &mut rng,
        cfg.nodes,
        cfg.decoys,
        cfg.payload,
        cfg.scattered,
        cfg.skip,
    );

    let mut walker = GasHostNode::new(
        "walker",
        WALKER_INBOX,
        GasHostConfig { prefetch: cfg.policy, ..Default::default() },
    );
    walker.adjacency = alloc_order.clone();
    walker.scripts =
        vec![vec![ScriptStep::Traverse { obj: head.0, offset: head.1, max_steps: cfg.nodes + 8 }]];

    let obj_routes: Vec<(ObjId, usize)> = alloc_order.iter().map(|&o| (o, 1)).collect();
    let holder_link =
        LinkSpec { bandwidth_bps: cfg.holder_bw_bps, queue_bytes: 1 << 32, ..LinkSpec::rack() };
    let (mut sim, ids) = build_star_fabric(
        cfg.seed,
        vec![
            (Box::new(walker), WALKER_INBOX, host_link_rack()),
            (Box::new(holder), HOLDER_INBOX, holder_link),
        ],
        &obj_routes,
    );
    sim.schedule(SimTime::from_millis(1), ids[0], 0);
    sim.run_until_idle();

    let walker = sim.node_as::<GasHostNode>(ids[0]).expect("walker");
    let record = walker.records.first().expect("traversal completed");
    A1Outcome {
        latency: record.completed - record.started,
        demand_fetches: walker.counters.get("fetch.demand"),
        prefetch_fetches: walker.counters.get("fetch.prefetch"),
        values: record.traversal_values.clone(),
    }
}

// ---------------------------------------------------------------------------
// Failure injection (§5: "partial failure (inevitable in any distributed
// system)")
// ---------------------------------------------------------------------------

/// Failure-injection configuration: an invoke-by-reference round trip over
/// a lossy fabric.
#[derive(Debug, Clone, Copy)]
pub struct LossyConfig {
    /// Packet loss on every host link, per mille.
    pub loss_permille: u16,
    /// Watchdog period for retries.
    pub retry_timeout: rdv_netsim::SimTime,
    /// Number of independent invocations to run.
    pub invokes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LossyConfig {
    fn default() -> Self {
        LossyConfig {
            loss_permille: 0,
            retry_timeout: SimTime::from_micros(300),
            invokes: 10,
            seed: 23,
        }
    }
}

/// Failure-injection outcome.
#[derive(Debug, Clone)]
pub struct LossyOutcome {
    /// Invocations that completed successfully.
    pub completed: usize,
    /// Invocations abandoned after retry exhaustion.
    pub failed: usize,
    /// Mean completion latency of successful invocations.
    pub mean_latency: SimTime,
    /// Packets lost by the fabric.
    pub packets_lost: u64,
    /// Retries performed (fetch + push + invoke).
    pub retries: u64,
}

/// Run `invokes` invoke-by-reference calls (client → server, with the
/// activation argument living at the client) over links losing
/// `loss_permille`‰ of packets. The runtime's watchdogs must recover.
pub fn run_lossy_invoke(cfg: &LossyConfig) -> LossyOutcome {
    let registry = standard_registry();
    let spec = SparseModelSpec {
        layers: 2,
        rows: 64,
        cols: 64,
        nnz_per_row: 4,
        vocab: 16,
        seed: cfg.seed,
    };
    let model = SparseModel::generate(&spec);
    let activation: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();

    let host_cfg = GasHostConfig { retry_timeout: cfg.retry_timeout, ..Default::default() };
    let mut client = GasHostNode::new("client", ObjId(0x1C11), host_cfg);
    client.registry = registry.clone();
    activation_object(&mut client.store, ACT_OBJ, &activation);
    for _ in 0..cfg.invokes {
        client.scripts.push(vec![ScriptStep::Invoke {
            executor: Some(ObjId(0x15E8)),
            code: CODE_OBJ,
            args: vec![MODEL_OBJ, ACT_OBJ],
            result_bytes: 64 * 4 + 16,
        }]);
    }
    let mut server = GasHostNode::new("server", ObjId(0x15E8), host_cfg);
    server.registry = registry;
    server.store.insert(model_to_object(MODEL_OBJ, &model).expect("fits")).expect("fresh");
    server.store.insert(make_code_object(CODE_OBJ, infer_code_desc())).expect("fresh");

    let link = host_link_rack().with_loss(cfg.loss_permille);
    let (mut sim, ids) = build_star_fabric(
        cfg.seed,
        vec![(Box::new(client), ObjId(0x1C11), link), (Box::new(server), ObjId(0x15E8), link)],
        &[(MODEL_OBJ, 1), (CODE_OBJ, 1), (ACT_OBJ, 0)],
    );
    for i in 0..cfg.invokes as u64 {
        sim.schedule(SimTime::from_millis(1 + 2 * i), ids[0], i);
    }
    sim.run_until_idle();

    let client = sim.node_as::<GasHostNode>(ids[0]).expect("client");
    let server = sim.node_as::<GasHostNode>(ids[1]).expect("server");
    let ok: Vec<_> = client.records.iter().filter(|r| !r.failed).collect();
    let failed = client.records.iter().filter(|r| r.failed).count();
    let mean = if ok.is_empty() {
        SimTime::ZERO
    } else {
        SimTime::from_nanos(
            ok.iter().map(|r| (r.completed - r.started).as_nanos()).sum::<u64>() / ok.len() as u64,
        )
    };
    let retries = ["retries.fetch", "retries.push", "retries.invoke"]
        .iter()
        .map(|k| client.counters.get(k) + server.counters.get(k))
        .sum();
    LossyOutcome {
        completed: ok.len(),
        failed,
        mean_latency: mean,
        packets_lost: sim.counters.get("sim.packets_lost"),
        retries,
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> SparseModelSpec {
        SparseModelSpec { layers: 2, rows: 64, cols: 64, nnz_per_row: 4, vocab: 16, seed: 9 }
    }

    /// Big enough that moving the model dominates placement decisions.
    fn heavy_model() -> SparseModelSpec {
        SparseModelSpec { layers: 2, rows: 512, cols: 512, nnz_per_row: 16, vocab: 64, seed: 9 }
    }

    #[test]
    fn fig1_all_strategies_complete_with_same_output() {
        let mut outs = Vec::new();
        for strategy in F1Strategy::ALL {
            let out = run_fig1(&F1Config { strategy, model: heavy_model(), seed: 1 });
            assert_eq!(out.output_len, 512, "{strategy:?}");
            outs.push((strategy, out));
        }
        // Manual copy is strictly worse than manual pull on latency and on
        // Alice's link bytes.
        let copy = &outs[0].1;
        let pull = &outs[1].1;
        assert!(copy.latency > pull.latency, "{:?} vs {:?}", copy.latency, pull.latency);
        assert!(copy.alice_bytes > 10 * pull.alice_bytes);
        // Automatic matches manual pull's efficiency (same rendezvous) and
        // runs on Carol.
        let auto = &outs[3].1;
        assert_eq!(auto.executor, "carol");
        let ratio = auto.latency.as_nanos() as f64 / pull.latency.as_nanos() as f64;
        assert!(ratio < 1.25, "automatic should track manual-pull, ratio {ratio}");
    }

    #[test]
    fn fig1_dave_runs_locally_only_under_automatic_placement() {
        let fixed = run_fig1_dave(false, &heavy_model(), 2);
        let auto = run_fig1_dave(true, &heavy_model(), 2);
        assert_eq!(fixed.executor, "carol");
        assert_eq!(auto.executor, "dave");
        assert!(auto.latency < fixed.latency);
        assert!(auto.fabric_bytes < fixed.fabric_bytes / 10);
    }

    #[test]
    fn s1_rpc_paths_pay_deser_load_gas_does_not() {
        let spec = SparseModelSpec {
            layers: 4,
            rows: 256,
            cols: 256,
            nnz_per_row: 8,
            vocab: 256,
            seed: 3,
        };
        let by_name = run_s1(S1Path::RpcName, &spec, 1);
        let by_value = run_s1(S1Path::RpcValue, &spec, 1);
        let gas = run_s1(S1Path::Gas, &spec, 1);
        assert!(by_name.deser_load_fraction > 0.5, "{}", by_name.deser_load_fraction);
        assert!(by_value.deser_load_fraction > 0.4, "{}", by_value.deser_load_fraction);
        assert_eq!(gas.deser_load_fraction, 0.0);
        assert!(gas.latency < by_name.latency, "{} vs {}", gas.latency, by_name.latency);
        assert!(by_value.latency > by_name.latency, "value path also ships the model");
    }

    #[test]
    fn a1_traversal_collects_chain_in_order() {
        let out = run_a1(&A1Config { nodes: 16, ..Default::default() });
        assert_eq!(out.values, (0..16).collect::<Vec<u64>>());
        assert_eq!(out.demand_fetches, 16);
        assert_eq!(out.prefetch_fetches, 0);
    }

    #[test]
    fn a1_reachability_prefetch_cuts_latency_and_misses() {
        let base = run_a1(&A1Config { nodes: 64, ..Default::default() });
        let reach = run_a1(&A1Config {
            nodes: 64,
            policy: PrefetchPolicy::Reachability,
            ..Default::default()
        });
        assert!(reach.prefetch_fetches > 0);
        assert!(
            reach.demand_fetches < base.demand_fetches / 2,
            "prefetch should absorb most misses: {} vs {}",
            reach.demand_fetches,
            base.demand_fetches
        );
        assert!(
            reach.latency.as_nanos() < base.latency.as_nanos() * 3 / 4,
            "reachability should be ≥25% faster: {} vs {}",
            reach.latency,
            base.latency
        );
        assert_eq!(reach.values, base.values);
    }

    #[test]
    fn a1_adjacency_matches_reachability_only_on_correlated_layout() {
        let adj_good = run_a1(&A1Config {
            policy: PrefetchPolicy::Adjacency { window: 3 },
            scattered: false,
            ..Default::default()
        });
        let adj_bad = run_a1(&A1Config {
            policy: PrefetchPolicy::Adjacency { window: 3 },
            scattered: true,
            ..Default::default()
        });
        let reach_bad = run_a1(&A1Config {
            policy: PrefetchPolicy::Reachability,
            scattered: true,
            ..Default::default()
        });
        // On a correlated layout adjacency works.
        assert!(adj_good.demand_fetches < 32, "{}", adj_good.demand_fetches);
        // On a scattered layout adjacency wastes fetches on decoys and
        // misses far more often…
        assert!(
            adj_bad.demand_fetches > adj_good.demand_fetches * 2,
            "{} vs {}",
            adj_bad.demand_fetches,
            adj_good.demand_fetches
        );
        assert!(
            adj_bad.prefetch_fetches > reach_bad.prefetch_fetches,
            "adjacency should fetch decoys: {} vs {}",
            adj_bad.prefetch_fetches,
            reach_bad.prefetch_fetches
        );
        // …while reachability is layout-independent.
        assert!(reach_bad.demand_fetches < 32, "{}", reach_bad.demand_fetches);
        assert!(reach_bad.latency < adj_bad.latency);
    }

    #[test]
    fn lossless_fabric_needs_no_retries() {
        let out = run_lossy_invoke(&LossyConfig::default());
        assert_eq!(out.completed, 10);
        assert_eq!(out.failed, 0);
        assert_eq!(out.packets_lost, 0);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn retries_recover_from_heavy_loss() {
        for seed in [1u64, 2, 3, 4, 5] {
            let out = run_lossy_invoke(&LossyConfig {
                loss_permille: 100, // 10%
                seed,
                ..Default::default()
            });
            assert_eq!(out.completed, 10, "seed {seed}: {out:?}");
            assert_eq!(out.failed, 0, "seed {seed}");
            assert!(out.packets_lost > 0, "seed {seed}");
        }
    }

    #[test]
    fn loss_costs_latency_but_not_correctness() {
        let clean = run_lossy_invoke(&LossyConfig::default());
        let lossy = run_lossy_invoke(&LossyConfig { loss_permille: 200, ..Default::default() });
        assert_eq!(lossy.completed, 10, "{lossy:?}");
        assert!(lossy.retries > 0);
        assert!(
            lossy.mean_latency > clean.mean_latency,
            "retransmissions must cost time: {} vs {}",
            lossy.mean_latency,
            clean.mean_latency
        );
    }

    #[test]
    fn determinism() {
        let cfg = F1Config { strategy: F1Strategy::Automatic, model: small_model(), seed: 42 };
        let a = run_fig1(&cfg);
        let b = run_fig1(&cfg);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.fabric_bytes, b.fabric_bytes);
    }
}
