//! Per-layer replays: each layer's cost per call, measured from outside by
//! replaying the payloads the taps captured and the tables, caches and
//! journals the run left behind through that layer's public functions, in
//! timed loops.
//!
//! A replay returns 0 when the workload gave it nothing to replay (the
//! layer did not run there).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rdv_discovery::DestCache;
use rdv_gossip::{Digest, GossipConfig, GossipSync, Journal};
use rdv_memproto::frag::{fragment, Fragment, Reassembler, DEFAULT_MTU};
use rdv_memproto::{CacheState, Directory, Msg, ObjectCache, ReliableEndpoint, TransportConfig};
use rdv_netsim::queue::{CalendarQueue, EventKey};
use rdv_netsim::{Counters, SimTime};
use rdv_objspace::{ObjId, Object};
use rdv_wire::FrameCodec;

use crate::tap::{Captured, Kind};
use crate::workloads::ReplayState;

/// How long one replay loop measures.
const BUDGET: Duration = Duration::from_millis(30);

/// The engine's calendar-queue geometry (`netsim/src/engine.rs`).
const QUEUE_BUCKET_WIDTH_NS: u64 = 1 << 12;
const QUEUE_BUCKETS: usize = 512;

/// Call `f` in batches until the budget is spent; nanoseconds per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let start = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= BUDGET {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// Nanoseconds per item of one pass of `f` over `items`, repeated until
/// the budget is spent.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let per_pass = ns_per_call(|| items.iter().for_each(&mut f));
    per_pass / items.len() as f64
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// Every per-call cost the replays measure, in nanoseconds (per call, per
/// message, per KiB or per fact as the name says).
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    /// One `CalendarQueue` pop + push at the run's queue population.
    pub queue_ns_per_event: f64,
    /// `Pipeline::apply` per captured switch packet.
    pub p4rt_apply_ns: f64,
    /// `Msg::encode` per captured host message.
    pub wire_encode_ns: f64,
    /// `Msg::decode` per captured host message.
    pub wire_decode_ns: f64,
    /// Mean captured host message size, bytes.
    pub wire_bytes_per_msg: f64,
    /// `FrameCodec::encode` + `decode` per KiB of captured payload.
    pub wire_frame_ns_per_kib: f64,
    /// `ReliableEndpoint::send` → `on_receive` → ack, per message.
    pub transport_ns_per_msg: f64,
    /// `fragment` + `Fragment::encode`/`decode` + `Reassembler::accept`, per KiB.
    pub frag_ns_per_kib: f64,
    /// `ObjectCache::get` at the run's cache population.
    pub cache_get_ns: f64,
    /// `ObjectCache::insert` with the cache full (one eviction each).
    pub cache_insert_ns: f64,
    /// `Directory::write_at_home` plus re-registering the invalidated sharers.
    pub dir_write_ns: f64,
    /// `DestCache::lookup_at` at the run's cache population.
    pub destcache_lookup_ns: f64,
    /// `GossipSync::on_round` on the run's journal.
    pub gossip_round_ns: f64,
    /// `Journal::digest` on the run's journal.
    pub gossip_digest_ns: f64,
    /// `Journal::apply` of the full journal into an empty one, per fact.
    pub gossip_apply_ns_per_fact: f64,
    /// `GossipSync::on_msg` per captured gossip message.
    pub gossip_msg_ns: f64,
    /// `PlacementEngine::choose` per sampled invoke.
    pub placement_ns: f64,
    /// `LocalSpace::invoke` per sampled invoke (no network).
    pub local_invoke_ns: f64,
    /// `Object::to_image` + `from_image`, per KiB.
    pub image_ns_per_kib: f64,
    /// `SloSeries::compute` per completion.
    pub slo_ns_per_completion: f64,
}

fn queue_cost(state: &ReplayState) -> f64 {
    if state.queue_delays_ns.is_empty() {
        return 0.0;
    }
    let mut q: CalendarQueue<u64> = CalendarQueue::new(QUEUE_BUCKET_WIDTH_NS, QUEUE_BUCKETS);
    for (i, &at) in state.queue_prefill_ns.iter().enumerate() {
        q.push(EventKey { at, src: 0, seq: i as u64 }, 0);
    }
    let delays = &state.queue_delays_ns;
    for i in 0..state.queue_resident.max(1) {
        let at = delays[i % delays.len()];
        q.push(EventKey { at, src: i as u32 + 1, seq: 0 }, 0);
    }
    // Hold model: pop the earliest event, push its successor one delay on,
    // so the population stays what the run keeps resident.
    let steps = (q.len() as u64 * 2).clamp(200_000, 2_000_000);
    let start = Instant::now();
    for i in 0..steps {
        let (key, item) = q.pop().expect("population is constant");
        let delay = delays[(i % delays.len() as u64) as usize];
        q.push(EventKey { at: key.at + delay, src: key.src.max(1), seq: i + 1 }, black_box(item));
    }
    start.elapsed().as_nanos() as f64 / steps as f64
}

fn host_messages(payloads: &[Captured]) -> Vec<&[u8]> {
    payloads
        .iter()
        .filter(|c| matches!(c.kind, Kind::Host | Kind::GasHost))
        .map(|c| c.payload.as_slice())
        .collect()
}

fn transport_cost(messages: &[&[u8]]) -> f64 {
    if messages.is_empty() {
        return 0.0;
    }
    let (a_id, b_id) = (ObjId(0xA), ObjId(0xB));
    let mut a = ReliableEndpoint::new(a_id, TransportConfig::default());
    let mut b = ReliableEndpoint::new(b_id, TransportConfig::default());
    ns_per_item(messages, |m| {
        let pkt = a.send(SimTime::ZERO, b_id, m.to_vec());
        let (delivered, ack) = b.on_receive(&pkt);
        black_box(delivered);
        if let Some(ack) = ack {
            a.on_receive(&ack);
        }
    })
}

fn frag_cost(images: &[Vec<u8>]) -> f64 {
    let sample = &images[..images.len().min(16)];
    if sample.is_empty() {
        return 0.0;
    }
    let mut reasm = Reassembler::new();
    let mut req = 0u64;
    let per_image = ns_per_item(sample, |image| {
        req += 1;
        let mut whole = None;
        for f in fragment(req, image, DEFAULT_MTU) {
            let decoded = Fragment::decode(&f.encode()).expect("round trip");
            whole = reasm.accept(decoded).expect("consistent fragments");
        }
        black_box(whole.expect("last fragment completes the image"));
    });
    per_image / kib(sample[0].len())
}

fn image_cost(images: &[Vec<u8>]) -> f64 {
    let sample = &images[..images.len().min(16)];
    if sample.is_empty() {
        return 0.0;
    }
    let per_image = ns_per_item(sample, |image| {
        let obj = Object::from_image(image).expect("valid image");
        black_box(obj.to_image());
    });
    per_image / kib(sample[0].len())
}

fn cache_costs(state: &ReplayState) -> (f64, f64) {
    if state.images.is_empty() || state.cache_bytes == 0 {
        return (0.0, 0.0);
    }
    let objects: Vec<Object> =
        state.images.iter().map(|i| Object::from_image(i).expect("valid image")).collect();
    let ids: Vec<ObjId> = objects.iter().map(Object::id).collect();
    let mut cache = ObjectCache::new(state.cache_bytes);
    for obj in &objects {
        cache.insert(obj.clone(), CacheState::Shared);
    }
    let get = ns_per_item(&ids, |&id| {
        black_box(cache.get(id).is_some());
    });
    // Each insert of an object that was evicted pushes another one out:
    // the steady state of a cache smaller than its working set. The clone
    // is timed apart and subtracted.
    let clone = ns_per_item(&objects, |o| {
        black_box(o.clone());
    });
    let insert = ns_per_item(&objects, |o| cache.insert(o.clone(), CacheState::Shared));
    (get, (insert - clone).max(0.0))
}

fn dir_cost(sharers: usize) -> f64 {
    if sharers == 0 {
        return 0.0;
    }
    let objs: Vec<ObjId> = (0..64).map(|k| ObjId(0xD1_0000 + k)).collect();
    let mut dir = Directory::new();
    ns_per_item(&objs, |&obj| {
        for who in 0..sharers {
            black_box(dir.request_shared(obj, ObjId(0x1_0000 + who as u128)));
        }
        black_box(dir.write_at_home(obj));
    })
}

fn destcache_cost(entries: &[(ObjId, ObjId)]) -> f64 {
    let mut cache = DestCache::new();
    for &(obj, holder) in entries {
        cache.insert(obj, holder);
    }
    ns_per_item(entries, |&(obj, _)| {
        black_box(cache.lookup_at(obj, SimTime::from_micros(1)));
    })
}

fn gossip_costs(journal: Option<&Journal>, payloads: &[Captured]) -> (f64, f64, f64, f64) {
    let Some(journal) = journal else { return (0.0, 0.0, 0.0, 0.0) };
    let me = ObjId(0x6055);
    let mut sync = GossipSync::new(me, 0x6055, GossipConfig::default());
    sync.journal = journal.clone();
    sync.add_peer(ObjId(0x6056), None);
    sync.add_peer(ObjId(0x6057), None);
    let mut counters = Counters::new();
    let mut now = 0u64;
    let round = ns_per_call(|| {
        now += 100_000;
        black_box(sync.on_round(now, &mut counters));
    });
    let digest = ns_per_call(|| {
        black_box(journal.digest());
    });
    let full = journal.delta_since(&Digest::default(), false);
    let facts = full.entries.len().max(1);
    let apply = ns_per_call(|| {
        let mut fresh = Journal::new(0x6058);
        black_box(fresh.apply(&full));
    }) / facts as f64;
    // Captured digests and deltas, re-addressed to the replay host so
    // `on_msg` answers them instead of relaying.
    let msgs: Vec<Msg> = payloads
        .iter()
        .filter_map(|c| Msg::decode(&c.payload).ok())
        .filter_map(|m| match m.body {
            rdv_memproto::MsgBody::GossipDigest { round, data, .. } => Some(Msg::new(
                me,
                m.header.src,
                rdv_memproto::MsgBody::GossipDigest { round, target: me, data },
            )),
            rdv_memproto::MsgBody::GossipDelta { round, data, .. } => Some(Msg::new(
                me,
                m.header.src,
                rdv_memproto::MsgBody::GossipDelta { round, target: me, data },
            )),
            _ => None,
        })
        .take(512)
        .collect();
    let on_msg = ns_per_item(&msgs, |m| {
        black_box(sync.on_msg(m, &mut counters));
    });
    (round, digest, apply, on_msg)
}

fn core_costs(state: &mut ReplayState) -> (f64, f64) {
    let Some(p) = state.placement.as_mut() else { return (0.0, 0.0) };
    let placement = ns_per_item(&p.calls, |(invoker, args)| {
        black_box(p.engine.choose(*invoker, &p.desc, p.code, args, 8).expect("placeable"));
    });
    let space = &mut p.space;
    let code = p.code;
    let local = ns_per_item(&p.calls, |(invoker, args)| {
        black_box(space.invoke(*invoker, None, code, args, 8).expect("invocable"));
    });
    (placement, local)
}

fn slo_cost(state: &ReplayState) -> f64 {
    let Some(load) = &state.load else { return 0.0 };
    if load.completions.is_empty() {
        return 0.0;
    }
    let until = load.completions.iter().map(|&(at, _)| at).max().unwrap_or(1);
    let per_pass = ns_per_call(|| {
        black_box(rdv_load::SloSeries::compute(&load.offered_ns, &load.completions, 50_000, until));
    });
    per_pass / load.completions.len() as f64
}

/// Run every replay the state and the captured payloads allow.
/// `sharers_per_write` sizes the directory replay.
pub fn replay(
    state: &mut ReplayState,
    payloads: &[Captured],
    sharers_per_write: f64,
) -> LayerCosts {
    let mut costs = LayerCosts { queue_ns_per_event: queue_cost(state), ..LayerCosts::default() };

    if let Some(pipeline) = &state.pipeline {
        let switch_packets: Vec<&[u8]> = payloads
            .iter()
            .filter(|c| c.kind == Kind::Switch)
            .map(|c| c.payload.as_slice())
            .collect();
        costs.p4rt_apply_ns = ns_per_item(&switch_packets, |p| {
            black_box(pipeline.apply(p).ok());
        });
    }

    let messages = host_messages(payloads);
    let decoded: Vec<Msg> = messages.iter().filter_map(|m| Msg::decode(m).ok()).collect();
    costs.wire_decode_ns = ns_per_item(&messages, |m| {
        black_box(Msg::decode(m).ok());
    });
    costs.wire_encode_ns = ns_per_item(&decoded, |m| {
        black_box(m.encode());
    });
    if !messages.is_empty() {
        let bytes: usize = messages.iter().map(|m| m.len()).sum();
        costs.wire_bytes_per_msg = bytes as f64 / messages.len() as f64;
        let per_msg = ns_per_item(&messages, |m| {
            let framed = FrameCodec::encode(m);
            black_box(FrameCodec::decode(&framed).expect("round trip"));
        });
        costs.wire_frame_ns_per_kib = per_msg / (costs.wire_bytes_per_msg / 1024.0);
    }
    costs.transport_ns_per_msg = transport_cost(&messages);

    costs.frag_ns_per_kib = frag_cost(&state.images);
    costs.image_ns_per_kib = image_cost(&state.images);
    (costs.cache_get_ns, costs.cache_insert_ns) = cache_costs(state);
    costs.dir_write_ns = dir_cost(sharers_per_write.round() as usize);
    costs.destcache_lookup_ns = destcache_cost(&state.dest_entries);
    (
        costs.gossip_round_ns,
        costs.gossip_digest_ns,
        costs.gossip_apply_ns_per_fact,
        costs.gossip_msg_ns,
    ) = gossip_costs(state.journal.as_ref(), payloads);
    (costs.placement_ns, costs.local_invoke_ns) = core_costs(state);
    costs.slo_ns_per_completion = slo_cost(state);
    costs
}
