//! Per-operation budgets: counts that a cost regression moves, asserted
//! exactly enough that it fails `cargo test` instead of waiting for a paired
//! benchmark run to notice.
//!
//! The counts are deterministic — same seed, same events, same allocations —
//! so every budget is an upper bound at (or just above) what the code does
//! today. **A change that lowers a count lowers its budget in the same
//! diff**: the budgets are a ratchet, and one left slack is a regression
//! the next change can hide in.
//!
//! This binary installs its own counting global allocator. Counts are per
//! thread, and the simulations here run one shard on the test's own thread,
//! so a before/after snapshot around a run counts that run alone, whatever
//! the other tests in the binary are doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdv_det::DetSet;
use rdv_load::{Blip, LoadFabricSpec, LoadRun, OpenLoopSpec, ReplogSpec};
use rendezvous::core::runtime::{GasHostConfig, GasHostNode, ScriptStep};
use rendezvous::core::scenarios::{build_star_fabric, host_link_rack};
use rendezvous::discovery::scenario::run_discovery;
use rendezvous::discovery::{DiscoveryMode, ScenarioConfig, ScenarioKind, StalenessMode};
use rendezvous::memproto::frag::DEFAULT_MTU;
use rendezvous::netsim::{
    LinkSpec, Node, NodeCtx, Observe, Packet, PortId, Sim, SimConfig, SimTime,
};
use rendezvous::objspace::{ObjId, Object, ObjectKind};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last allocations, made while its locals are
    // torn down, go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// The system allocator, counting calls and bytes requested (a `realloc`
/// counts its new size).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised, destructor-free thread locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` on this thread so far.
fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Timers one serve of a fragmented image sets: the fragments wait out the
/// serve delay as one deferred run behind one timer.
const SERVE_TIMERS: u64 = 1;

/// Bytes the fabric allocates per packet whatever it carries: the packet's
/// shared `Bytes` node. The switch parses, matches and defers a packet
/// without allocating.
const FABRIC_BYTES_PER_PACKET: u64 = 88;

/// What one fetch may allocate beyond its two image copies (the holder's
/// packet buffers and the requester's heap) and the fabric's per-packet
/// cost: the request, the deferred run, the reassembly table, script and
/// cache bookkeeping. It reads 1 423 B today; the other 177 B are margin
/// for one small allocation.
const FETCH_SLACK_BYTES: u64 = 1600;

/// Allocations one fetch may make, all told. It makes 35 today: one more
/// is margin.
const FETCH_ALLOCS: u64 = 36;

/// Allocations one more Figure 3 access may cost: the object it creates, its
/// warm-up and measured accesses, and their trips through four learning,
/// flood-deduplicating switches, 30 % of them NACKed and re-broadcast. It
/// reads 24.5 today.
const DISCOVERY_ALLOCS_PER_ACCESS: f64 = 25.0;

/// Allocations one more completed batch of the gossip shape may cost: the
/// batch, its trip through the switch and the holder, and the share of
/// anti-entropy rounds the 29 bystanders run meanwhile. It reads 59.3
/// today; 1.7 is margin.
const GOSSIP_ALLOCS_PER_OP: f64 = 61.0;

/// Engine events per extra completed batch of the gossip shape. It reads
/// 30.2 today.
const GOSSIP_EVENTS_PER_OP: f64 = 31.0;

/// Timers fired per extra completed batch of the gossip shape. It reads
/// 14.1 today.
const GOSSIP_TIMERS_PER_OP: f64 = 14.5;

/// Bytes `Sim::schedule_batch` may request per timer of a sorted batch:
/// one 40 B timer-queue entry, plus the lane's chunk list and heads. It
/// reads 42.4 today (84.4 when a timer took an 80 B delivery entry).
const BYTES_PER_SCHEDULED_TIMER: f64 = 44.0;

/// What building and running [`unobserved_fixture`] allocates, in calls
/// and bytes, debug and release alike: 34 allocations, 3 532 B (3 648 B
/// while `DetMap`'s index was a std `HashMap`). An unobserved run pays
/// nothing for the observer seam — no boxed or cloned spec, no ring — and
/// every figure and every rdvperf run takes that path, so any byte more
/// here is a cost every run pays.
const UNOBSERVED_FIXTURE_ALLOCS: u64 = 34;
const UNOBSERVED_FIXTURE_BYTES: u64 = 3532;

/// Members in each switch's flood-dedup set at the end of rdvperf's
/// `discovery_stale` run.
const FLOOD_SET_MEMBERS: u64 = 39_505;

/// Bytes requested, every growth step told, while building a
/// [`FLOOD_SET_MEMBERS`]-member `DetSet<(u128, u64)>` from empty: the slot
/// vectors and a bucket index that stores no key. It reads 5 373 752 B in
/// 43 allocations (10 747 812 B in 44 when the index was a std `HashMap`
/// holding a second copy of every key).
const FLOOD_SET_BYTES: u64 = 5_373_752;

#[test]
fn one_fetch_costs_two_image_copies_and_one_serve_timer() {
    const CLIENT: ObjId = ObjId(0x1111);
    const HOME: ObjId = ObjId(0x3333);
    const WARM: ObjId = ObjId(0xBEE0);
    const OBJ: ObjId = ObjId(0xBEEF);
    let object = |id: ObjId| {
        let mut obj = Object::with_capacity(id, ObjectKind::Data, 1 << 20);
        let off = obj.alloc(48 * 1024).expect("capacity");
        let fill: Vec<u8> =
            (0..48 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        obj.write(off, &fill).expect("in bounds");
        obj
    };
    let image_bytes = object(OBJ).to_image().len() as u64;

    let mut client = GasHostNode::new("client", CLIENT, GasHostConfig::default());
    client.scripts = vec![vec![ScriptStep::Fetch(WARM)], vec![ScriptStep::Fetch(OBJ)]];
    let mut home = GasHostNode::new("home", HOME, GasHostConfig::default());
    home.store.insert(object(WARM)).expect("fresh id");
    home.store.insert(object(OBJ)).expect("fresh id");
    let (mut sim, ids) = build_star_fabric(
        1,
        vec![
            (Box::new(client), CLIENT, host_link_rack()),
            (Box::new(home), HOME, host_link_rack()),
        ],
        &[(WARM, 1), (OBJ, 1)],
    );
    // A first fetch grows the engine's event queue to the size a fetch
    // needs; its pending watchdog keeps that storage for the second, which
    // then pays only for itself.
    sim.schedule(SimTime::from_millis(1), ids[0], 0);
    sim.schedule(SimTime::from_millis(3), ids[0], 1);
    sim.run_until(SimTime::from_millis(2));

    let timers = sim.counters.get("sim.timers");
    let (allocs, bytes) = snapshot();
    sim.run_until(SimTime::from_millis(4));
    let (allocs, bytes) = (snapshot().0 - allocs, snapshot().1 - bytes);
    let timers = sim.counters.get("sim.timers") - timers;

    let client = sim.node_as::<GasHostNode>(ids[0]).expect("client");
    assert_eq!(client.records.len(), 2, "both fetches completed");
    assert!(client.records.iter().all(|r| !r.failed));
    // The request and every fragment cross the switch, which holds each
    // for its pipeline latency behind a timer of its own.
    let packets = 1 + image_bytes.div_ceil(DEFAULT_MTU as u64);
    // The script's start, the switch's, and the serve's. (The client's
    // watchdog fires long after.)
    assert_eq!(timers, 1 + packets + SERVE_TIMERS, "timers fired during one fetch");
    let budget = 2 * image_bytes + packets * FABRIC_BYTES_PER_PACKET + FETCH_SLACK_BYTES;
    assert!(
        bytes <= budget,
        "one fetch of a {image_bytes} B image allocated {bytes} B in {allocs} allocations \
         (budget {budget} B: two copies, {packets} packets' fabric cost, {FETCH_SLACK_BYTES} B)"
    );
    assert!(allocs <= FETCH_ALLOCS, "one fetch made {allocs} allocations (budget {FETCH_ALLOCS})");
}

/// Allocations of one Figure 3 run with `accesses` accesses, 30 % of the
/// objects moved and stale hits NACKed and re-broadcast (`discovery_stale`'s
/// shape on the paper's 3-host / 4-switch testbed).
fn figure3_allocs(accesses: usize) -> u64 {
    let cfg = ScenarioConfig {
        kind: ScenarioKind::Fig3Staleness { pct_moved: 30 },
        mode: DiscoveryMode::E2E,
        staleness: StalenessMode::NackRediscover,
        accesses,
        seed: 1,
        ..ScenarioConfig::default()
    };
    let before = snapshot().0;
    let out = run_discovery(&cfg);
    let allocs = snapshot().0 - before;
    assert_eq!(out.completed, accesses, "every access completed");
    allocs
}

#[test]
fn a_stale_access_costs_a_bounded_number_of_allocations() {
    // Two runs that differ only in their access count: set-up cancels, and
    // what is left is the marginal cost of one access.
    let (small, large) = (200, 400);
    let per_access =
        (figure3_allocs(large) - figure3_allocs(small)) as f64 / (large - small) as f64;
    assert!(
        per_access <= DISCOVERY_ALLOCS_PER_ACCESS,
        "one more Figure 3 access made {per_access:.2} allocations \
         (budget {DISCOVERY_ALLOCS_PER_ACCESS})"
    );
}

/// Counts of one `gossip_256`-shaped run.
struct GossipRun {
    allocs: u64,
    events: u64,
    timers: u64,
    completions: u64,
}

/// One `gossip_256`-shaped run: the replicated log through a blip on the
/// small fabric, with 29 bystanders in anti-entropy every 40 µs, open for
/// `open_ms` (the inputs of the benchmark's composition-equivalence test).
fn gossip_run(open_ms: u64) -> GossipRun {
    let replog = ReplogSpec::small();
    let mut open = OpenLoopSpec::flat(1000, replog.heads, 400_000, SimTime::from_millis(open_ms));
    open.zipf_skew_permille = 900;
    let blip = Blip {
        at: SimTime::from_micros(300),
        dur: SimTime::from_micros(200),
        partition_holder: Some(0),
        crash_holder: Some(1),
    };
    let fabric = LoadFabricSpec {
        shards: 1,
        bystanders: 29,
        gossip_period: Some(SimTime::from_micros(40)),
        ..LoadFabricSpec::small()
    };
    let before = snapshot().0;
    let run = LoadRun::execute(&fabric, &open, &replog, Some(&blip), 13, false);
    let allocs = snapshot().0 - before;
    assert_eq!(run.failed, 0, "every batch completed");
    GossipRun {
        allocs,
        events: run.counters.get("sim.events"),
        timers: run.counters.get("sim.timers"),
        completions: run.completions.len() as u64,
    }
}

#[test]
fn a_gossip_op_costs_a_bounded_number_of_allocations_events_and_timers() {
    // Two runs that differ only in how long the log stays open: set-up and
    // the blip cancel, and what is left is the marginal cost of one more
    // completed batch with the anti-entropy running underneath it.
    let (small, large) = (gossip_run(1), gossip_run(2));
    let per_op = |count: fn(&GossipRun) -> u64| {
        (count(&large) - count(&small)) as f64 / (large.completions - small.completions) as f64
    };
    let allocs = per_op(|r| r.allocs);
    let events = per_op(|r| r.events);
    let timers = per_op(|r| r.timers);
    assert!(
        allocs <= GOSSIP_ALLOCS_PER_OP,
        "one more gossip-shape completion made {allocs:.2} allocations \
         (budget {GOSSIP_ALLOCS_PER_OP})"
    );
    assert!(
        events <= GOSSIP_EVENTS_PER_OP,
        "one more gossip-shape completion cost {events:.2} events (budget {GOSSIP_EVENTS_PER_OP})"
    );
    assert!(
        timers <= GOSSIP_TIMERS_PER_OP,
        "one more gossip-shape completion fired {timers:.2} timers (budget {GOSSIP_TIMERS_PER_OP})"
    );
}

#[test]
fn a_scheduled_timer_costs_a_bounded_number_of_bytes() {
    struct Idle;
    impl Node for Idle {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }
    const TIMERS: u64 = 10_000;
    let mut sim = Sim::new(SimConfig { shards: 1, ..Default::default() });
    let node = sim.add_node(Box::new(Idle));
    let (allocs, bytes) = snapshot();
    sim.schedule_batch((0..TIMERS).map(|i| (SimTime::from_micros(i + 1), node, i)));
    let (allocs, bytes) = (snapshot().0 - allocs, snapshot().1 - bytes);
    let per_timer = bytes as f64 / TIMERS as f64;
    assert!(
        per_timer <= BYTES_PER_SCHEDULED_TIMER,
        "scheduling {TIMERS} sorted timers requested {per_timer:.1} B per timer in {allocs} \
         allocations (budget {BYTES_PER_SCHEDULED_TIMER} B)"
    );
}

#[test]
fn a_flood_dedup_set_requests_a_bounded_number_of_bytes() {
    let before = snapshot();
    let mut seen = DetSet::new();
    for n in 0..FLOOD_SET_MEMBERS {
        assert!(seen.insert((u128::from(n) << 64 | 0x1111, n)));
    }
    let (allocs, bytes) = (snapshot().0 - before.0, snapshot().1 - before.1);
    assert_eq!(seen.len() as u64, FLOOD_SET_MEMBERS);
    assert!(
        bytes <= FLOOD_SET_BYTES,
        "building a {FLOOD_SET_MEMBERS}-member DetSet<(u128, u64)> requested {bytes} B in \
         {allocs} allocations (budget {FLOOD_SET_BYTES} B)"
    );
}

/// Two nodes on one link bounce a packet `hops` times, started by one
/// external timer, with `Observe::default()` armed.
fn unobserved_fixture(hops: u64) -> u64 {
    struct Bounce {
        left: u64,
    }
    impl Node for Bounce {
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            ctx.send(PortId(0), Packet::new(vec![0u8; 64], 0));
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(port, packet);
            }
        }
    }
    let mut sim = Sim::new(SimConfig { seed: 3, shards: 1, ..Default::default() });
    sim.observe(Observe::default());
    let a = sim.add_node(Box::new(Bounce { left: hops }));
    let b = sim.add_node(Box::new(Bounce { left: hops }));
    sim.connect(a, b, LinkSpec::rack());
    sim.schedule(SimTime::from_micros(1), a, 0);
    sim.run_until_idle()
}

#[test]
fn an_unobserved_run_allocates_nothing_for_observers() {
    let before = snapshot();
    let events = unobserved_fixture(50);
    let (allocs, bytes) = (snapshot().0 - before.0, snapshot().1 - before.1);
    assert_eq!(events, 102, "the fixture ran: one timer, 101 deliveries");
    assert_eq!(
        (allocs, bytes),
        (UNOBSERVED_FIXTURE_ALLOCS, UNOBSERVED_FIXTURE_BYTES),
        "an unobserved build-and-run must allocate exactly its pinned count: nothing for observers"
    );
}
