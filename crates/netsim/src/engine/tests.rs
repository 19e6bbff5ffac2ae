use super::*;

/// Echoes every packet back out the port it arrived on.
struct Echo;
impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        ctx.send(port, packet);
    }
    fn name(&self) -> &str {
        "echo"
    }
}

/// Sends one packet at start, records the echo's arrival time.
struct Pinger {
    out: PortId,
    sent_at: Option<SimTime>,
    rtt: Option<SimTime>,
}
impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.sent_at = Some(ctx.now);
        ctx.send(self.out, Packet::new(vec![0u8; 100], 1));
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {
        self.rtt = Some(ctx.now - self.sent_at.unwrap());
    }
}

fn spec_1b_per_ns() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_nanos(500),
        bandwidth_bps: 8_000_000_000,
        queue_bytes: 1 << 20,
        loss_permille: 0,
    }
}

#[test]
fn ping_rtt_matches_link_model() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.run_until_idle();
    // Each direction: 100 ns tx + 500 ns latency = 600 ns; RTT = 1200 ns.
    let pinger = sim.node_as::<Pinger>(p).unwrap();
    assert_eq!(pinger.rtt, Some(SimTime::from_nanos(1200)));
    assert_eq!(sim.counters.get("sim.packets_delivered"), 2);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> (u64, u64) {
        let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        let events = sim.run_until_idle();
        (events, sim.now().as_nanos())
    }
    assert_eq!(run(7), run(7));
}

#[test]
fn run_until_respects_deadline() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    // First delivery lands at 600 ns; stop before it.
    sim.run_until(SimTime::from_nanos(100));
    assert!(sim.node_as::<Pinger>(p).unwrap().rtt.is_none());
    sim.run_until_idle();
    assert!(sim.node_as::<Pinger>(p).unwrap().rtt.is_some());
}

#[test]
fn scheduled_timers_fire_in_order() {
    struct Recorder {
        tags: Vec<u64>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, _: &mut NodeCtx<'_>, tag: u64) {
            self.tags.push(tag);
        }
    }
    let mut sim = Sim::new(SimConfig::default());
    let r = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
    sim.schedule(SimTime::from_micros(30), r, 3);
    sim.schedule(SimTime::from_micros(10), r, 1);
    sim.schedule(SimTime::from_micros(20), r, 2);
    // Same-time events keep insertion order.
    sim.schedule(SimTime::from_micros(30), r, 4);
    sim.run_until_idle();
    assert_eq!(sim.node_as::<Recorder>(r).unwrap().tags, vec![1, 2, 3, 4]);
}

#[test]
fn schedule_batch_matches_individual_schedules() {
    struct Recorder {
        fired: Vec<(u64, u64)>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            self.fired.push((ctx.now.as_nanos(), tag));
        }
    }
    let arrivals = [(25u64, 0u64), (10, 1), (25, 2), (40, 3)];
    let run = |batch: bool| {
        let mut sim = Sim::new(SimConfig::default());
        let r = sim.add_node(Box::new(Recorder { fired: Vec::new() }));
        if batch {
            sim.schedule_batch(
                arrivals.iter().map(|&(us, tag)| (SimTime::from_micros(us), r, tag)),
            );
        } else {
            for &(us, tag) in &arrivals {
                sim.schedule(SimTime::from_micros(us), r, tag);
            }
        }
        sim.run_until_idle();
        sim.node_as::<Recorder>(r).unwrap().fired.clone()
    };
    let batched = run(true);
    assert_eq!(batched, run(false));
    // Same-time arrivals keep schedule order (tag 0 before tag 2).
    assert_eq!(batched, vec![(10_000, 1), (25_000, 0), (25_000, 2), (40_000, 3)]);
}

#[test]
fn queue_drops_are_counted() {
    // Tiny queue, burst of packets: all but the first few drop.
    struct Burst {
        n: usize,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for i in 0..self.n {
                ctx.send(PortId(0), Packet::new(vec![0u8; 1000], i as u64));
            }
        }
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }
    struct Sink;
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }
    let mut sim = Sim::new(SimConfig::default());
    let b = sim.add_node(Box::new(Burst { n: 10 }));
    let s = sim.add_node(Box::new(Sink));
    sim.connect(
        b,
        s,
        LinkSpec {
            latency: SimTime::from_micros(1),
            bandwidth_bps: 8_000_000_000,
            queue_bytes: 2_500,
            loss_permille: 0,
        },
    );
    sim.run_until_idle();
    assert_eq!(sim.counters.get("sim.packets_sent"), 10);
    let delivered = sim.counters.get("sim.packets_delivered");
    let dropped = sim.counters.get("sim.packets_dropped");
    assert_eq!(delivered + dropped, 10);
    assert!(dropped >= 7, "expected most of the burst to drop, got {dropped}");
}

#[test]
fn lossy_links_drop_deterministically() {
    fn run(seed: u64) -> (u64, u64) {
        struct Burst;
        impl Node for Burst {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..1000u64 {
                    ctx.send(PortId(0), Packet::new(vec![0u8; 10], i));
                }
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        }
        struct Sink;
        impl Node for Sink {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        }
        let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
        let b = sim.add_node(Box::new(Burst));
        let s = sim.add_node(Box::new(Sink));
        sim.connect(b, s, spec_1b_per_ns().with_loss(100)); // 10%
        sim.run_until_idle();
        (sim.counters.get("sim.packets_lost"), sim.counters.get("sim.packets_delivered"))
    }
    let (lost, delivered) = run(7);
    assert_eq!(lost + delivered, 1000);
    // ~10% loss within generous bounds.
    assert!((60..160).contains(&lost), "lost {lost}");
    // Determinism: identical per seed, different across seeds.
    assert_eq!(run(7), (lost, delivered));
    assert_ne!(run(8).0, 0);
}

/// Sends one packet every 10 µs forever (until `n` are out); counts
/// what comes back. Re-arms its pacing timer from `on_restart`.
struct Pacer {
    sent: usize,
    n: usize,
    received: usize,
    restarts: usize,
}
impl Pacer {
    fn new(n: usize) -> Pacer {
        Pacer { sent: 0, n, received: 0, restarts: 0 }
    }
    fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.sent < self.n {
            self.sent += 1;
            ctx.send(PortId(0), Packet::new(vec![0u8; 100], self.sent as u64));
            ctx.set_timer(SimTime::from_micros(10), 0);
        }
    }
}
impl Node for Pacer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        self.pump(ctx);
    }
    fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {
        self.received += 1;
    }
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.restarts += 1;
        self.pump(ctx);
    }
}

#[test]
fn link_down_window_blocks_admissions() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    // Down for the middle of the run: sends during [25µs, 55µs) die.
    let plan = FaultPlan::new().link_down(SimTime::from_micros(25), p, e).link_up(
        SimTime::from_micros(55),
        p,
        e,
    );
    sim.install_fault_plan(&plan);
    sim.run_until_idle();
    let down_drops = sim.counters.get("sim.packets_dropped.link_down");
    assert!(down_drops > 0, "expected drops while the link was down");
    let pacer = sim.node_as::<Pacer>(p).unwrap();
    assert_eq!(pacer.sent, 10);
    // Each drop (original or echo) costs exactly one reception.
    assert_eq!(pacer.received as u64, 10 - down_drops);
    assert_eq!(sim.counters.get("sim.faults_applied"), 2);
}

#[test]
fn loss_burst_overrides_and_restores_spec_rate() {
    use crate::fault::FaultPlan;
    fn run(burst: bool) -> u64 {
        let mut sim = Sim::new(SimConfig { seed: 11, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(200)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        if burst {
            let plan =
                FaultPlan::new().loss_burst(SimTime::ZERO, SimTime::from_micros(1000), p, e, 500);
            sim.install_fault_plan(&plan);
        }
        sim.run_until_idle();
        sim.counters.get("sim.packets_lost")
    }
    assert_eq!(run(false), 0, "spec link is lossless");
    let lost = run(true);
    // 200 paced sends, ~50% loss while the burst covers the first
    // 1000 µs (the whole send window): expect substantial loss.
    assert!(lost > 50, "burst should lose many packets, lost {lost}");
}

#[test]
fn partition_blocks_cross_traffic_both_ways() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    let plan = FaultPlan::new().partition(SimTime::ZERO, SimTime::from_micros(45), &[p], &[e]);
    sim.install_fault_plan(&plan);
    sim.run_until_idle();
    let part_drops = sim.counters.get("sim.packets_dropped.partition");
    assert!(part_drops >= 4, "partition must block cross traffic, dropped {part_drops}");
    let pacer = sim.node_as::<Pacer>(p).unwrap();
    assert_eq!(pacer.received as u64, 10 - part_drops, "each drop costs one echo");
}

#[test]
fn crash_drops_inflight_and_timers_restart_revives() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    // Crash the pacer at 31 µs: the echo of its 30 µs send is in
    // flight (lands at 31.2 µs) and its pacing timer is armed — both
    // must die with the crash; without a restart nothing more happens.
    let plan =
        FaultPlan::new().crash(SimTime::from_micros(31), p).restart(SimTime::from_micros(60), p);
    sim.install_fault_plan(&plan);
    sim.run_until_idle();
    let pacer = sim.node_as::<Pacer>(p).unwrap();
    assert_eq!(pacer.restarts, 1, "on_restart must run exactly once");
    assert_eq!(pacer.sent, 10, "restart re-armed the pacing timer");
    assert!(
        sim.counters.get("sim.timers_dropped.crash") >= 1,
        "the armed pacing timer must die with the crash"
    );
    assert!(
        sim.counters.get("sim.deliveries_dropped.crash") >= 1,
        "the in-flight echo must die with the crash"
    );
    assert!(pacer.received < 10, "echoes in flight at the crash are lost");
    assert!(sim.node_alive(p));
}

#[test]
fn sends_to_dead_node_drop_at_admission() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    let plan = FaultPlan::new().crash(SimTime::from_micros(5), e);
    sim.install_fault_plan(&plan);
    sim.run_until_idle();
    assert!(!sim.node_alive(e));
    assert!(
        sim.counters.get("sim.packets_dropped.dead_node") >= 8,
        "sends to the dead echo must drop at the sender's link"
    );
    assert_eq!(sim.node_as::<Pacer>(p).unwrap().received, 1, "only the pre-crash echo");
}

#[test]
fn faulted_runs_are_deterministic_per_seed() {
    use crate::fault::FaultPlan;
    fn run(seed: u64) -> Vec<(&'static str, u64)> {
        let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(50)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns().with_loss(100));
        let plan = FaultPlan::new()
            .loss_burst(SimTime::from_micros(40), SimTime::from_micros(120), p, e, 700)
            .crash(SimTime::from_micros(200), e)
            .restart(SimTime::from_micros(260), e)
            .partition(SimTime::from_micros(300), SimTime::from_micros(350), &[p], &[e]);
        sim.install_fault_plan(&plan);
        sim.run_until_idle();
        sim.counters.iter().collect()
    }
    assert_eq!(run(3), run(3), "identical seed must give identical counters");
    assert_ne!(run(3), run(4), "loss should differ across seeds");
}

#[test]
#[should_panic(expected = "non-existent link")]
fn fault_plan_with_unknown_link_panics() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.add_node(Box::new(Echo));
    let b = sim.add_node(Box::new(Echo));
    let _ = (a, b);
    let plan = FaultPlan::new().link_down(SimTime::ZERO, a, b);
    sim.install_fault_plan(&plan);
}

#[test]
fn multi_hop_forwarding() {
    // pinger — echoA(forwarder) — echo: a 2-hop path via a relay that
    // forwards port 0 ↔ port 1.
    struct Relay;
    impl Node for Relay {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            let out = if port.0 == 0 { PortId(1) } else { PortId(0) };
            ctx.send(out, packet);
        }
    }
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let r = sim.add_node(Box::new(Relay));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, r, spec_1b_per_ns());
    sim.connect(r, e, spec_1b_per_ns());
    sim.run_until_idle();
    // 4 one-way traversals × 600 ns.
    assert_eq!(sim.node_as::<Pinger>(p).unwrap().rtt, Some(SimTime::from_nanos(2400)));
}

#[test]
fn tracing_disabled_by_default_records_nothing() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.run_until_idle();
    assert!(!sim.tracer.is_enabled());
    assert_eq!(sim.tracer.count(), 0);
}

#[test]
fn trace_packet_chain_links_enqueue_transmit_deliver() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.enable_trace(1 << 12);
    sim.run_until_idle();

    // The last deliver is the echo arriving back at the pinger; its
    // ancestry must run all the way to the original send with the
    // engine taxonomy in order.
    let (last_deliver, _) = sim
        .tracer
        .iter()
        .filter(|(_, ev)| ev.kind.name() == "packet.deliver")
        .last()
        .expect("a delivery was traced");
    assert_eq!(
        sim.tracer.chain_names(last_deliver).into_iter().map(|(_, name)| name).collect::<Vec<_>>(),
        vec![
            "packet.enqueue",  // pinger sends (on_start, no cause)
            "packet.transmit", // onto the wire
            "packet.deliver",  // echo receives
            "packet.enqueue",  // echo replies — caused by the delivery
            "packet.transmit",
            "packet.deliver", // back at the pinger
        ]
    );
    // Timestamps along the chain: enqueue at 0, transmit at 100 (tx
    // time of 100 B at 1 B/ns), deliver at 600 (500 ns latency).
    let chain = sim.tracer.ancestry(last_deliver);
    let times: Vec<u64> = chain.iter().rev().map(|id| sim.tracer.get(*id).unwrap().at).collect();
    assert_eq!(times, vec![0, 100, 600, 600, 700, 1200]);
}

#[test]
fn trace_timer_set_fire_edge() {
    struct OneShot;
    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimTime::from_micros(3), 42);
        }
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }
    let mut sim = Sim::new(SimConfig::default());
    let n = sim.add_node(Box::new(OneShot));
    sim.enable_trace(64);
    sim.run_until_idle();
    let (fire, fire_ev) =
        sim.tracer.iter().find(|(_, ev)| ev.kind.name() == "timer.fire").expect("fire traced");
    let set_ev = sim.tracer.get(fire_ev.cause.expect("fire has a cause")).unwrap();
    assert_eq!(set_ev.kind.name(), "timer.set");
    assert_eq!(set_ev.at, 0);
    assert_eq!(fire_ev.at, 3000);
    sim.tracer.assert_chain(fire, n.0 as u32, &["timer.set", "timer.fire"]);
}

#[test]
fn trace_crash_drop_carries_fault_aux_edge() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    let plan =
        FaultPlan::new().crash(SimTime::from_micros(31), p).restart(SimTime::from_micros(60), p);
    sim.install_fault_plan(&plan);
    sim.enable_trace(1 << 12);
    sim.run_until_idle();

    let crash = sim
        .tracer
        .iter()
        .find(|(_, ev)| ev.kind.name() == "fault.crash")
        .map(|(id, _)| id)
        .expect("crash fault traced");
    let (_, drop_ev) = sim
        .tracer
        .iter()
        .find(|(_, ev)| ev.kind.name() == "packet.drop.crash")
        .expect("the in-flight echo drop is traced");
    assert_eq!(drop_ev.aux, Some(crash), "drop links to the fault that caused it");
    assert_eq!(
        sim.tracer.get(drop_ev.cause.unwrap()).unwrap().kind.name(),
        "packet.transmit",
        "drop keeps its packet provenance too"
    );
    // The armed pacing timer died the same way.
    let (_, tdrop) =
        sim.tracer.iter().find(|(_, ev)| ev.kind.name() == "timer.drop").expect("timer drop");
    assert_eq!(tdrop.aux, Some(crash));
    // And the restart dispatch is caused by the restart fault.
    let restart = sim
        .tracer
        .iter()
        .find(|(_, ev)| ev.kind.name() == "fault.restart")
        .map(|(id, _)| id)
        .unwrap();
    let resumed = sim
        .tracer
        .iter()
        .any(|(_, ev)| ev.cause == Some(restart) && ev.kind.name() == "packet.enqueue");
    assert!(resumed, "the pacer's post-restart send is rooted at the restart fault");
}

#[test]
fn trace_link_down_drop_carries_fault_aux_edge() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(10)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    let plan = FaultPlan::new().link_down(SimTime::from_micros(25), p, e).link_up(
        SimTime::from_micros(55),
        p,
        e,
    );
    sim.install_fault_plan(&plan);
    sim.enable_trace(1 << 12);
    sim.run_until_idle();

    let down = sim
        .tracer
        .iter()
        .find(|(_, ev)| ev.kind.name() == "fault.link_state")
        .map(|(id, _)| id)
        .expect("link-down fault traced");
    let drops: Vec<_> = sim
        .tracer
        .iter()
        .filter(|(_, ev)| ev.kind.name() == "packet.drop.link_down")
        .map(|(_, ev)| ev.aux)
        .collect();
    assert!(!drops.is_empty(), "sends while the link was down are traced as drops");
    assert!(drops.iter().all(|aux| *aux == Some(down)), "each drop links to the fault");
    // Provenance is sparse: one downed link, no crashed node.
    assert_eq!(sim.globals.link_fault_trace.len(), 1);
    assert!(sim.globals.crash_trace.is_empty());
}

fn metrics_cfg(interval_ns: u64) -> MetricsConfig {
    MetricsConfig { sample_interval_ns: interval_ns, ..Default::default() }
}

#[test]
fn metrics_disabled_by_default_record_nothing() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.run_until_idle();
    assert!(!sim.metrics.is_enabled());
    assert!(sim.metrics.names().is_empty());
    assert_eq!(sim.metrics.ticks(), 0);
}

#[test]
fn metrics_sample_gauges_and_rates_on_cadence() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(20)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.enable_metrics(metrics_cfg(10_000)); // one tick per pacing period
    sim.run_until_idle();
    sim.flush_metrics(sim.now());
    let set = sim.take_metrics();
    assert!(set.ticks() > 0, "samples were taken");
    let names = set.names();
    for expected in [
        "link.queue_bytes.l0",
        "link.util_pct.l0_d0",
        "link.util_pct.l0_d1",
        "node.pending_timers.node",
        "node.pending_timers.echo",
        "engine.inflight_packets",
        "rate.sim.events",
        "rate.sim.packets_delivered",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing gauge {expected}: {names:?}");
    }
    // Every tick delivered a pacer send and its echo: the delivery
    // rate series must be nonzero somewhere.
    let rate = set.series_by_name("rate.sim.packets_delivered").unwrap();
    assert!(rate.points().any(|(_, v)| v > 0));
    // The invariant monitor ran green the whole way.
    assert!(set.violations().is_empty());
}

#[test]
fn metrics_observation_never_perturbs_the_run() {
    fn run(metrics: bool) -> (u64, u64, Vec<(&'static str, u64)>) {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig { seed: 5, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(50)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns().with_loss(100));
        let plan = FaultPlan::new()
            .crash(SimTime::from_micros(120), e)
            .restart(SimTime::from_micros(180), e);
        sim.install_fault_plan(&plan);
        if metrics {
            sim.enable_metrics(metrics_cfg(7_000));
        }
        let events = sim.run_until_idle();
        (events, sim.now().as_nanos(), sim.counters.iter().collect())
    }
    assert_eq!(run(false), run(true), "sampling must not change the simulation");
}

#[test]
fn metrics_are_deterministic_per_seed() {
    fn run() -> String {
        let mut sim = Sim::new(SimConfig { seed: 9, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(25)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns().with_loss(100));
        sim.enable_metrics(metrics_cfg(5_000));
        sim.run_until_idle();
        sim.flush_metrics(sim.now());
        rdv_metrics::export::json(&sim.take_metrics(), "T", 9)
    }
    assert_eq!(run(), run(), "metrics JSON must be byte-identical per seed");
}

#[test]
fn seeded_inflight_leak_trips_packet_conservation_at_first_audit() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(5)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.enable_metrics(MetricsConfig {
        sample_interval_ns: 10_000,
        panic_on_violation: false,
        ..Default::default()
    });
    sim.debug_leak_inflight();
    sim.run_until_idle();
    let set = sim.take_metrics();
    let v = set.violations().first().expect("the leak must be caught");
    assert_eq!(v.invariant, "packet_conservation");
    assert_eq!(v.at_ns, 10_000, "caught at the first audit tick after the leak");
    assert!(v.detail.contains("sent="), "detail names the failing account: {}", v.detail);
    assert!(!v.gauges.is_empty(), "violation carries the gauge snapshot");
}

#[test]
fn seeded_stale_holder_trips_directory_holders_with_event_id() {
    use rdv_metrics::AuditScope;
    /// A directory owner whose table lists an inbox nobody declares.
    struct StaleDir;
    impl Node for StaleDir {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn audit(&self, a: &mut AuditScope<'_>) {
            a.declare_inbox(0xA0);
            a.claim_holder(0x7, 0xDEAD);
        }
        fn name(&self) -> &str {
            "staledir"
        }
    }
    let mut sim = Sim::new(SimConfig::default());
    let d = sim.add_node(Box::new(StaleDir));
    let p = sim.add_node(Box::new(Pacer::new(3)));
    sim.connect(p, d, spec_1b_per_ns());
    sim.enable_trace(1 << 10);
    sim.enable_metrics(MetricsConfig {
        sample_interval_ns: 10_000,
        panic_on_violation: false,
        ..Default::default()
    });
    sim.run_until_idle();
    let set = sim.take_metrics();
    let v = set.violations().first().expect("the stale holder must be caught");
    assert_eq!(v.invariant, "directory_holders");
    assert_eq!(v.at_ns, 10_000);
    assert!(v.detail.contains("0xdead"));
    assert!(v.event_id.is_some(), "tracing was on, so the violation pins an EventId");
}

#[test]
#[should_panic(expected = "invariant `packet_conservation` violated")]
fn violations_panic_by_default() {
    let mut sim = Sim::new(SimConfig::default());
    let p = sim.add_node(Box::new(Pacer::new(5)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.enable_metrics(metrics_cfg(10_000));
    sim.debug_leak_inflight();
    sim.run_until_idle();
}

/// Shard dispatch, an external schedule, and a fault — every site that
/// builds a recorder. `flight` arms the recorder beside the tracer.
fn traced_run(flight: bool) -> Sim {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig { seed: 9, shards: 2, ..Default::default() });
    let p = sim.add_node(Box::new(Pacer::new(25)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns().with_loss(100));
    sim.install_fault_plan(
        &FaultPlan::new().crash(SimTime::from_micros(100), e).restart(SimTime::from_micros(140), e),
    );
    sim.enable_trace(1 << 12);
    if flight {
        sim.enable_flight_recorder(256);
    }
    sim.schedule(SimTime::from_micros(5), p, 7);
    sim.run_until_idle();
    sim
}

#[test]
fn trace_stream_is_deterministic_and_exports_identically() {
    let (a, b) = (traced_run(false), traced_run(false));
    assert_eq!(a.tracer.count(), b.tracer.count());
    let json = rdv_trace::export::chrome_json(&a.tracer, &a.node_names());
    assert_eq!(
        json,
        rdv_trace::export::chrome_json(&b.tracer, &b.node_names()),
        "trace JSON must be byte-identical per seed"
    );
    assert_eq!(
        rdv_trace::export::text_timeline(&a.tracer, &a.node_names()),
        rdv_trace::export::text_timeline(&b.tracer, &b.node_names())
    );
    assert!(json.contains("fault.crash") && json.contains("timer.set"), "{json}");
}

#[test]
fn armed_tracer_takes_precedence_over_the_flight_rings() {
    // With both back-ends armed the tracer records at every site and the
    // rings see nothing, so the trace is the tracer-only trace.
    let (alone, both) = (traced_run(false), traced_run(true));
    assert_eq!(
        rdv_trace::export::chrome_json(&both.tracer, &both.node_names()),
        rdv_trace::export::chrome_json(&alone.tracer, &alone.node_names()),
        "arming the recorder must not move a trace byte"
    );
    assert!(both.flight.iter().all(|ring| ring.count() == 0), "the tracer wins at every site");
    let ids: Vec<u64> = both.tracer.iter().map(|(id, _)| id.0).collect();
    assert_eq!(ids, (0..both.tracer.count()).collect::<Vec<u64>>(), "dense ids from 0");
}

// ---- sharded execution ----

/// One full faulted/lossy scenario at a given shard count, with or
/// without the flight recorder armed, returning everything a run exposes:
/// counters, event count, final clock, and the metrics JSON export.
fn sharded_fixture(
    seed: u64,
    shards: usize,
    flight: bool,
) -> (Vec<(&'static str, u64)>, u64, u64, String) {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    let p = sim.add_node(Box::new(Pacer::new(50)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns().with_loss(100));
    let plan = FaultPlan::new()
        .loss_burst(SimTime::from_micros(40), SimTime::from_micros(120), p, e, 700)
        .crash(SimTime::from_micros(200), e)
        .restart(SimTime::from_micros(260), e)
        .partition(SimTime::from_micros(300), SimTime::from_micros(350), &[p], &[e]);
    sim.install_fault_plan(&plan);
    sim.enable_metrics(metrics_cfg(7_000));
    if flight {
        sim.enable_flight_recorder(256);
    }
    let events = sim.run_until_idle();
    sim.flush_metrics(sim.now());
    let clock = sim.now().as_nanos();
    let counters = sim.counters.iter().collect();
    let json = rdv_metrics::export::json(&sim.take_metrics(), "T", seed);
    (counters, events, clock, json)
}

#[test]
fn sharded_execution_is_byte_identical_to_single_shard() {
    let flat = sharded_fixture(3, 1, false);
    for shards in [2, 4, 8] {
        assert_eq!(
            sharded_fixture(3, shards, false),
            flat,
            "--shards {shards} must reproduce --shards 1 exactly"
        );
    }
}

#[test]
fn sharded_parallel_path_actually_runs_windows() {
    use crate::fault::FaultPlan;
    fn run(shards: usize) -> (Vec<(&'static str, u64)>, u64, u64) {
        let mut sim = Sim::new(SimConfig { seed: 3, shards, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(50)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns().with_loss(100));
        let plan = FaultPlan::new()
            .crash(SimTime::from_micros(200), e)
            .restart(SimTime::from_micros(260), e);
        sim.install_fault_plan(&plan);
        let events = sim.run_until_idle();
        if shards > 1 {
            // Two nodes, two shards, a 500 ns cross-shard link: the
            // parallel windowed loop must have engaged.
            assert!(sim.exec_stats().get("sim.shard.windows") > 0, "expected windowed execution");
            assert!(
                sim.exec_stats().get("sim.shard.xshard_packets") > 0,
                "expected cross-shard traffic"
            );
        }
        (sim.counters.iter().collect(), events, sim.now().as_nanos())
    }
    assert_eq!(run(1), run(2));
}

#[test]
fn regions_group_nodes_onto_shards() {
    let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
    let a = sim.add_node_in_region(Box::new(Echo), 0);
    let b = sim.add_node_in_region(Box::new(Echo), 0);
    let c = sim.add_node_in_region(Box::new(Echo), 1);
    assert_eq!(sim.shard_count(), 2);
    // Same region ⇒ same shard; links inside it never bound lookahead.
    sim.connect(a, b, spec_1b_per_ns());
    assert_eq!(sim.lookahead_ns, u64::MAX, "intra-region link must not bound lookahead");
    sim.connect(b, c, spec_1b_per_ns());
    assert_eq!(sim.lookahead_ns, 500, "cross-region link sets the lookahead");
}

#[test]
fn exec_stats_stay_out_of_run_counters() {
    let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
    let p = sim.add_node(Box::new(Pacer::new(20)));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.run_until_idle();
    assert!(sim.exec_stats().get("sim.shard.windows") > 0);
    // The public counter table must not mention shard execution:
    // its values would differ across --shards.
    assert!(sim.counters.iter().all(|(name, _)| !name.starts_with("sim.shard.")));
}

#[test]
fn shard_telemetry_gauges_are_opt_in() {
    fn run(telemetry: bool) -> Vec<String> {
        let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(20)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_metrics(metrics_cfg(10_000));
        if telemetry {
            sim.enable_shard_telemetry();
        }
        sim.run_until_idle();
        sim.flush_metrics(sim.now());
        sim.take_metrics().names().to_vec()
    }
    let without = run(false);
    assert!(without.iter().all(|n| !n.starts_with("shard.")), "telemetry must be opt-in");
    let with = run(true);
    for expected in ["shard.queue_events.s0", "shard.queue_events.s1", "shard.clock_ns.s0"] {
        assert!(with.iter().any(|n| n == expected), "missing {expected}: {with:?}");
    }
}

#[test]
fn external_schedule_is_shard_count_independent() {
    struct Recorder {
        tags: Vec<u64>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, _: &mut NodeCtx<'_>, tag: u64) {
            self.tags.push(tag);
        }
    }
    fn run(shards: usize) -> Vec<(u64, u64)> {
        let mut sim = Sim::new(SimConfig { shards, ..Default::default() });
        let a = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
        let b = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
        sim.connect(a, b, spec_1b_per_ns());
        for i in 0..10u64 {
            sim.schedule(SimTime::from_micros(10 * (i % 3) + 5), if i % 2 == 0 { a } else { b }, i);
        }
        sim.run_until_idle();
        let mut out = Vec::new();
        for (gid, node) in [a, b].into_iter().enumerate() {
            for &t in &sim.node_as::<Recorder>(node).unwrap().tags {
                out.push((gid as u64, t));
            }
        }
        out
    }
    assert_eq!(run(1), run(2));
    assert_eq!(run(1), run(8));
}

// ---- flight recorder & sampled tracing ----

#[test]
fn flight_recorder_on_a_clean_run_changes_no_output() {
    assert_eq!(
        sharded_fixture(3, 2, false),
        sharded_fixture(3, 2, true),
        "an armed recorder must not change a clean run"
    );
}

#[test]
fn flight_postmortem_walks_causal_ancestry_across_rings() {
    let mut sim = Sim::new(SimConfig { seed: 1, shards: 2, ..Default::default() });
    let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
    let e = sim.add_node(Box::new(Echo));
    sim.connect(p, e, spec_1b_per_ns());
    sim.enable_flight_recorder(64);
    sim.run_until_idle();
    let dump = sim.flight_postmortem(None).expect("recorder is armed");
    assert!(dump.starts_with("==== flight-recorder postmortem ===="), "{dump}");
    assert!(dump.contains("causal ancestry (most recent first):"), "{dump}");
    // The pinger's echo round-trip crossed both shard rings: the
    // ancestry of the final delivery names a cross-ring cause.
    assert!(dump.contains("packet.deliver"), "{dump}");
    assert!(dump.contains("cause=s"), "ancestry must carry ring-qualified edges: {dump}");
    assert!(dump.contains("shard state:") && dump.contains("counters:"), "{dump}");
    assert_eq!(sim.counters.get("flight.dumps"), 1);
    assert!(sim.counters.get("flight.events") > 0);
}

#[test]
fn seeded_leak_with_flight_recorder_panics_with_postmortem() {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(5)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_metrics(metrics_cfg(10_000));
        sim.enable_flight_recorder(128);
        sim.debug_leak_inflight();
        sim.run_until_idle();
    }))
    .expect_err("the leak must still panic with the recorder armed");
    let msg = payload.downcast_ref::<String>().expect("panic message is a String");
    assert!(
        msg.starts_with("invariant `packet_conservation` violated"),
        "the bare-panic prefix must survive: {msg}"
    );
    assert!(msg.contains("==== flight-recorder postmortem ===="), "{msg}");
    assert!(msg.contains("causal ancestry (most recent first):"), "{msg}");
    assert!(msg.contains("gauge snapshot:"), "{msg}");
}

#[test]
fn sampled_tracing_keeps_only_rooted_chains_and_is_deterministic() {
    /// A pacer whose every batch asks the sampler for a verdict,
    /// wraps the send in a span, and detaches before re-arming — the
    /// pattern protocol instrumentation uses.
    struct SamplingPacer {
        seq: u64,
        n: u64,
    }
    impl Node for SamplingPacer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            self.pump(ctx);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            self.pump(ctx);
        }
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn name(&self) -> &str {
            "sampler"
        }
    }
    impl SamplingPacer {
        fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.seq < self.n {
                self.seq += 1;
                ctx.trace.sample("load.batch", self.seq);
                let begin = ctx.trace.span_begin("load.batch", self.seq);
                ctx.send(PortId(0), Packet::new(vec![0u8; 64], self.seq));
                ctx.trace.span_end("load.batch", begin);
                ctx.trace.detach();
                ctx.set_timer(SimTime::from_micros(10), 0);
            }
        }
    }
    fn run(shards: usize) -> (String, (u64, u64)) {
        let mut sim = Sim::new(SimConfig { seed: 7, shards, ..Default::default() });
        let p = sim.add_node(Box::new(SamplingPacer { seq: 0, n: 40 }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_trace_sampled(
            1 << 12,
            SampleSpec { seed: 7, default_permille: 500, classes: vec![] },
        );
        sim.run_until_idle();
        let names = sim.node_names();
        let tallies = sim.tracer.sample_tallies().unwrap();
        (rdv_trace::export::chrome_json(&sim.take_tracer(), &names), tallies)
    }
    let (json1, (sampled, skipped)) = run(1);
    assert_eq!(sampled + skipped, 40, "every batch got a verdict");
    assert!(sampled > 0 && skipped > 0, "500‰ must split 40 batches ({sampled}/{skipped})");
    // Detached re-arm timers belong to no sampled chain: the pacing
    // clockwork is invisible in the selective trace.
    assert!(!json1.contains("timer.set"), "unrooted timers must be dropped");
    assert!(json1.contains("load.batch"), "sampled spans are recorded");
    assert!(json1.contains("packet.deliver"), "sampled sends chain through delivery");
    let (json2, tallies2) = run(2);
    assert_eq!(json1, json2, "sampled trace must be byte-identical across --shards");
    assert_eq!((sampled, skipped), tallies2);
}

// ---- topology tables ----

/// On each timer, sends on the port its tag names; counts echoes by port.
/// The send is queued past [`NodeCtx::send`]'s debug check, so a port with
/// no link reaches the engine's admission path.
struct PortSender {
    received: Vec<PortId>,
}
impl Node for PortSender {
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        ctx.sends.push((PortId(tag as usize), Packet::new(vec![0u8; 10], tag), None));
    }
    fn on_packet(&mut self, _: &mut NodeCtx<'_>, port: PortId, _: Packet) {
        self.received.push(port);
    }
}

#[test]
fn topology_grown_between_runs_routes_over_the_new_port() {
    for shards in [1, 2] {
        let mut sim = Sim::new(SimConfig { shards, ..Default::default() });
        let s = sim.add_node(Box::new(PortSender { received: Vec::new() }));
        let e1 = sim.add_node(Box::new(Echo));
        sim.connect(s, e1, spec_1b_per_ns());
        sim.schedule(SimTime::ZERO, s, 0);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<PortSender>(s).unwrap().received, [PortId(0)]);

        // Grow after the ports were built, in two runs: a node, then a link
        // to it with `s` as the second end.
        let e2 = sim.add_node(Box::new(Echo));
        sim.run_until_idle();
        assert_eq!(sim.connect(e2, s, spec_1b_per_ns()), (PortId(0), PortId(1)));
        assert_eq!(sim.port_count(s), 2);
        let at = sim.now() + SimTime::from_micros(1);
        for port in [1, 0, 2] {
            sim.schedule(at, s, port);
        }
        sim.run_until_idle();
        let mut got = sim.node_as::<PortSender>(s).unwrap().received.clone();
        got.sort_by_key(|p| p.0);
        assert_eq!(got, [PortId(0), PortId(0), PortId(1)], "shards={shards}");
        assert_eq!(sim.counters.get("sim.packets_dropped.bad_port"), 1, "shards={shards}");
        assert_eq!(sim.counters.get("sim.packets_delivered"), 6, "shards={shards}");
    }
}

#[test]
fn fault_plan_resolves_links_through_the_first_nodes_ports() {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.add_node(Box::new(Pacer::new(10)));
    let b = sim.add_node(Box::new(Pacer::new(10)));
    let hub = sim.add_node(Box::new(Echo));
    sim.connect(a, hub, spec_1b_per_ns());
    sim.connect(b, hub, spec_1b_per_ns());
    sim.globals.build_ports();
    assert_eq!(sim.resolve_link(a, hub), LinkId(0));
    assert_eq!(sim.resolve_link(hub, b), LinkId(1), "either orientation, any port");
    // Named from the far end, the plan still downs only b's uplink.
    sim.install_fault_plan(&FaultPlan::new().link_down(SimTime::ZERO, hub, b));
    sim.run_until_idle();
    assert_eq!(sim.node_as::<Pacer>(a).unwrap().received, 10);
    assert_eq!(sim.node_as::<Pacer>(b).unwrap().received, 0);
    assert_eq!(sim.counters.get("sim.packets_dropped.link_down"), 10);
}

/// A ratchet on the engine's topology tables: bytes `Globals` retains per
/// node of a 10 k-host rack ring (one uplink per host). Lower the bound
/// when the tables shrink.
#[test]
fn topology_tables_stay_within_budget_per_host() {
    use std::mem::size_of;
    let mut sim = Sim::new(SimConfig::default());
    let spec = spec_1b_per_ns();
    crate::topo::build_rack_ring(
        &mut sim,
        25,
        400,
        |_| Box::new(Echo),
        |_| Box::new(Echo),
        spec,
        spec,
    );
    sim.run_until_idle();
    let g = &sim.globals;
    let bytes = g.nodes.capacity() * size_of::<NodeRec>()
        + g.links.capacity() * size_of::<Link>()
        + g.port_links.capacity() * size_of::<u32>()
        + g.classes.capacity() * size_of::<LinkClass>()
        + g.partitions.capacity() * size_of::<Partition>()
        + g.partition_fault_trace.capacity() * size_of::<Option<EventId>>();
    assert_eq!(g.classes.len(), 1, "one spec, one interned class");
    assert!(g.crash_trace.is_empty() && g.link_fault_trace.is_empty(), "no fault, no entry");
    let per_node = bytes / sim.node_count();
    assert!(per_node <= 72, "{per_node} B of topology tables per node (budget 72 B)");
}

#[test]
fn a_drained_run_leaves_no_queue_storage() {
    // A 1 000-timer lane spans four 256-entry chunks; drained, a queue
    // would keep two of them pooled. Untraced, the timers ride the timer
    // queue; the flight recorder's provenance keeps them in the event
    // queue.
    for flight in [false, true] {
        let mut sim = Sim::new(SimConfig::default());
        if flight {
            sim.enable_flight_recorder(64);
        }
        let n = sim.add_node(Box::new(Echo));
        sim.schedule_batch((1..=1000).map(|us| (SimTime::from_micros(us), n, us)));
        sim.run_until(SimTime::from_micros(500));
        let (events, timers) = sim.shards[0].queue.retained_capacity();
        let live = if flight { events > 0 && timers == 0 } else { timers > 0 && events == 0 };
        assert!(live, "flight={flight}: a live queue holds chunks ({events}, {timers})");
        sim.run_until_idle();
        assert_eq!(
            sim.shards[0].queue.retained_capacity(),
            (0, 0),
            "flight={flight}: drained queues keep no storage"
        );
    }
}

/// Logs every callback as `(time ns, kind, timer tag | port)`. Each timer
/// sends on port 0 and, while `rearms` lasts, arms the next one.
struct Mixed {
    log: Vec<(u64, u8, u64)>,
    rearms: u32,
}
impl Node for Mixed {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimTime::from_micros(3), 100);
        ctx.send(PortId(0), Packet::new(vec![0u8; 64], 0));
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.log.push((ctx.now.as_nanos(), 0, tag));
        if self.rearms > 0 {
            self.rearms -= 1;
            ctx.set_timer(SimTime::from_micros(4), tag + 1);
        }
        ctx.send(PortId(0), Packet::new(vec![0u8; 64], tag));
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, _: Packet) {
        self.log.push((ctx.now.as_nanos(), 1, port.0 as u64));
    }
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.log.push((ctx.now.as_nanos(), 2, 0));
        ctx.set_timer(SimTime::from_micros(1), 500);
    }
}

/// Everything a [`Mixed`] run exposes: each node's callback log, the
/// counters, the event count and the final clock.
type MixedRun = (Vec<Vec<(u64, u8, u64)>>, Vec<(&'static str, u64)>, u64, u64);

/// Two [`Mixed`] nodes on a third, fed out-of-order external timers, a
/// timer batch, node-armed timers and same-time deliveries, with one of
/// them crashed and restarted while its timers are pending.
fn mixed_timer_run(shards: usize, flight: bool) -> MixedRun {
    use crate::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig { seed: 5, shards, ..Default::default() });
    if flight {
        sim.enable_flight_recorder(256);
    }
    let ids: Vec<NodeId> =
        (0..3).map(|_| sim.add_node(Box::new(Mixed { log: Vec::new(), rearms: 12 }))).collect();
    let (a, b, hub) = (ids[0], ids[1], ids[2]);
    sim.connect(a, hub, spec_1b_per_ns());
    sim.connect(b, hub, spec_1b_per_ns());
    for (us, node, tag) in
        [(50, b, 1000), (10, a, 1001), (30, hub, 1002), (10, a, 1003), (10, b, 1004)]
    {
        sim.schedule(SimTime::from_micros(us), node, tag);
    }
    sim.schedule_batch(
        (0..40u64).map(|i| (SimTime::from_micros(2 * i + 1), ids[i as usize % 3], 2000 + i)),
    );
    sim.install_fault_plan(
        &FaultPlan::new().crash(SimTime::from_micros(42), b).restart(SimTime::from_micros(70), b),
    );
    sim.run_until(SimTime::from_micros(20));
    let timer_storage: usize = sim.shards.iter().map(|s| s.queue.retained_capacity().1).sum();
    assert_eq!(timer_storage > 0, !flight, "untraced timers and only they ride the timer queue");
    let events = sim.run_until_idle();
    assert!(sim.counters.get("sim.timers_dropped.crash") >= 1, "the crash killed pending timers");
    let logs = ids.iter().map(|&id| sim.node_as::<Mixed>(id).unwrap().log.clone()).collect();
    (logs, sim.counters.iter().collect(), events, sim.now().as_nanos())
}

#[test]
fn timers_on_either_queue_fire_in_one_order_at_any_shard_count() {
    let reference = mixed_timer_run(1, true);
    assert!(reference.0.iter().all(|log| log.len() > 20), "every node saw traffic and timers");
    for shards in [1, 2, 8] {
        for flight in [false, true] {
            assert_eq!(
                mixed_timer_run(shards, flight),
                reference,
                "shards={shards} flight={flight} must reproduce the traced-timer run"
            );
        }
    }
}
