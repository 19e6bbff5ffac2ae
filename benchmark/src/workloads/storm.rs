//! `storm_100k`: the engine alone, at the smallest packet size and the
//! largest footprint.
//!
//! 256 racks × 400 hosts on `netsim::topo::build_rack_ring`. Every host
//! keeps two 64 B packets bouncing off its rack switch (closed loop, two
//! outstanding); every switch launches 128 B laps around the trunk ring.
//! No protocol code runs: the nodes below only echo, so host time is the
//! calendar queue, engine dispatch and link admission.
//!
//! The traffic is the rack-ring storm of `rdv_bench::fabric` (same bursts,
//! bounces and laps — the equivalence test holds the two to the same
//! `(events, clock)`), with per-op latency recorded at the hosts.

use rdv_netsim::topo::{build_rack_ring, RackRing};
use rdv_netsim::trace::EventId;
use rdv_netsim::{LinkSpec, Node, NodeCtx, Packet, PortId, Sim, SimConfig, SimTime};

use super::{engine_counts, jittered, Env, Outcome, Prepared, ReplayState, Workload};
use crate::tap::{node_ref, Kind};

/// Fabric size and per-node traffic budgets.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Top-of-rack switches in the trunk ring.
    pub racks: usize,
    /// Hosts under each switch.
    pub hosts_per_rack: usize,
    /// Packets each host keeps outstanding.
    pub burst: u64,
    /// Echoes each host re-sends before letting its packets drain.
    pub bounces: u64,
    /// Trunk laps each switch launches.
    pub ring_packets: u64,
    /// Trunk hops each lap survives.
    pub ring_hops: u64,
    /// Host edge link.
    pub host_link: LinkSpec,
    /// Inter-switch trunk link.
    pub trunk_link: LinkSpec,
}

impl StormSpec {
    /// The benchmark's fabric for `seed` at `scale`: ≈ 7 M events (the
    /// issue's 10 M shrunk to fit six repetitions into the run budget).
    /// Nothing in the storm is random; the seed reaches it through the
    /// host links' cable-length jitter (see [`jittered`]).
    pub fn benchmark(seed: u64, env: &Env) -> StormSpec {
        StormSpec {
            racks: env.scaled(256, 4) as usize,
            hosts_per_rack: 400,
            burst: 2,
            bounces: 22,
            ring_packets: 16,
            ring_hops: 512,
            host_link: jittered(
                LinkSpec {
                    latency: SimTime::from_nanos(500),
                    bandwidth_bps: 8_000_000_000,
                    queue_bytes: 1 << 20,
                    loss_permille: 0,
                },
                seed,
            ),
            trunk_link: LinkSpec {
                latency: SimTime::from_micros(2),
                bandwidth_bps: 40_000_000_000,
                queue_bytes: 1 << 22,
                loss_permille: 0,
            },
        }
    }

    /// Total host count.
    pub fn hosts(&self) -> u64 {
        (self.racks * self.hosts_per_rack) as u64
    }

    /// Echo ops the run performs: every packet a host sends comes back.
    pub fn ops(&self) -> u64 {
        self.hosts() * (self.burst + self.bounces)
    }

    /// Events the run must process, in closed form: each host packet is
    /// delivered once at the switch and once back at the host; each lap is
    /// delivered `ring_hops + 1` times.
    pub fn expected_events(&self) -> u64 {
        2 * self.ops() + self.racks as u64 * self.ring_packets * (self.ring_hops + 1)
    }
}

/// Keeps `burst` packets bouncing off its uplink until `remaining`
/// re-sends are spent, timing every echo.
pub struct EchoHost {
    index: u64,
    burst: u64,
    remaining: u64,
    sent_at: Vec<u64>,
    open: Vec<Option<EventId>>,
    /// Simulated echo latencies, nanoseconds, in completion order.
    pub latencies: Vec<u32>,
    /// When the last echo arrived.
    pub last_done: u64,
}

impl EchoHost {
    fn new(index: u64, burst: u64, bounces: u64) -> EchoHost {
        EchoHost {
            index,
            burst,
            remaining: bounces,
            sent_at: vec![0; burst as usize],
            open: vec![None; burst as usize],
            latencies: Vec::with_capacity((burst + bounces) as usize),
            last_done: 0,
        }
    }

    fn send(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let slot = packet.trace as usize;
        self.sent_at[slot] = ctx.now.as_nanos();
        self.open[slot] = ctx.trace.span_begin("fabric.storm", self.index);
        ctx.send(port, packet);
    }
}

impl Node for EchoHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.trace.sample("fabric.storm", self.index);
        for i in 0..self.burst {
            self.send(ctx, PortId(0), Packet::new(vec![0u8; 64], i));
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let slot = packet.trace as usize;
        let now = ctx.now.as_nanos();
        ctx.trace.span_end("fabric.storm", self.open[slot].take());
        self.latencies.push((now - self.sent_at[slot]) as u32);
        self.last_done = now;
        if self.remaining > 0 {
            self.remaining -= 1;
            self.send(ctx, port, packet);
        }
    }

    fn name(&self) -> &str {
        "host"
    }
}

/// Echoes host traffic; relays trunk laps to the next switch in the ring
/// until the lap's hop budget (carried in `trace`) is spent.
pub struct EchoSwitch {
    host_ports: usize,
    next_trunk: PortId,
    ring_packets: u64,
    ring_hops: u64,
}

impl Node for EchoSwitch {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for _ in 0..self.ring_packets {
            ctx.send(self.next_trunk, Packet::new(vec![0u8; 128], self.ring_hops));
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        if port.0 < self.host_ports {
            ctx.send(port, packet);
        } else if packet.trace > 0 {
            ctx.send(self.next_trunk, Packet::new(packet.payload, packet.trace - 1));
        }
    }

    fn name(&self) -> &str {
        "switch"
    }
}

/// Build the storm fabric for `spec`.
pub fn build(spec: &StormSpec, seed: u64, env: &Env) -> (Sim, RackRing) {
    let mut sim = Sim::new(SimConfig { seed, shards: env.shards, ..Default::default() });
    env.arm_tracing(&mut sim);
    let hpr = spec.hosts_per_rack;
    let ring = build_rack_ring(
        &mut sim,
        spec.racks,
        hpr,
        |_| {
            env.wrap.node(
                Kind::Echo,
                EchoSwitch {
                    host_ports: hpr,
                    // Host links are wired first, so the first trunk port
                    // leads to the next switch in the ring.
                    next_trunk: PortId(hpr),
                    ring_packets: spec.ring_packets,
                    ring_hops: spec.ring_hops,
                },
            )
        },
        |i| env.wrap.node(Kind::Echo, EchoHost::new(i as u64, spec.burst, spec.bounces)),
        spec.host_link,
        spec.trunk_link,
    );
    (sim, ring)
}

/// The `storm_100k` workload.
pub struct Storm100k;

impl Workload for Storm100k {
    fn name(&self) -> &'static str {
        "storm_100k"
    }

    fn why(&self) -> &'static str {
        "102400 echo hosts, 64 B packets, no protocol code: the engine's queue, dispatch and link admission at the footprint where events/s falls off"
    }

    fn setup(&self, seed: u64, env: &Env) -> Box<dyn Prepared> {
        let spec = env.phases.phase("setup.generate", || StormSpec::benchmark(seed, env));
        let (sim, ring) = env.phases.phase("setup.build", || build(&spec, seed, env));
        Box::new(StormRun { spec, sim, ring })
    }
}

struct StormRun {
    spec: StormSpec,
    sim: Sim,
    ring: RackRing,
}

impl Prepared for StormRun {
    fn run(&mut self) {
        self.sim.run_until_idle();
    }

    fn collect(&mut self) -> Outcome {
        let mut out = Outcome { attempted: self.spec.ops(), ..Outcome::default() };
        out.latencies_ns.reserve(self.spec.ops() as usize);
        for &id in &self.ring.hosts {
            let host = node_ref::<EchoHost>(&self.sim, id);
            out.latencies_ns.extend(host.latencies.iter().map(|&l| u64::from(l)));
            out.sim_span_ns = out.sim_span_ns.max(host.last_done);
        }
        out.completed = out.latencies_ns.len() as u64;
        engine_counts(&self.sim, &mut out);
        out
    }

    fn check(&mut self, outcome: &Outcome) -> Result<(), String> {
        let events = outcome.count("sim.events");
        if events != self.spec.expected_events() {
            return Err(format!(
                "storm processed {events} events, closed form says {}",
                self.spec.expected_events()
            ));
        }
        Ok(())
    }

    fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn replay_state(&mut self) -> ReplayState {
        let host = self.spec.host_link;
        let trunk = self.spec.trunk_link;
        ReplayState {
            queue_delays_ns: vec![
                (host.latency + host.tx_time(64)).as_nanos(),
                (trunk.latency + trunk.tx_time(128)).as_nanos(),
            ],
            queue_resident: (self.spec.hosts() * self.spec.burst
                + self.spec.racks as u64 * self.spec.ring_packets)
                as usize,
            ..ReplayState::default()
        }
    }
}
