//! Shared rack-ring storm workload for the sharded-engine benchmarks and
//! the F5 scaling figure.
//!
//! The fabric is [`rdv_netsim::topo::build_rack_ring`]: `racks` top-of-rack
//! switches in a trunk ring, `hosts_per_rack` hosts each, one region (=
//! shard candidate) per rack. The traffic mixes the two classes the
//! sharded engine distinguishes:
//!
//! * **intra-rack bounces** — every host storms its switch with a `burst`
//!   of packets and bounces each echo until its budget is spent; rack =
//!   region, so this parallelizes freely inside lookahead windows;
//! * **trunk relays** — every switch launches hop-bounded ring packets
//!   that cross shard boundaries and exercise the barrier merge.
//!
//! [`run_fabric_observed`] returns the event count and final clock, which
//! together fingerprint the run: the engine guarantees they are identical
//! for every shard count, and every harness built on this module asserts
//! it.

use rdv_netsim::topo::build_rack_ring;
use rdv_netsim::trace::{EventId, Tracer};
use rdv_netsim::{LinkSpec, Node, NodeCtx, Observe, Packet, PortId, Sim, SimConfig, SimTime};

/// Workload shape: fabric size and per-node traffic budgets.
#[derive(Debug, Clone, Copy)]
pub struct FabricSpec {
    /// Top-of-rack switches in the trunk ring.
    pub racks: usize,
    /// Hosts under each switch.
    pub hosts_per_rack: usize,
    /// Packets each host launches at start.
    pub burst: u64,
    /// Echo bounces each host serves before going quiet.
    pub bounces: u64,
    /// Ring packets each switch launches at start.
    pub ring_packets: u64,
    /// Trunk hops each ring packet survives.
    pub ring_hops: u64,
}

impl FabricSpec {
    /// Total host count (`racks * hosts_per_rack`).
    pub fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }
}

/// Host edge link: 500 ns / 8 Gbps.
pub fn host_link() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_nanos(500),
        bandwidth_bps: 8_000_000_000,
        queue_bytes: 1 << 20,
        loss_permille: 0,
    }
}

/// Inter-switch trunk link: 2 µs / 40 Gbps.
pub fn trunk_link() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 40_000_000_000,
        queue_bytes: 1 << 22,
        loss_permille: 0,
    }
}

/// Storms its uplink (port 0) and bounces every echo until spent. Each
/// host's whole bounce chain is one `fabric.storm` span rooted at start:
/// under sampled tracing a kept host records every echo leg of its chain
/// and an unsampled host records nothing, which is what makes tracing
/// affordable on the 100 k-host F5 fabrics.
struct StormHost {
    index: u64,
    burst: u64,
    remaining: u64,
    span: Option<EventId>,
}

impl Node for StormHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.trace.sample("fabric.storm", self.index);
        self.span = ctx.trace.span_begin("fabric.storm", self.index);
        for i in 0..self.burst {
            ctx.send(PortId(0), Packet::new(vec![0u8; 64], i));
        }
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(port, packet);
            if self.remaining == 0 {
                ctx.trace.span_end("fabric.storm", self.span.take());
            }
        }
    }
    fn name(&self) -> &str {
        "host"
    }
}

/// Echoes host traffic; relays trunk traffic to the next switch in the
/// ring until the packet's hop budget (carried in `trace`) is spent.
struct RingSwitch {
    host_ports: usize,
    next_trunk: PortId,
    ring_packets: u64,
    ring_hops: u64,
}

impl Node for RingSwitch {
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

/// One full fabric storm at `shards`, unobserved. Kept with this
/// signature for rdvperf, whose sources change only in `[benchmark]`
/// PRs; ROADMAP item 1's PR retires it.
pub fn run_fabric(spec: &FabricSpec, seed: u64, shards: usize) -> (u64, u64) {
    run_fabric_observed(spec, seed, shards, Observe::default()).0
}

/// `(fingerprint, Some((tracer, node names)) when a trace was observed)`.
type StormOutput = ((u64, u64), Option<(Tracer, Vec<String>)>);

/// One full fabric storm at `shards` with `observe` armed. Returns
/// `(events, final clock ns)` — the run fingerprint, identical for every
/// shard count and every observer — and, when a trace was observed, the
/// ring plus display names indexed by node id for the Perfetto export.
/// Under a sampled trace, hosts whose `fabric.storm` chain wins the
/// verdict record their full bounce chain and every other host records
/// nothing.
pub fn run_fabric_observed(
    spec: &FabricSpec,
    seed: u64,
    shards: usize,
    observe: Observe,
) -> StormOutput {
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    let traced = observe.trace.is_some();
    sim.observe(observe);
    let hpr = spec.hosts_per_rack;
    let (ring_packets, ring_hops) = (spec.ring_packets, spec.ring_hops);
    let (burst, bounces) = (spec.burst, spec.bounces);
    let ring = build_rack_ring(
        &mut sim,
        spec.racks,
        hpr,
        |_| {
            Box::new(RingSwitch {
                host_ports: hpr,
                // Host links are wired first, so the first trunk port is
                // the one towards the next switch in the ring.
                next_trunk: PortId(hpr),
                ring_packets,
                ring_hops,
            })
        },
        |i| Box::new(StormHost { index: i as u64, burst, remaining: bounces, span: None }),
        host_link(),
        trunk_link(),
    );
    let events = sim.run_until_idle();
    debug_assert_eq!(ring.hosts.len(), spec.hosts());
    let traced = traced.then(|| {
        let count = ring.switches.len() + ring.hosts.len();
        let mut names = vec![String::new(); count];
        for (r, &id) in ring.switches.iter().enumerate() {
            names[id.0] = format!("sw{r}");
        }
        for (i, &id) in ring.hosts.iter().enumerate() {
            names[id.0] = format!("h{}.{}", i / hpr, i % hpr);
        }
        (sim.take_tracer(), names)
    });
    ((events, sim.now().as_nanos()), traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FabricSpec = FabricSpec {
        racks: 4,
        hosts_per_rack: 3,
        burst: 4,
        bounces: 20,
        ring_packets: 8,
        ring_hops: 12,
    };

    #[test]
    fn storm_fingerprint_is_shard_invariant() {
        let flat = run_fabric(&SPEC, 7, 1);
        assert!(flat.0 > 0 && flat.1 > 0);
        for shards in [2usize, 4, 8] {
            assert_eq!(run_fabric(&SPEC, 7, shards), flat, "shards={shards}");
        }
    }

    #[test]
    fn workload_knobs_change_the_fingerprint() {
        let base = run_fabric(&SPEC, 7, 1);
        let bigger = run_fabric(&FabricSpec { bounces: 40, ..SPEC }, 7, 1);
        assert!(bigger.0 > base.0, "more bounces must mean more events");
    }
}
