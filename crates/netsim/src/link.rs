//! Point-to-point links.
//!
//! A link is full duplex: each direction has independent serialization
//! (bandwidth), propagation (latency), and a bounded FIFO queue with tail
//! drop. The queueing model is the standard fluid one: a direction keeps a
//! `next_free` time; a packet of `S` bytes arriving at `t` begins
//! serializing at `max(t, next_free)`, occupies the transmitter for
//! `S/bandwidth`, and arrives `latency` after serialization completes.
//! Backlog in bytes is `(next_free − t) · bandwidth`; if admitting the
//! packet would push the backlog past the queue capacity, it is dropped.

use crate::time::SimTime;

/// Identifies a link within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Physical parameters of a link (applied to both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub latency: SimTime,
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Queue capacity in bytes (per direction). Packets that would overflow
    /// it are tail-dropped.
    pub queue_bytes: u64,
    /// Random loss rate in packets per mille (0 = lossless). Losses are
    /// drawn from the simulation RNG, so runs stay deterministic per seed.
    pub loss_permille: u16,
}

impl LinkSpec {
    /// A rack-class link: 5 µs propagation, 100 Gb/s, 512 KiB buffer —
    /// the defaults used by the paper-testbed topology.
    pub fn rack() -> LinkSpec {
        LinkSpec {
            latency: SimTime::from_micros(5),
            bandwidth_bps: 100_000_000_000,
            queue_bytes: 512 * 1024,
            loss_permille: 0,
        }
    }

    /// A slower edge/WAN-ish link: 200 µs, 1 Gb/s, 256 KiB buffer.
    pub fn edge() -> LinkSpec {
        LinkSpec {
            latency: SimTime::from_micros(200),
            bandwidth_bps: 1_000_000_000,
            queue_bytes: 256 * 1024,
            loss_permille: 0,
        }
    }

    /// This link with a random-loss rate (for failure-injection tests).
    pub fn with_loss(self, loss_permille: u16) -> LinkSpec {
        LinkSpec { loss_permille, ..self }
    }

    /// Serialization time for `bytes` on this link.
    pub fn tx_time(&self, bytes: usize) -> SimTime {
        // ns = bytes * 8 * 1e9 / bps, computed without overflow for any
        // realistic packet (u128 intermediate).
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimTime::from_nanos(ns as u64)
    }
}

/// Rate constants derived from a [`LinkSpec`] once, when the link is
/// attached — so per-packet admission control needs no runtime division
/// (a `u128` divide by the bandwidth was the single most expensive
/// arithmetic on the event loop's packet path).
///
/// The queue bound is restated in the time domain: a backlog of `B` bytes
/// equals `B · ps_per_byte / 1000` ns of serialization, so
/// `backlog_bytes + bytes > queue_bytes` becomes
/// `backlog_ns + tx_ns > queue_ns` — the identical comparison scaled by a
/// constant, and exact for every bandwidth that divides 8·10¹² bits/s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkRate {
    /// Picoseconds to serialize one byte.
    pub ps_per_byte: u64,
    /// Queue capacity expressed as serialization time (ns).
    pub queue_ns: u64,
}

impl LinkRate {
    /// Precompute the constants for `spec`.
    pub fn from_spec(spec: &LinkSpec) -> LinkRate {
        let ps_per_byte = 8_000_000_000_000u64 / spec.bandwidth_bps.max(1);
        let queue_ns = ((spec.queue_bytes as u128 * ps_per_byte as u128) / 1000) as u64;
        LinkRate { ps_per_byte, queue_ns }
    }

    /// Serialization time for `bytes` (division only by the constant 1000,
    /// which compiles to a multiply).
    #[inline]
    pub fn tx_time(&self, bytes: usize) -> SimTime {
        SimTime::from_nanos(((bytes as u128 * self.ps_per_byte as u128) / 1000) as u64)
    }
}

/// One direction of a link's runtime state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Direction {
    /// Time the transmitter becomes free.
    pub next_free: SimTime,
    /// Cumulative serialization time admitted (ns) — the metrics plane
    /// differences this per sample window for the utilization gauge.
    pub busy_ns: u64,
}

impl Direction {
    /// Try to admit a packet of `bytes` at time `now`. Returns the arrival
    /// time at the far end, or `None` if the queue is full (tail drop).
    #[inline]
    pub fn admit(
        &mut self,
        rate: &LinkRate,
        latency: SimTime,
        now: SimTime,
        bytes: usize,
    ) -> Option<SimTime> {
        let backlog_ns = self.next_free.saturating_sub(now).as_nanos();
        let tx = rate.tx_time(bytes);
        if backlog_ns + tx.as_nanos() > rate.queue_ns {
            return None;
        }
        let done = self.next_free.max(now) + tx;
        self.next_free = done;
        self.busy_ns += tx.as_nanos();
        Some(done + latency)
    }
}

/// One interned link class: a spec and the admission constants derived
/// from it. Links that share a spec share one class, so a link carries a
/// 4-byte class index instead of 48 bytes of copies.
#[derive(Debug)]
pub(crate) struct LinkClass {
    pub spec: LinkSpec,
    pub rate: LinkRate,
}

/// A link instance: endpoints, class, and fault state. The mutable
/// per-direction transmitter state ([`Direction`]) is *not* stored here —
/// the engine keeps each direction in the shard that owns its source
/// node, so shards can admit packets in parallel without sharing state
/// (only a direction's source node ever writes it).
#[derive(Debug)]
pub(crate) struct Link {
    /// Index of this link's [`LinkClass`] in the engine's class table.
    pub class: u32,
    /// (node, port) pairs for the two ends: `ends[0]` ↔ `ends[1]`.
    pub ends: [(u32, u32); 2],
    /// Each direction's slot in its owner shard's `dirs` arena. Direction
    /// `d` is owned by the shard of `ends[d].0`: only the *source* node of
    /// a direction ever writes it, so ownership follows the sender.
    pub dir_slot: [u32; 2],
    /// Administratively down (fault injection): admissions are refused.
    pub down: bool,
    /// Fault-injected loss rate overriding the spec's `loss_permille`
    /// while set.
    pub loss_override: Option<u16>,
}

impl Link {
    /// Index of the direction whose *source* is `(from, from_port)`, and
    /// the far end as `(node, port)`.
    pub fn direction_from(&self, from: u32, from_port: u32) -> Option<(usize, u32, u32)> {
        if self.ends[0] == (from, from_port) {
            Some((0, self.ends[1].0, self.ends[1].1))
        } else if self.ends[1] == (from, from_port) {
            Some((1, self.ends[0].0, self.ends[0].1))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec {
            latency: SimTime::from_micros(10),
            bandwidth_bps: 8_000_000_000, // 1 byte/ns
            queue_bytes: 3_000,
            loss_permille: 0,
        }
    }

    #[test]
    fn tx_time_is_size_over_bandwidth() {
        let s = spec();
        assert_eq!(s.tx_time(1000), SimTime::from_nanos(1000));
        assert_eq!(s.tx_time(0), SimTime::ZERO);
        // 100 Gb/s: 1500 B ≈ 120 ns.
        assert_eq!(LinkSpec::rack().tx_time(1500), SimTime::from_nanos(120));
    }

    #[test]
    fn rate_matches_spec_math() {
        // The precomputed constants must reproduce LinkSpec::tx_time for
        // every bandwidth the repo's scenarios use.
        for bps in [1_000_000_000u64, 8_000_000_000, 100_000_000_000] {
            let s = LinkSpec { bandwidth_bps: bps, ..spec() };
            let r = LinkRate::from_spec(&s);
            for bytes in [0usize, 1, 64, 1000, 1500, 65536] {
                assert_eq!(r.tx_time(bytes), s.tx_time(bytes), "{bps} bps / {bytes} B");
            }
        }
    }

    #[test]
    fn idle_link_arrival_is_tx_plus_latency() {
        let s = spec();
        let r = LinkRate::from_spec(&s);
        let mut d = Direction::default();
        let arrival = d.admit(&r, s.latency, SimTime::from_nanos(100), 1000).unwrap();
        // start 100, tx 1000, latency 10000.
        assert_eq!(arrival, SimTime::from_nanos(100 + 1000 + 10_000));
        assert_eq!(d.next_free, SimTime::from_nanos(1100));
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let s = spec();
        let r = LinkRate::from_spec(&s);
        let mut d = Direction::default();
        let a1 = d.admit(&r, s.latency, SimTime::ZERO, 1000).unwrap();
        let a2 = d.admit(&r, s.latency, SimTime::ZERO, 1000).unwrap();
        assert_eq!(a2 - a1, SimTime::from_nanos(1000), "second waits for first's tx");
    }

    #[test]
    fn queue_overflow_drops() {
        let s = spec(); // 3000-byte queue
        let r = LinkRate::from_spec(&s);
        let mut d = Direction::default();
        assert!(d.admit(&r, s.latency, SimTime::ZERO, 1500).is_some());
        assert!(d.admit(&r, s.latency, SimTime::ZERO, 1500).is_some());
        // Backlog is now 3000 bytes: the third packet overflows.
        assert!(d.admit(&r, s.latency, SimTime::ZERO, 1500).is_none());
        // After the first drains, admission works again.
        assert!(d.admit(&r, s.latency, SimTime::from_nanos(1600), 1500).is_some());
    }

    #[test]
    fn direction_lookup() {
        let link = Link {
            class: 0,
            ends: [(1, 0), (2, 3)],
            dir_slot: [0, 0],
            down: false,
            loss_override: None,
        };
        assert_eq!(link.direction_from(1, 0), Some((0, 2, 3)));
        assert_eq!(link.direction_from(2, 3), Some((1, 1, 0)));
        assert_eq!(link.direction_from(3, 0), None);
        // A node's other port on the same link is not an end.
        assert_eq!(link.direction_from(1, 3), None);
    }
}
