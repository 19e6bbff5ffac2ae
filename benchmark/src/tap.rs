//! `Tap<N>`: the benchmark-owned wrapper every traced node is boxed in.
//!
//! A tap forwards each [`Node`] method to the node it wraps and measures
//! the call from outside: per call class (node kind × method) it keeps the
//! call count and the host time spent, plus bounded, deterministic
//! reservoirs of individual call spans and of the packet payloads it saw.
//! The crates under test are not touched — the seam is the `Node` trait
//! the engine already dispatches through.
//!
//! The same wrapper injects the calibration delay of `rdvperf calibrate`
//! (a fixed busy-wait per `on_packet`) and roots sampled trace chains for
//! node types that never call `TraceCtx::sample` themselves.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rdv_netsim::metrics::{AuditScope, MetricSample};
use rdv_netsim::{Node, NodeCtx, NodeId, Packet, PortId, Sim};

/// Node kinds the per-layer `node.*` metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `rdv_discovery::HostNode`.
    Host,
    /// `rdv_p4rt::pipeline::SwitchNode`.
    Switch,
    /// `rdv_core::runtime::GasHostNode`.
    GasHost,
    /// The storm workload's own echo hosts and ring switches.
    Echo,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 4] = [Kind::Host, Kind::Switch, Kind::GasHost, Kind::Echo];

    /// The `<kind>` part of `node.<kind>_ns_per_call`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Switch => "switch",
            Kind::GasHost => "gashost",
            Kind::Echo => "echo",
        }
    }
}

/// The `Node` methods a tap times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Node::on_packet`.
    Packet,
    /// `Node::on_timer`.
    Timer,
    /// `Node::on_start` and `Node::on_restart`.
    Start,
}

impl Call {
    /// Every call class, in span-name order.
    pub const ALL: [Call; 3] = [Call::Packet, Call::Timer, Call::Start];

    /// The method name used in span names.
    pub fn name(self) -> &'static str {
        match self {
            Call::Packet => "on_packet",
            Call::Timer => "on_timer",
            Call::Start => "on_start",
        }
    }
}

/// Most call spans and payloads kept per run; when a reservoir fills, every
/// second entry is dropped and the keep-stride doubles, so the kept set is
/// an even, deterministic thinning of the whole run.
const RESERVOIR_CAP: usize = 4096;

/// One sampled node call.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    /// Node kind.
    pub kind: Kind,
    /// Method.
    pub call: Call,
    /// Engine node id.
    pub node: u32,
    /// Start, nanoseconds since the sink was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// One sampled packet as a node received it.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Kind of the receiving node.
    pub kind: Kind,
    /// Wire bytes.
    pub payload: Vec<u8>,
}

/// A bounded, evenly thinned sample of a stream. Items are offered in
/// stream order; item `n` is kept when `n` is a multiple of the current
/// stride, and the stride doubles each time the kept set fills.
struct Thinned<T> {
    seen: AtomicU64,
    /// `stride − 1`; an item is a candidate when `n & mask == 0`.
    mask: AtomicU64,
    kept: Mutex<Vec<T>>,
}

impl<T> Default for Thinned<T> {
    fn default() -> Self {
        Thinned { seen: AtomicU64::new(0), mask: AtomicU64::new(0), kept: Mutex::new(Vec::new()) }
    }
}

impl<T: Clone> Thinned<T> {
    /// Offer the next item; `make` runs only when it is kept, so unsampled
    /// items cost one counter increment and no lock.
    fn offer(&self, make: impl FnOnce() -> T) {
        let n = self.seen.fetch_add(1, Relaxed);
        if n & self.mask.load(Relaxed) != 0 {
            return;
        }
        let mut kept = self.kept.lock().expect("tap thread panicked");
        if kept.len() == RESERVOIR_CAP {
            let mut i = 0;
            kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            let mask = (self.mask.load(Relaxed) << 1) | 1;
            self.mask.store(mask, Relaxed);
            if n & mask != 0 {
                return;
            }
        }
        kept.push(make());
    }

    fn kept(&self) -> Vec<T> {
        self.kept.lock().expect("tap thread panicked").clone()
    }
}

#[derive(Default)]
struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Where the taps of one traced run record. Shared by every tap of the
/// run; the engine runs them on one thread (`shards = 1`), so the atomics
/// are uncontended and the reservoir lock is taken only for kept samples.
pub struct TapSink {
    epoch: Instant,
    stats: [[CallStats; 3]; 4],
    spans: Thinned<CallSpan>,
    payloads: Thinned<Captured>,
}

impl Default for TapSink {
    fn default() -> Self {
        TapSink {
            epoch: Instant::now(),
            stats: Default::default(),
            spans: Thinned::default(),
            payloads: Thinned::default(),
        }
    }
}

impl TapSink {
    /// When this sink was created: the zero of every span of the run, node
    /// calls and (via `Phases::since`) phase brackets alike.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since this sink was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `(calls, total host ns)` of one call class.
    pub fn class(&self, kind: Kind, call: Call) -> (u64, u64) {
        let s = &self.stats[kind as usize][call as usize];
        (s.calls.load(Relaxed), s.ns.load(Relaxed))
    }

    /// `(calls, total host ns)` of a node kind over all methods.
    pub fn kind_total(&self, kind: Kind) -> (u64, u64) {
        Call::ALL.iter().fold((0, 0), |(c, n), &call| {
            let (dc, dn) = self.class(kind, call);
            (c + dc, n + dn)
        })
    }

    /// Host ns inside any tapped node — the children of `run.sim`.
    pub fn node_ns(&self) -> u64 {
        Kind::ALL.iter().map(|&k| self.kind_total(k).1).sum()
    }

    /// The sampled individual calls, in call order.
    pub fn call_spans(&self) -> Vec<CallSpan> {
        self.spans.kept()
    }

    /// The sampled packet payloads, in arrival order.
    pub fn payloads(&self) -> Vec<Captured> {
        self.payloads.kept()
    }

    fn record(&self, kind: Kind, call: Call, node: u32, start_ns: u64, end_ns: u64) {
        let s = &self.stats[kind as usize][call as usize];
        s.calls.fetch_add(1, Relaxed);
        s.ns.fetch_add(end_ns - start_ns, Relaxed);
        self.spans.offer(|| CallSpan { kind, call, node, start_ns, end_ns });
    }

    fn capture(&self, kind: Kind, packet: &Packet) {
        self.payloads.offer(|| Captured { kind, payload: packet.payload.to_vec() });
    }
}

/// Busy-wait for `iters` rounds of a dependent xorshift chain (about a
/// nanosecond each; `rdvperf calibrate` measures the real figure).
#[inline(never)]
pub fn spin(iters: u32) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// A node wrapped for measurement, calibration or trace rooting.
pub struct Tap<N: Node> {
    inner: N,
    kind: Kind,
    sink: Option<Arc<TapSink>>,
    spin_iters: u32,
    root_timers_below: u64,
    /// `on_packet` calls by ingress port (ports past the array share its
    /// last slot) — how a workload tells host-originated packets from
    /// switch-to-switch forwards without looking inside the switch.
    pub by_port: [u64; 8],
}

impl<N: Node> Tap<N> {
    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: Node> Node for Tap<N> {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        self.by_port[port.0.min(7)] += 1;
        if self.spin_iters > 0 {
            spin(self.spin_iters);
        }
        match &self.sink {
            None => self.inner.on_packet(ctx, port, packet),
            Some(sink) => {
                sink.capture(self.kind, &packet);
                let t0 = sink.now_ns();
                self.inner.on_packet(ctx, port, packet);
                sink.record(self.kind, Call::Packet, ctx.id.0 as u32, t0, sink.now_ns());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag < self.root_timers_below {
            // The wrapped node opens a span for this operation but never
            // asks the sampler; ask on its behalf so kept operations record.
            ctx.trace.sample("core.script", (tag << 20) | (ctx.id.0 as u64 & 0xF_FFFF));
        }
        match &self.sink {
            None => self.inner.on_timer(ctx, tag),
            Some(sink) => {
                let t0 = sink.now_ns();
                self.inner.on_timer(ctx, tag);
                sink.record(self.kind, Call::Timer, ctx.id.0 as u32, t0, sink.now_ns());
            }
        }
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match &self.sink {
            None => self.inner.on_start(ctx),
            Some(sink) => {
                let t0 = sink.now_ns();
                self.inner.on_start(ctx);
                sink.record(self.kind, Call::Start, ctx.id.0 as u32, t0, sink.now_ns());
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        match &self.sink {
            None => self.inner.on_restart(ctx),
            Some(sink) => {
                let t0 = sink.now_ns();
                self.inner.on_restart(ctx);
                sink.record(self.kind, Call::Start, ctx.id.0 as u32, t0, sink.now_ns());
            }
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        self.inner.sample_metrics(m);
    }

    fn audit(&self, a: &mut AuditScope<'_>) {
        self.inner.audit(a);
    }
}

/// How a workload boxes its nodes: plain for the end-to-end run, tapped
/// for the traced run, spinning for `calibrate`.
#[derive(Clone, Default)]
pub struct Wrap {
    sink: Option<Arc<TapSink>>,
    spin: Option<(Kind, u32)>,
    root_timers_below: u64,
}

impl Wrap {
    /// Box nodes as they are.
    pub fn plain() -> Wrap {
        Wrap::default()
    }

    /// Box every node in a tap recording into `sink`.
    pub fn tapped(sink: Arc<TapSink>) -> Wrap {
        Wrap { sink: Some(sink), ..Wrap::default() }
    }

    /// Box nodes of `kind` in a tap that busy-waits `iters` spin rounds
    /// per `on_packet` (0 rounds: the same wrapper, no wait — the
    /// calibration baseline), and every other node as it is.
    pub fn spinning(kind: Kind, iters: u32) -> Wrap {
        Wrap { spin: Some((kind, iters)), ..Wrap::default() }
    }

    /// Additionally have `GasHost` taps root a sampled `core.script` chain
    /// for timer tags below `limit` (script-start tags).
    pub fn rooting_scripts(mut self, limit: u64) -> Wrap {
        self.root_timers_below = limit;
        self
    }

    /// Box `node`, wrapped as this `Wrap` prescribes for its `kind`.
    pub fn node<N: Node>(&self, kind: Kind, node: N) -> Box<dyn Node> {
        let spin_iters = self.spin.filter(|&(k, _)| k == kind).map(|(_, iters)| iters);
        let root = if kind == Kind::GasHost { self.root_timers_below } else { 0 };
        if self.sink.is_none() && spin_iters.is_none() && root == 0 {
            return Box::new(node);
        }
        let spin_iters = spin_iters.unwrap_or(0);
        Box::new(Tap {
            inner: node,
            kind,
            sink: self.sink.clone(),
            spin_iters,
            root_timers_below: root,
            by_port: [0; 8],
        })
    }
}

/// Borrow node `id` as an `N`, whether or not it was boxed in a tap.
pub fn node_ref<N: Node>(sim: &Sim, id: NodeId) -> &N {
    sim.node_as::<N>(id)
        .or_else(|| sim.node_as::<Tap<N>>(id).map(Tap::inner))
        .expect("node has the type its workload gave it")
}

/// `on_packet` calls by ingress port of node `id`, when it is tapped.
pub fn port_calls<N: Node>(sim: &Sim, id: NodeId) -> Option<[u64; 8]> {
    sim.node_as::<Tap<N>>(id).map(|t| t.by_port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_thins_evenly_and_stays_bounded() {
        let r = Thinned::<u64>::default();
        for i in 0..(RESERVOIR_CAP as u64 * 5) {
            r.offer(|| i);
        }
        let kept = r.kept();
        assert!(kept.len() <= RESERVOIR_CAP && kept.len() >= RESERVOIR_CAP / 2);
        let stride = r.mask.load(Relaxed) + 1;
        assert!(stride >= 4, "five fills must have doubled the stride at least twice");
        assert!(kept.iter().all(|v| v % stride == 0), "kept set is the stride-aligned subset");
        assert!(kept.windows(2).all(|w| w[1] - w[0] == stride), "and it is contiguous");
    }
}
