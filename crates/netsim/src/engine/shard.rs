//! One shard of the engine: the nodes it owns and everything a worker
//! thread does with them inside a window — event execution, link
//! admission, the shard-audit checks, and the recording calls.

use rand::rngs::StdRng;
use rdv_trace::{DropReason, EventId, EventKind as TraceKind, Recorder, TraceCtx};

use super::{EvData, EvKind, Globals, TimerRec};
use crate::audit::{ShardAudit, ShardAuditKind};
use crate::link::Direction;
use crate::node::{Node, NodeCtx, NodeId, PortId};
use crate::packet::Packet;
use crate::queue::{CalendarQueue, EventKey};
use crate::stats::{
    Counters, SIM_DELIVERIES_DROPPED_CRASH, SIM_EVENTS, SIM_PACKETS_DELIVERED, SIM_PACKETS_DROPPED,
    SIM_PACKETS_DROPPED_BAD_PORT, SIM_PACKETS_DROPPED_DEAD_NODE, SIM_PACKETS_DROPPED_LINK_DOWN,
    SIM_PACKETS_DROPPED_PARTITION, SIM_PACKETS_LOST, SIM_PACKETS_SENT, SIM_TIMERS,
    SIM_TIMERS_DROPPED_CRASH,
};
use crate::time::SimTime;

/// A shard's pending events, in two queues under one total order: timers
/// with no trace provenance ride a queue of 40 B [`TimerRec`] entries,
/// everything else (deliveries, traced timers) the 80 B [`EvData`] one.
/// [`ShardQueue::pop`] takes the smaller [`EventKey`] of the two heads, so
/// the pop order is the one a single queue of both would give.
pub(super) struct ShardQueue {
    events: CalendarQueue<EvData>,
    timers: CalendarQueue<TimerRec>,
}

impl ShardQueue {
    pub(super) fn new() -> ShardQueue {
        ShardQueue { events: CalendarQueue::new(0, 0), timers: CalendarQueue::new(0, 0) }
    }

    /// Queue a delivery.
    pub(super) fn push(&mut self, key: EventKey, data: EvData) {
        self.events.push(key, data);
    }

    /// Queue a timer: onto the timer queue unless it carries provenance.
    pub(super) fn push_timer(&mut self, key: EventKey, t: TimerRec, trace: Option<EventId>) {
        match trace {
            None => self.timers.push(key, t),
            Some(_) => {
                let kind = EvKind::Timer { node: t.node, tag: t.tag, epoch: t.epoch };
                self.events.push(key, EvData { kind, trace });
            }
        }
    }

    /// The smallest key queued, if any.
    pub(super) fn peek(&self) -> Option<EventKey> {
        let event = self.events.peek();
        if self.timers.is_empty() {
            return event;
        }
        event.into_iter().chain(self.timers.peek()).min()
    }

    /// Remove and return the smallest-keyed event.
    pub(super) fn pop(&mut self) -> Option<(EventKey, EvData)> {
        if self.timers.is_empty() {
            return self.events.pop();
        }
        let timer = self.timers.peek();
        if self.events.peek().is_some_and(|k| Some(k) < timer) {
            return self.events.pop();
        }
        let (key, TimerRec { tag, node, epoch }) = self.timers.pop()?;
        Some((key, EvData { kind: EvKind::Timer { node, tag, epoch }, trace: None }))
    }

    /// Number of queued events.
    pub(super) fn len(&self) -> usize {
        self.events.len() + self.timers.len()
    }

    /// True when nothing is queued.
    pub(super) fn is_empty(&self) -> bool {
        self.events.is_empty() && self.timers.is_empty()
    }

    /// Capacity, in entries, of every buffer the event queue and the
    /// timer queue keep.
    #[cfg(test)]
    pub(super) fn retained_capacity(&self) -> (usize, usize) {
        (self.events.retained_capacity(), self.timers.retained_capacity())
    }
}

/// One spatial partition of the simulation: the nodes it owns, their RNG
/// streams and timers, the link directions they transmit on, and a local
/// event queue. During a parallel window a worker thread owns the shard
/// exclusively and reads [`Globals`] immutably.
pub(super) struct Shard {
    pub(super) idx: usize,
    /// Local index → global node id.
    pub(super) gids: Vec<u32>,
    pub(super) nodes: Vec<Box<dyn Node>>,
    pub(super) rngs: Vec<StdRng>,
    /// Per local node: events scheduled so far — the per-source sequence
    /// component of [`EventKey`], independent of shard layout.
    pub(super) node_seq: Vec<u64>,
    /// Per local node: timers armed and not yet fired or discarded, for
    /// the `node.pending_timers` gauge.
    pub(super) pending_timers: Vec<u64>,
    /// Direction arena for links whose source node lives here.
    pub(super) dirs: Vec<Direction>,
    pub(super) queue: ShardQueue,
    /// This shard's slice of the engine counters; folded into
    /// [`super::Sim::counters`] at barriers.
    pub(super) counters: Counters,
    /// Packets admitted here minus packets delivered/dropped here. Signed:
    /// a receiver decrements what a cross-shard sender incremented, so
    /// only the sum over shards is meaningful.
    pub(super) inflight: i64,
    /// Time of the last event this shard processed (ns).
    pub(super) clock_ns: u64,
    /// Events processed in the current window (collected at the barrier).
    pub(super) window_done: u64,
    /// Cross-shard sends buffered during a window: (destination shard,
    /// key, event), merged into destination queues at the barrier.
    pub(super) outbox: Vec<(u32, EventKey, EvData)>,
    /// Scratch buffers lent to [`NodeCtx`] for each callback, so the event
    /// loop allocates nothing in steady state. Each entry carries the
    /// causal provenance snapshotted when the node queued it.
    pub(super) scratch_sends: Vec<(PortId, Packet, Option<EventId>)>,
    pub(super) scratch_timers: Vec<(SimTime, u64, Option<EventId>)>,
    /// Ownership race detector state (see [`super::Observe::audit`]).
    /// `None` unless armed: every check site costs one `is_some` branch.
    pub(super) audit: Option<Box<ShardAudit>>,
}

impl Shard {
    pub(super) fn new(idx: usize) -> Shard {
        Shard {
            idx,
            gids: Vec::new(),
            nodes: Vec::new(),
            rngs: Vec::new(),
            node_seq: Vec::new(),
            pending_timers: Vec::new(),
            dirs: Vec::new(),
            queue: ShardQueue::new(),
            counters: Counters::new(),
            inflight: 0,
            clock_ns: 0,
            window_done: 0,
            outbox: Vec::new(),
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
            audit: None,
        }
    }

    /// shard-audit: tag the event being executed and assert this shard
    /// owns its destination node's state. A mis-routed event (the bug an
    /// outbox bypass plants) surfaces here even if the bypass itself went
    /// unobserved — the non-owner ends up executing it.
    #[track_caller]
    fn audit_begin_event(&mut self, g: &Globals, key: EventKey, node: u32) {
        let Some(a) = self.audit.as_deref_mut() else { return };
        a.current = Some(key);
        let owner = g.nodes[node as usize].shard;
        if owner != self.idx as u32 {
            a.record(
                ShardAuditKind::ForeignState,
                key.at,
                self.idx as u32,
                owner,
                format!("executed an event for node {node}, whose state shard {owner} owns"),
            );
        }
    }

    /// shard-audit: resolve the RNG slot for a dispatch (applying any
    /// seeded alias fault) and assert the stream belongs to the node
    /// being dispatched. Returns the slot the dispatch must draw from.
    #[track_caller]
    fn audit_check_rng(&mut self, gid: u32, local: usize) -> usize {
        let Some(a) = self.audit.as_deref_mut() else { return local };
        let slot = match a.rng_alias {
            Some((from, to)) if from == local => to,
            _ => local,
        };
        let owner = a.rng_owner[slot];
        if owner != gid {
            let at = self.clock_ns;
            let shard = self.idx as u32;
            a.record(
                ShardAuditKind::RngStreamShared,
                at,
                shard,
                shard,
                format!("dispatch for node {gid} drew from the RNG stream owned by node {owner}"),
            );
        }
        slot
    }

    /// shard-audit: vet one routed send. Applies any seeded fault (outbox
    /// bypass, lookahead violation), then asserts the cross-shard
    /// discipline: an event pushed onto the local queue must target a
    /// node this shard owns, and a cross-shard event produced inside a
    /// parallel window must be due no earlier than the window's end (the
    /// conservative-lookahead contract). Returns whether the event goes
    /// onto the local queue.
    #[track_caller]
    fn audit_route_send(
        &mut self,
        key: &mut EventKey,
        dst: u32,
        dst_shard: u32,
        to_self: bool,
    ) -> bool {
        let Some(a) = self.audit.as_deref_mut() else { return to_self };
        let mut to_self = to_self;
        if a.fault_bypass_outbox && !to_self {
            // Seeded bug: skip the outbox and push straight onto our
            // own queue, as a broken routing path would.
            a.fault_bypass_outbox = false;
            to_self = true;
        }
        if a.fault_violate_lookahead && !to_self && a.in_window {
            // Seeded bug: schedule the cross-shard arrival "now",
            // ignoring the link latency that funds the lookahead.
            a.fault_violate_lookahead = false;
            key.at = self.clock_ns;
        }
        if to_self {
            if dst_shard != self.idx as u32 {
                a.record(
                    ShardAuditKind::OutboxBypass,
                    key.at,
                    self.idx as u32,
                    dst_shard,
                    format!(
                        "event for node {dst} (owned by shard {dst_shard}) pushed onto shard {}'s \
                         local queue, skipping the outbox barrier",
                        self.idx
                    ),
                );
            }
        } else if a.in_window && key.at < a.window_end_ns {
            a.record(
                ShardAuditKind::LookaheadViolation,
                key.at,
                self.idx as u32,
                dst_shard,
                format!(
                    "cross-shard event for node {dst} due at t={}ns, inside the current window \
                     (end {}ns) — the destination may already have executed past it",
                    key.at, a.window_end_ns
                ),
            );
        }
        to_self
    }

    /// shard-audit: assert a timer being armed belongs to a node this
    /// shard owns (timers are always local state; a foreign one means
    /// the dispatch itself ran on the wrong shard).
    #[track_caller]
    fn audit_check_timer(&mut self, g: &Globals, gid: u32, at: u64) {
        let Some(a) = self.audit.as_deref_mut() else { return };
        let owner = g.nodes[gid as usize].shard;
        if owner != self.idx as u32 {
            a.record(
                ShardAuditKind::ForeignState,
                at,
                self.idx as u32,
                owner,
                format!("armed a timer for node {gid}, whose state shard {owner} owns"),
            );
        }
    }

    /// Count and record one packet that will never be delivered.
    fn drop_packet(
        &mut self,
        rec: &mut Recorder<'_>,
        at: u64,
        node: u32,
        reason: DropReason,
        cause: Option<EventId>,
        fault: Option<EventId>,
    ) {
        self.counters.inc_id(match reason {
            DropReason::BadPort => SIM_PACKETS_DROPPED_BAD_PORT,
            DropReason::LinkDown => SIM_PACKETS_DROPPED_LINK_DOWN,
            DropReason::DeadNode => SIM_PACKETS_DROPPED_DEAD_NODE,
            DropReason::Partition => SIM_PACKETS_DROPPED_PARTITION,
            DropReason::Loss => SIM_PACKETS_LOST,
            DropReason::QueueFull => SIM_PACKETS_DROPPED,
            DropReason::Crash => SIM_DELIVERIES_DROPPED_CRASH,
        });
        rec.record_caused(at, node, TraceKind::PacketDrop(reason), cause, fault);
    }

    /// Next event key for an event sourced by local node `local` (global
    /// id `gid`). Source 0 is reserved for the external scheduler.
    fn next_key(&mut self, at: u64, gid: u32, local: usize) -> EventKey {
        let seq = self.node_seq[local];
        self.node_seq[local] += 1;
        EventKey { at, src: gid + 1, seq }
    }

    /// Process queued events with `at < end_ns`, up to `cap` of them.
    pub(super) fn process_window(
        &mut self,
        g: &Globals,
        rec: &mut Recorder<'_>,
        end_ns: u64,
        cap: u64,
    ) {
        let mut done = 0u64;
        while done < cap && self.queue.peek().is_some_and(|k| k.at < end_ns) {
            self.process_one(g, rec);
            done += 1;
        }
        self.window_done = done;
    }

    /// Pop and execute the shard's smallest event. The caller must have
    /// peeked a key.
    pub(super) fn process_one(&mut self, g: &Globals, rec: &mut Recorder<'_>) {
        let (key, ev) = self.queue.pop().expect("caller peeked an event");
        debug_assert!(key.at >= self.clock_ns, "time must not run backwards");
        self.clock_ns = key.at;
        if self.audit.is_some() {
            let node = match &ev.kind {
                EvKind::Deliver { node, .. } | EvKind::Timer { node, .. } => *node,
            };
            self.audit_begin_event(g, key, node);
        }
        self.counters.inc_id(SIM_EVENTS);
        match ev.kind {
            EvKind::Deliver { node, port, packet, epoch } => {
                self.inflight -= 1;
                let to = &g.nodes[node as usize];
                if !to.alive || epoch != to.epoch {
                    // Destination crashed after admission: the packet
                    // evaporates with the incarnation it targeted.
                    let fault = g.crash_trace.get(&node).copied();
                    self.drop_packet(rec, key.at, node, DropReason::Crash, ev.trace, fault);
                } else {
                    self.counters.inc_id(SIM_PACKETS_DELIVERED);
                    let deliver = rec.record_caused(
                        key.at,
                        node,
                        TraceKind::PacketDeliver { port },
                        ev.trace,
                        None,
                    );
                    let port = PortId(port as usize);
                    self.dispatch(g, node, deliver, rec, |n, ctx| n.on_packet(ctx, port, packet));
                }
            }
            EvKind::Timer { node, tag, epoch } => {
                let to = &g.nodes[node as usize];
                self.pending_timers[to.local as usize] -= 1;
                if !to.alive || epoch != to.epoch {
                    self.counters.inc_id(SIM_TIMERS_DROPPED_CRASH);
                    let fault = g.crash_trace.get(&node).copied();
                    rec.record_caused(key.at, node, TraceKind::TimerDrop { tag }, ev.trace, fault);
                } else {
                    self.counters.inc_id(SIM_TIMERS);
                    let fire = rec.record_caused(
                        key.at,
                        node,
                        TraceKind::TimerFire { tag },
                        ev.trace,
                        None,
                    );
                    self.dispatch(g, node, fire, rec, |n, ctx| n.on_timer(ctx, tag));
                }
            }
        }
    }

    /// Run one node callback against the shard-owned scratch buffers and
    /// apply whatever it queued. The buffers are `mem::take`n around the
    /// callback so their capacity is reused event after event — the loop's
    /// steady state performs no heap allocation.
    pub(super) fn dispatch(
        &mut self,
        g: &Globals,
        gid: u32,
        cause: Option<EventId>,
        rec: &mut Recorder<'_>,
        f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    ) {
        let this = &g.nodes[gid as usize];
        let local = this.local as usize;
        let rng_slot = if self.audit.is_some() { self.audit_check_rng(gid, local) } else { local };
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        sends.clear();
        timers.clear();
        {
            let mut ctx = NodeCtx {
                id: NodeId(gid as usize),
                now: SimTime::from_nanos(self.clock_ns),
                port_count: this.port_count as usize,
                rng: &mut self.rngs[rng_slot],
                trace: TraceCtx::new(rec.reborrow(), self.clock_ns, gid, cause),
                sends: &mut sends,
                timers: &mut timers,
            };
            f(self.nodes[local].as_mut(), &mut ctx);
        }
        self.apply_actions(g, gid, local, rec, &mut sends, &mut timers);
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Admit queued sends onto their links and arm queued timers. Each
    /// queued action carries the causal provenance snapshotted when the
    /// node issued it — the dispatch event in full-trace mode, the live
    /// span anchor in sampled mode.
    #[allow(clippy::too_many_arguments)]
    fn apply_actions(
        &mut self,
        g: &Globals,
        gid: u32,
        local: usize,
        rec: &mut Recorder<'_>,
        sends: &mut Vec<(PortId, Packet, Option<EventId>)>,
        timers: &mut Vec<(SimTime, u64, Option<EventId>)>,
    ) {
        let now = SimTime::from_nanos(self.clock_ns);
        let now_ns = self.clock_ns;
        let from = &g.nodes[gid as usize];
        for (port, packet, cause) in sends.drain(..) {
            self.counters.inc_id(SIM_PACKETS_SENT);
            // The enqueue event roots this packet's causal chain at the
            // provenance the node captured when it sent.
            let enq = rec.record_caused(
                now_ns,
                gid,
                TraceKind::PacketEnqueue { port: port.0 as u32, bytes: packet.wire_len() as u32 },
                cause,
                None,
            );
            // Why the packet never reaches the wire, if it does not, and
            // the fault event behind that when there is one.
            let refused = 'admit: {
                let Some(&link_id) = g.ports(from).get(port.0) else {
                    break 'admit Some((DropReason::BadPort, None));
                };
                let link = &g.links[link_id as usize];
                let Some((dir, dst, dst_port)) = link.direction_from(gid, port.0 as u32) else {
                    break 'admit Some((DropReason::BadPort, None));
                };
                // Fault gates, checked before the loss roll so injected
                // faults never perturb the RNG stream of surviving traffic
                // paths.
                if link.down {
                    let fault = g.link_fault_trace.get(&link_id).copied();
                    break 'admit Some((DropReason::LinkDown, fault));
                }
                let to = &g.nodes[dst as usize];
                if !to.alive {
                    break 'admit Some((DropReason::DeadNode, g.crash_trace.get(&dst).copied()));
                }
                if g.active_partitions > 0 {
                    let (a, b) = (NodeId(gid as usize), NodeId(dst as usize));
                    if let Some(p) = g.blocking_partition(a, b) {
                        break 'admit Some((DropReason::Partition, g.partition_fault_trace[p]));
                    }
                }
                let class = &g.classes[link.class as usize];
                let loss = link.loss_override.unwrap_or(class.spec.loss_permille);
                if loss > 0 {
                    use rand::Rng;
                    // The roll comes from the *sending* node's stream, so
                    // it is independent of shard layout and of other nodes.
                    if self.rngs[local].gen_range(0..1000u32) < u32::from(loss) {
                        break 'admit Some((DropReason::Loss, None));
                    }
                }
                let latency = class.spec.latency;
                let slot = link.dir_slot[dir] as usize;
                let Some(arrival) =
                    self.dirs[slot].admit(&class.rate, latency, now, packet.wire_len())
                else {
                    break 'admit Some((DropReason::QueueFull, None));
                };
                self.inflight += 1;
                // Timestamp the transmit at serialization completion
                // (arrival minus propagation), so queue wait and wire time
                // separate cleanly on critical paths.
                let trace = rec.record_caused(
                    (arrival - latency).as_nanos(),
                    gid,
                    TraceKind::PacketTransmit,
                    enq,
                    None,
                );
                let mut key = self.next_key(arrival.as_nanos(), gid, local);
                let data = EvData {
                    kind: EvKind::Deliver { node: dst, port: dst_port, packet, epoch: to.epoch },
                    trace,
                };
                let dst_shard = to.shard;
                let mut to_self = dst_shard as usize == self.idx;
                if self.audit.is_some() {
                    to_self = self.audit_route_send(&mut key, dst, dst_shard, to_self);
                }
                if to_self {
                    self.queue.push(key, data);
                } else {
                    self.outbox.push((dst_shard, key, data));
                }
                None
            };
            if let Some((reason, fault)) = refused {
                self.drop_packet(rec, now_ns, gid, reason, enq, fault);
            }
        }
        let epoch = from.epoch;
        for (at, tag, cause) in timers.drain(..) {
            self.pending_timers[local] += 1;
            let trace = rec.record_caused(now_ns, gid, TraceKind::TimerSet { tag }, cause, None);
            let key = self.next_key(at.as_nanos(), gid, local);
            if self.audit.is_some() {
                self.audit_check_timer(g, gid, key.at);
            }
            self.queue.push_timer(key, TimerRec { tag, node: gid, epoch }, trace);
        }
    }
}
