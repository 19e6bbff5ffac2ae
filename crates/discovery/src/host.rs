//! Host behaviour: issuing object accesses, serving owned objects, and
//! migrating objects between hosts.
//!
//! One [`HostNode`] type plays both roles of the paper's testbed (*"one VM
//! drove accesses to objects and the other two responded"*): give it an
//! access plan and it drives; give it objects and it responds. Hosts have a
//! single uplink port (port 0).

use rdv_det::DetMap;
use std::sync::OnceLock;

use rdv_gossip::{ctr as gossip_ctr, GossipConfig, GossipSync};
use rdv_memproto::msg::{Msg, MsgBody, NackCode};
use rdv_netsim::metrics::{AuditScope, MetricSample};
use rdv_netsim::trace::EventId;
use rdv_netsim::{CounterId, Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::{ObjId, Object, ObjectStore};

use crate::destcache::DestCache;
use crate::CONTROLLER_INBOX;

/// Interned ids for the host's counters, resolved once per process so the
/// packet path never interns (or hashes) a counter name.
struct HostCtr {
    broadcasts: CounterId,
    serves: CounterId,
    nacks_received: CounterId,
    access_timeouts: CounterId,
    accesses_abandoned: CounterId,
    migrations_done: CounterId,
    invalidates_sent: CounterId,
    corrupt_pushes: CounterId,
    advertises_sent: CounterId,
    decode_errors: CounterId,
}

fn ctr() -> &'static HostCtr {
    static IDS: OnceLock<HostCtr> = OnceLock::new();
    IDS.get_or_init(|| HostCtr {
        broadcasts: CounterId::intern("broadcasts"),
        serves: CounterId::intern("serves"),
        nacks_received: CounterId::intern("nacks_received"),
        access_timeouts: CounterId::intern("access_timeouts"),
        accesses_abandoned: CounterId::intern("accesses_abandoned"),
        migrations_done: CounterId::intern("migrations_done"),
        invalidates_sent: CounterId::intern("invalidates_sent"),
        corrupt_pushes: CounterId::intern("corrupt_pushes"),
        advertises_sent: CounterId::intern("advertises_sent"),
        decode_errors: CounterId::intern("decode_errors"),
    })
}

/// Which discovery scheme the host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// Decentralized: destination cache + broadcast discovery.
    E2E,
    /// Centralized: advertise to the SDN controller; access unicast on
    /// object IDs directly.
    Controller,
}

/// How E2E hosts find out that a cached location went stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessMode {
    /// The migrating host broadcasts an `Invalidate` at move time; a later
    /// access is then an ordinary miss: discovery + access = 2 RTTs. This
    /// matches the 1→2 RTT shape of the paper's Figure 3.
    InvalidateOnMove,
    /// Nothing is broadcast; the stale unicast access reaches the old
    /// holder, which NACKs, and the requester rediscovers: 3 legs. Reported
    /// as an ablation in EXPERIMENTS.md.
    NackRediscover,
}

/// Host configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Discovery scheme.
    pub mode: DiscoveryMode,
    /// Staleness handling (E2E only).
    pub staleness: StalenessMode,
    /// Bytes read per access.
    pub read_len: u64,
    /// Fixed request-service delay at the responder (models host software).
    pub serve_delay: SimTime,
    /// Re-send an in-flight access when no reply (data, discovery answer,
    /// or NACK) arrives within this window — the defence against holders
    /// that die silently. `ZERO` disables the watchdog; progress then
    /// relies on NACKs alone and a dead holder wedges the access forever.
    pub access_timeout: SimTime,
    /// Timeout-driven re-sends before an access gives up and surfaces a
    /// typed failure in [`HostNode::failed`].
    pub max_access_retries: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            mode: DiscoveryMode::E2E,
            staleness: StalenessMode::InvalidateOnMove,
            read_len: 64,
            serve_delay: SimTime::from_micros(2),
            access_timeout: SimTime::ZERO,
            max_access_retries: 5,
        }
    }
}

/// One completed access, for the experiment series.
#[derive(Debug, Clone, Copy)]
pub struct AccessRecord {
    /// The object accessed.
    pub target: ObjId,
    /// When the access was issued.
    pub issued: SimTime,
    /// When the data arrived.
    pub completed: SimTime,
    /// Broadcast discoveries this access required.
    pub broadcasts: u64,
    /// NACKs (stale unicasts) this access hit.
    pub nacks: u64,
    /// The access span-end event (`discovery.access`, or `load.batch` on
    /// load-harness writers), when tracing was enabled — the anchor
    /// critical-path extraction walks back from.
    pub trace_end: Option<EventId>,
}

impl AccessRecord {
    /// End-to-end access latency.
    pub fn latency(&self) -> SimTime {
        self.completed.saturating_sub(self.issued)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingState {
    Discovering,
    Reading,
}

#[derive(Debug)]
struct Pending {
    target: ObjId,
    issued: SimTime,
    state: PendingState,
    broadcasts: u64,
    nacks: u64,
    retries: u64,
    /// The holder the in-flight unicast was addressed to, so a timeout or
    /// NACK never "repairs" back to the address that just failed.
    last_holder: Option<ObjId>,
    /// The `discovery.access` span-begin, when tracing was enabled.
    span: Option<EventId>,
}

/// Why an access gave up, surfaced in [`HostNode::failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessFailure {
    /// No reply of any kind arrived within the retry budget — the holder
    /// is presumed dead or unreachable.
    TimedOut,
    /// Every attempt was NACKed `NotHere`; the fabric never converged on
    /// the object's location.
    Nacked,
}

/// A typed record of an access that could not complete. The invariant the
/// chaos harness checks is exactly this: every issued access either lands
/// in [`HostNode::records`] or lands here — never in limbo.
#[derive(Debug, Clone, Copy)]
pub struct FailedAccess {
    /// The object whose access failed.
    pub target: ObjId,
    /// When the access was issued.
    pub issued: SimTime,
    /// Re-sends (or NACK rounds) burned before giving up.
    pub retries: u64,
    /// Why it gave up.
    pub reason: AccessFailure,
}

/// Timer-tag spaces (disjoint bit ranges so external schedulers can drive
/// accesses and migrations through `Sim::schedule`).
pub mod tags {
    /// Tags below this are indices into the access plan.
    pub const ACCESS_LIMIT: u64 = 1 << 40;
    /// OR this bit: index into the migration plan.
    pub const MIGRATE: u64 = 1 << 61;
    /// OR this bit: internal deferred-reply id.
    pub const DEFER: u64 = 1 << 62;
    /// OR this bit: retry a NACKed controller-mode access (the req id is in
    /// the low bits); used while the controller repoints a moved object.
    pub const RETRY: u64 = 1 << 60;
    /// OR this bit: the access watchdog — fires if the req in the low bits
    /// has seen no reply within [`super::HostConfig::access_timeout`].
    pub const ACCESS_TIMEOUT: u64 = 1 << 59;
    /// The gossip anti-entropy round timer (no payload bits).
    pub const GOSSIP: u64 = 1 << 58;
}

/// A host in the object fabric.
pub struct HostNode {
    label: String,
    inbox: ObjId,
    cfg: HostConfig,
    /// Objects whose authoritative copy lives here.
    pub store: ObjectStore,
    /// E2E destination cache.
    pub dest_cache: DestCache,
    /// Access plan: timer tag `i` starts an access to `plan[i]`.
    pub plan: Vec<ObjId>,
    /// Migration plan: timer tag `MIGRATE | i` pushes `migrations[i].0` to
    /// the host whose inbox is `migrations[i].1`.
    pub migrations: Vec<(ObjId, ObjId)>,
    pending: DetMap<u64, Pending>,
    deferred: DetMap<u64, Msg>,
    next_req: u64,
    next_trace: u64,
    next_defer: u64,
    /// Journal-synchronized discovery (DESIGN.md §12), when enabled:
    /// holder facts gossip between neighbours instead of flooding, and
    /// stale cache entries repair from the local journal.
    pub gossip: Option<GossipSync>,
    /// Open `gossip.sync` spans keyed by peer inbox: begun at digest send,
    /// ended when that peer's delta lands.
    gossip_spans: DetMap<u128, Option<EventId>>,
    /// Completed accesses, in completion order.
    pub records: Vec<AccessRecord>,
    /// Accesses that gave up, with typed reasons, in failure order.
    pub failed: Vec<FailedAccess>,
    /// Host counters: `broadcasts`, `nacks_received`, `serves`,
    /// `invalidates_sent`, `migrations_done`, `advertises_sent`.
    pub counters: rdv_netsim::Counters,
    /// Label accesses as replicated-log batches: the per-access span
    /// becomes `load.batch` (issue→ack) instead of `discovery.access`,
    /// sampled under its own class, and each completed batch marks
    /// `load.head_advance` with the head object — the writer's log head
    /// moved. Set by the load harness on writer nodes.
    pub load_spans: bool,
}

impl HostNode {
    /// Create a host. `inbox` is its network identity.
    pub fn new(label: impl Into<String>, inbox: ObjId, cfg: HostConfig) -> HostNode {
        HostNode {
            label: label.into(),
            inbox,
            cfg,
            store: ObjectStore::new(),
            dest_cache: DestCache::new(),
            plan: Vec::new(),
            migrations: Vec::new(),
            pending: DetMap::new(),
            deferred: DetMap::new(),
            next_req: 1,
            next_trace: 1,
            next_defer: 0,
            gossip: None,
            gossip_spans: DetMap::new(),
            records: Vec::new(),
            failed: Vec::new(),
            counters: rdv_netsim::Counters::new(),
            load_spans: false,
        }
    }

    /// The host's inbox object ID.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    /// Accesses still awaiting completion.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Switch this host to journal-synchronized discovery: it journals its
    /// own holdings as `replica` and anti-entropies with the peers added
    /// via [`HostNode::add_gossip_peer`]. Call before the sim starts.
    pub fn enable_gossip(&mut self, replica: u64, cfg: GossipConfig) {
        self.gossip = Some(GossipSync::new(self.inbox, replica, cfg));
    }

    /// Register a gossip neighbour, optionally relay-first through `relay`
    /// (the Aura transport strategy: preferred path with priority fallback
    /// to the direct route when the relay partitions away).
    pub fn add_gossip_peer(&mut self, peer: ObjId, relay: Option<ObjId>) {
        if let Some(g) = self.gossip.as_mut() {
            g.add_peer(peer, relay);
        }
    }

    /// Journal every locally held object as a fact written by us, and join
    /// the membership set (called from `on_start`/`on_restart`).
    fn journal_holdings(&mut self, now: SimTime) {
        let Some(g) = self.gossip.as_mut() else { return };
        g.journal.join_member(self.inbox);
        let mut ids = self.store.ids();
        ids.sort(); // deterministic journal write order
        for obj in ids {
            g.journal.record_holder(obj, self.inbox, now.as_nanos());
        }
    }

    /// Arm the anti-entropy round timer (crash discards timers, so both
    /// `on_start` and `on_restart` come through here).
    fn arm_gossip(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(g) = &self.gossip {
            if g.peer_count() > 0 {
                ctx.set_timer(g.period(), tags::GOSSIP);
            }
        }
    }

    /// Run one gossip round: emit digests (one `gossip.round` span over
    /// the whole round, a `gossip.digest` mark plus one `gossip.sync` span
    /// per digest, closed when the peer's delta lands) and re-arm the
    /// timer.
    fn gossip_round(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(round) = self.gossip.as_ref().map(GossipSync::round) else { return };
        // One sampling decision per (node, round): a kept round roots a
        // chain that follows its digests, deltas, and repairs across the
        // fabric; a skipped round is entirely invisible.
        ctx.trace.sample("gossip.round", self.sample_origin(round));
        let round_span = ctx.trace.span_begin("gossip.round", round);
        let g = self.gossip.as_mut().expect("checked above");
        let msgs = g.on_round(ctx.now.as_nanos(), &mut self.counters);
        for msg in msgs {
            if let MsgBody::GossipDigest { target, .. } = &msg.body {
                ctx.trace.mark("gossip.digest", target.lo());
                let span = ctx.trace.span_begin("gossip.sync", target.lo());
                self.gossip_spans.insert(target.as_u128(), span);
            }
            self.transmit(ctx, msg);
        }
        ctx.trace.span_end("gossip.round", round_span);
        // Detach before re-arming: one sampled round must not causally
        // adopt every future round through the periodic timer chain.
        ctx.trace.detach();
        self.arm_gossip(ctx);
    }

    /// Feed a received gossip frame to the round machine and transmit
    /// whatever it answers (forwarded frame, delta, reciprocal delta).
    fn on_gossip(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        if let MsgBody::GossipDelta { target, .. } = &msg.body {
            if *target == self.inbox {
                ctx.trace.mark("gossip.delta", msg.header.src.lo());
                if let Some(span) = self.gossip_spans.remove(&msg.header.src.as_u128()) {
                    ctx.trace.span_end("gossip.sync", span);
                }
            }
        }
        let Some(g) = self.gossip.as_mut() else { return };
        let out = g.on_msg(&msg, &mut self.counters);
        for m in out {
            self.transmit(ctx, m);
        }
    }

    /// A holder for `target` the journal knows and we have not just failed
    /// against — the no-network repair path for stale cache entries.
    fn journal_repair(&mut self, target: ObjId, distrust: Option<ObjId>) -> Option<ObjId> {
        let holder = self.gossip.as_ref()?.journal.lookup(target)?;
        (holder != self.inbox && Some(holder) != distrust).then_some(holder)
    }

    /// Span class of an access on this host: writer batches trace as
    /// `load.batch`, ordinary accesses as `discovery.access`.
    fn access_span(&self) -> &'static str {
        if self.load_spans {
            "load.batch"
        } else {
            "discovery.access"
        }
    }

    /// Sampling origin stamp for the `seq`-th operation of a class on this
    /// host: pure in per-node state, so the sampler's verdict — and with
    /// it the kept-trace byte stream — is identical at any shard count or
    /// process layout.
    fn sample_origin(&self, seq: u64) -> u64 {
        (seq << 20) | (self.inbox.lo() & 0xF_FFFF)
    }

    fn fresh_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace += 1;
        t
    }

    fn transmit(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        let trace = self.fresh_trace();
        ctx.send(PortId(0), Packet::new(msg.encode(), trace));
    }

    fn transmit_deferred(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        if self.cfg.serve_delay == SimTime::ZERO {
            self.transmit(ctx, msg);
            return;
        }
        let id = self.next_defer;
        self.next_defer += 1;
        self.deferred.insert(id, msg);
        ctx.set_timer(self.cfg.serve_delay, tags::DEFER | id);
    }

    fn start_access(&mut self, ctx: &mut NodeCtx<'_>, target: ObjId) {
        let req = self.next_req;
        self.next_req += 1;
        let issued = ctx.now;
        ctx.trace.sample(self.access_span(), self.sample_origin(req));
        let span = ctx.trace.span_begin(self.access_span(), target.lo());
        match self.cfg.mode {
            DiscoveryMode::Controller => {
                self.pending.insert(
                    req,
                    Pending {
                        target,
                        issued,
                        state: PendingState::Reading,
                        broadcasts: 0,
                        nacks: 0,
                        retries: 0,
                        last_holder: None,
                        span,
                    },
                );
                let msg = Msg::new(
                    target,
                    self.inbox,
                    MsgBody::ReadReq { req, target, offset: 8, len: self.cfg.read_len },
                );
                self.transmit(ctx, msg);
            }
            DiscoveryMode::E2E => {
                // A cache miss consults the local journal before touching
                // the network: gossip usually delivered the fact already.
                let cached = self.dest_cache.lookup_at(target, ctx.now);
                let holder = cached.or_else(|| {
                    let repaired = self.journal_repair(target, None)?;
                    self.counters.inc_id(gossip_ctr().repair_hits);
                    ctx.trace.mark("gossip.repair", target.lo());
                    self.dest_cache.insert_at(target, repaired, ctx.now);
                    Some(repaired)
                });
                match holder {
                    Some(holder) => {
                        self.pending.insert(
                            req,
                            Pending {
                                target,
                                issued,
                                state: PendingState::Reading,
                                broadcasts: 0,
                                nacks: 0,
                                retries: 0,
                                last_holder: Some(holder),
                                span,
                            },
                        );
                        let msg = Msg::new(
                            holder,
                            self.inbox,
                            MsgBody::ReadReq { req, target, offset: 8, len: self.cfg.read_len },
                        );
                        self.transmit(ctx, msg);
                    }
                    None => {
                        self.pending.insert(
                            req,
                            Pending {
                                target,
                                issued,
                                state: PendingState::Discovering,
                                broadcasts: 1,
                                nacks: 0,
                                retries: 0,
                                last_holder: None,
                                span,
                            },
                        );
                        self.counters.inc_id(ctr().broadcasts);
                        ctx.trace.mark("discovery.broadcast", target.lo());
                        let msg = Msg::new(target, self.inbox, MsgBody::DiscoverReq { req });
                        self.transmit(ctx, msg);
                    }
                }
            }
        }
        self.arm_access_timeout(ctx, req);
    }

    fn arm_access_timeout(&mut self, ctx: &mut NodeCtx<'_>, req: u64) {
        if self.cfg.access_timeout > SimTime::ZERO {
            ctx.set_timer(self.cfg.access_timeout, tags::ACCESS_TIMEOUT | req);
        }
    }

    /// The watchdog fired for `req`: if it is still in flight, re-send (in
    /// E2E mode: distrust any cached location and rediscover); once the
    /// retry budget is gone, abandon with a typed [`FailedAccess`].
    fn handle_access_timeout(&mut self, ctx: &mut NodeCtx<'_>, req: u64) {
        let Some(&Pending { target, retries, .. }) = self.pending.get(&req) else {
            return; // Completed (or already failed) before the timer fired.
        };
        self.counters.inc_id(ctr().access_timeouts);
        if retries >= u64::from(self.cfg.max_access_retries) {
            let p = self.pending.remove(&req).expect("checked above");
            self.counters.inc_id(ctr().accesses_abandoned);
            self.failed.push(FailedAccess {
                target: p.target,
                issued: p.issued,
                retries: p.retries,
                reason: AccessFailure::TimedOut,
            });
            return;
        }
        match self.cfg.mode {
            DiscoveryMode::Controller => {
                self.pending.get_mut(&req).expect("checked above").retries += 1;
                ctx.trace.mark("discovery.retry", target.lo());
                let msg = Msg::new(
                    target,
                    self.inbox,
                    MsgBody::ReadReq { req, target, offset: 8, len: self.cfg.read_len },
                );
                self.transmit(ctx, msg);
            }
            DiscoveryMode::E2E => {
                // The holder (or its reply) vanished mid-access; whatever
                // location we believed is suspect.
                self.dest_cache.invalidate(target);
                let last = self.pending.get(&req).expect("checked above").last_holder;
                if let Some(holder) = self.journal_repair(target, last) {
                    // The journal already knows a newer holder (gossip
                    // outran the failure): retry unicast, no rediscovery.
                    self.counters.inc_id(gossip_ctr().repair_hits);
                    ctx.trace.mark("gossip.repair", target.lo());
                    self.dest_cache.insert_at(target, holder, ctx.now);
                    {
                        let p = self.pending.get_mut(&req).expect("checked above");
                        p.retries += 1;
                        p.state = PendingState::Reading;
                        p.last_holder = Some(holder);
                    }
                    let msg = Msg::new(
                        holder,
                        self.inbox,
                        MsgBody::ReadReq { req, target, offset: 8, len: self.cfg.read_len },
                    );
                    self.transmit(ctx, msg);
                } else {
                    // Nothing better known. Distrust the dead address fully:
                    // tombstone the fact (so no peer repairs back to it) and
                    // purge every cached route through that host — a crashed
                    // epoch must not serve repairs. Then rediscover.
                    if let (Some(dead), Some(g)) = (last, self.gossip.as_mut()) {
                        if g.journal.lookup(target) == Some(dead) {
                            g.journal.retire_holder(target, ctx.now.as_nanos());
                        }
                        self.dest_cache.purge_holder(dead);
                    }
                    {
                        let p = self.pending.get_mut(&req).expect("checked above");
                        p.retries += 1;
                        p.state = PendingState::Discovering;
                        p.broadcasts += 1;
                        p.last_holder = None;
                    }
                    self.counters.inc_id(ctr().broadcasts);
                    ctx.trace.mark("discovery.broadcast", target.lo());
                    let msg = Msg::new(target, self.inbox, MsgBody::DiscoverReq { req });
                    self.transmit(ctx, msg);
                }
            }
        }
        self.arm_access_timeout(ctx, req);
    }

    fn serve(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        let reply_to = msg.header.src;
        match msg.body {
            MsgBody::ReadReq { req, target, offset, len } => {
                // A flooded request may reach hosts it was not meant for:
                // only the holder serves it, and only the host the packet
                // was *addressed to* (inbox-routed stale unicast) NACKs it.
                let reply = match self.store.get(target) {
                    Ok(obj) => MsgBody::read_reply(obj, req, offset, len),
                    Err(_) if msg.header.dst == self.inbox => {
                        MsgBody::Nack { req, code: NackCode::NotHere }
                    }
                    Err(_) => return,
                };
                self.counters.inc_id(ctr().serves);
                self.transmit_deferred(ctx, Msg::new(reply_to, self.inbox, reply));
            }
            MsgBody::ObjImageReq { req, target } => {
                let reply = match self.store.get(target) {
                    Ok(obj) => MsgBody::ObjImageResp {
                        req,
                        version: obj.version(),
                        image: obj.to_image(),
                    },
                    Err(_) if msg.header.dst == self.inbox => {
                        MsgBody::Nack { req, code: NackCode::NotHere }
                    }
                    Err(_) => return,
                };
                self.counters.inc_id(ctr().serves);
                self.transmit_deferred(ctx, Msg::new(reply_to, self.inbox, reply));
            }
            MsgBody::DiscoverReq { req }
                // Routed (flooded) on the target object: dst names it.
                if self.store.contains(msg.header.dst) => {
                    let reply = MsgBody::DiscoverResp { req, holder_inbox: self.inbox };
                    self.transmit_deferred(ctx, Msg::new(reply_to, self.inbox, reply));
                }
            _ => {}
        }
    }

    fn complete(&mut self, ctx: &mut NodeCtx<'_>, req: u64, body: MsgBody) {
        let Some(mut p) = self.pending.remove(&req) else { return };
        match body {
            MsgBody::ReadResp { .. } => {
                let trace_end = ctx.trace.span_end(self.access_span(), p.span);
                if self.load_spans {
                    // The writer's view of this log head just advanced.
                    ctx.trace.mark("load.head_advance", p.target.lo());
                }
                self.records.push(AccessRecord {
                    target: p.target,
                    issued: p.issued,
                    completed: ctx.now,
                    broadcasts: p.broadcasts,
                    nacks: p.nacks,
                    trace_end,
                });
            }
            MsgBody::DiscoverResp { holder_inbox, .. } => {
                debug_assert_eq!(p.state, PendingState::Discovering);
                ctx.trace.mark("discovery.resolved", holder_inbox.lo());
                self.dest_cache.insert_at(p.target, holder_inbox, ctx.now);
                if let Some(g) = self.gossip.as_mut() {
                    // A discovery answer is a fresh fact: journal it so the
                    // whole neighbourhood learns it through anti-entropy
                    // instead of each host flooding its own rediscovery.
                    g.journal.record_holder(p.target, holder_inbox, ctx.now.as_nanos());
                }
                p.state = PendingState::Reading;
                p.last_holder = Some(holder_inbox);
                let msg = Msg::new(
                    holder_inbox,
                    self.inbox,
                    MsgBody::ReadReq { req, target: p.target, offset: 8, len: self.cfg.read_len },
                );
                self.pending.insert(req, p);
                self.transmit(ctx, msg);
            }
            MsgBody::Nack { code: NackCode::NotHere, .. } => {
                self.counters.inc_id(ctr().nacks_received);
                p.nacks += 1;
                ctx.trace.mark("discovery.stale_nack", p.target.lo());
                match self.cfg.mode {
                    DiscoveryMode::E2E => {
                        // Stale destination: forget it, then repair from the
                        // local journal when gossip already carried the
                        // object's new location — one extra unicast leg
                        // instead of a broadcast round.
                        self.dest_cache.invalidate(p.target);
                        if let Some(holder) = self.journal_repair(p.target, p.last_holder) {
                            self.counters.inc_id(gossip_ctr().repair_hits);
                            ctx.trace.mark("gossip.repair", p.target.lo());
                            self.dest_cache.insert_at(p.target, holder, ctx.now);
                            p.state = PendingState::Reading;
                            p.last_holder = Some(holder);
                            let msg = Msg::new(
                                holder,
                                self.inbox,
                                MsgBody::ReadReq {
                                    req,
                                    target: p.target,
                                    offset: 8,
                                    len: self.cfg.read_len,
                                },
                            );
                            self.pending.insert(req, p);
                            self.transmit(ctx, msg);
                            return;
                        }
                        p.broadcasts += 1;
                        p.state = PendingState::Discovering;
                        p.last_holder = None;
                        self.counters.inc_id(ctr().broadcasts);
                        ctx.trace.mark("discovery.broadcast", p.target.lo());
                        let msg = Msg::new(p.target, self.inbox, MsgBody::DiscoverReq { req });
                        self.pending.insert(req, p);
                        self.transmit(ctx, msg);
                    }
                    DiscoveryMode::Controller => {
                        // The object moved and the controller has not yet
                        // repointed the switches: back off and retry (give
                        // up after a bound so misrouted accesses surface).
                        if p.nacks > 10 {
                            self.counters.inc_id(ctr().accesses_abandoned);
                            self.failed.push(FailedAccess {
                                target: p.target,
                                issued: p.issued,
                                retries: p.nacks,
                                reason: AccessFailure::Nacked,
                            });
                            return;
                        }
                        self.pending.insert(req, p);
                        ctx.set_timer(SimTime::from_micros(100), tags::RETRY | req);
                    }
                }
            }
            MsgBody::Nack { code: NackCode::BadRange, .. } => {
                // A range NACK is permanent for this request shape —
                // retrying the identical read can only fail again. Surface
                // a typed failure instead of wedging the access.
                self.counters.inc_id(ctr().nacks_received);
                self.counters.inc_id(ctr().accesses_abandoned);
                self.failed.push(FailedAccess {
                    target: p.target,
                    issued: p.issued,
                    retries: p.nacks,
                    reason: AccessFailure::Nacked,
                });
            }
            MsgBody::Nack { code: NackCode::Overloaded, .. } => {
                // Transient server pushback: keep the request pending and
                // retry on the same timer the controller-mode stale path
                // uses.
                self.counters.inc_id(ctr().nacks_received);
                p.nacks += 1;
                self.pending.insert(req, p);
                ctx.set_timer(SimTime::from_micros(100), tags::RETRY | req);
            }
            _ => {
                // Unhandled completion: put the request back.
                self.pending.insert(req, p);
            }
        }
    }

    fn migrate(&mut self, ctx: &mut NodeCtx<'_>, index: usize) {
        let Some(&(obj, dest_inbox)) = self.migrations.get(index) else { return };
        let Ok(object) = self.store.remove(obj) else { return };
        self.counters.inc_id(ctr().migrations_done);
        ctx.trace.mark("discovery.migrate", obj.lo());
        let image = object.to_image();
        let version = object.version();
        // Push the image to the new holder (req 0 marks an unsolicited push).
        let push =
            Msg::new(dest_inbox, self.inbox, MsgBody::ObjImageResp { req: 0, version, image });
        self.transmit(ctx, push);
        if let Some(g) = self.gossip.as_mut() {
            // Journal the move: anti-entropy carries it to the fabric in
            // O(1) messages per round, so no invalidate broadcast.
            g.journal.record_holder(obj, dest_inbox, ctx.now.as_nanos());
        } else if self.cfg.mode == DiscoveryMode::E2E
            && self.cfg.staleness == StalenessMode::InvalidateOnMove
        {
            // Tell the fabric: cached locations for this object are stale.
            self.counters.inc_id(ctr().invalidates_sent);
            let inv = Msg::new(obj, self.inbox, MsgBody::Invalidate { version });
            self.transmit(ctx, inv);
        }
    }

    fn on_push(&mut self, ctx: &mut NodeCtx<'_>, image: Vec<u8>) {
        let Ok(object) = Object::from_image(&image) else {
            self.counters.inc_id(ctr().corrupt_pushes);
            return;
        };
        let obj = object.id();
        self.store.upsert(object);
        if let Some(g) = self.gossip.as_mut() {
            // We are the authoritative holder now; say so in the journal.
            g.journal.record_holder(obj, self.inbox, ctx.now.as_nanos());
        }
        if self.cfg.mode == DiscoveryMode::Controller {
            // Re-advertise so the controller repoints switch routes.
            self.counters.inc_id(ctr().advertises_sent);
            let adv = Msg::new(CONTROLLER_INBOX, self.inbox, MsgBody::Advertise { obj });
            self.transmit(ctx, adv);
        }
    }

    /// Advertise every locally stored object to the controller (called via
    /// `on_start` in controller mode).
    fn advertise_all(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.cfg.mode != DiscoveryMode::Controller {
            return;
        }
        let mut ids = self.store.ids();
        ids.sort(); // deterministic advertisement order
        for obj in ids {
            self.counters.inc_id(ctr().advertises_sent);
            let adv = Msg::new(CONTROLLER_INBOX, self.inbox, MsgBody::Advertise { obj });
            self.transmit(ctx, adv);
        }
    }
}

impl Node for HostNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.advertise_all(ctx);
        self.journal_holdings(ctx.now);
        self.arm_gossip(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // The crash discarded our timers; memory (journal, store) survived.
        // Bump the restart epoch so re-recorded facts are distinguishable
        // from the dead incarnation's, re-journal what we still hold, and
        // re-arm the anti-entropy pacing.
        if let Some(g) = self.gossip.as_mut() {
            g.journal.bump_epoch();
        }
        self.journal_holdings(ctx.now);
        self.arm_gossip(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(msg) = Msg::decode_bytes(&packet.payload) else {
            self.counters.inc_id(ctr().decode_errors);
            return;
        };
        match &msg.body {
            MsgBody::ReadReq { .. } | MsgBody::ObjImageReq { .. } | MsgBody::DiscoverReq { .. } => {
                self.serve(ctx, msg);
            }
            MsgBody::ReadResp { req, .. }
            | MsgBody::DiscoverResp { req, .. }
            | MsgBody::Nack { req, .. } => {
                let req = *req;
                // Request IDs are per-host: only completions addressed to
                // our inbox are ours (flooded copies may reach others).
                if req == 0 || msg.header.dst != self.inbox {
                    return;
                }
                self.complete(ctx, req, msg.body);
            }
            MsgBody::ObjImageResp { req: 0, image, .. } => {
                self.on_push(ctx, image.clone());
            }
            MsgBody::Invalidate { .. } => {
                // dst names the moved object.
                self.dest_cache.invalidate(msg.header.dst);
            }
            MsgBody::GossipDigest { .. } | MsgBody::GossipDelta { .. } => {
                self.on_gossip(ctx, msg);
            }
            // Explicitly ignored (D7): solicited images with a nonzero req
            // are not part of this protocol (reads complete via ReadResp),
            // and the remaining wire traffic — writes, upgrades, invokes,
            // directory invalidations, reliable-transport frames, and
            // controller advertisements — is addressed to other node kinds.
            MsgBody::ObjImageResp { .. }
            | MsgBody::WriteReq { .. }
            | MsgBody::WriteAck { .. }
            | MsgBody::ObjImageFrag { .. }
            | MsgBody::DirInvalidate { .. }
            | MsgBody::UpgradeReq { .. }
            | MsgBody::UpgradeAck { .. }
            | MsgBody::Advertise { .. }
            | MsgBody::Invoke { .. }
            | MsgBody::InvokeResult { .. }
            | MsgBody::RelData { .. }
            | MsgBody::RelAck { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag & tags::DEFER != 0 {
            if let Some(msg) = self.deferred.remove(&(tag & !tags::DEFER)) {
                self.transmit(ctx, msg);
            }
        } else if tag & tags::ACCESS_TIMEOUT != 0 {
            self.handle_access_timeout(ctx, tag & !tags::ACCESS_TIMEOUT);
        } else if tag & tags::GOSSIP != 0 {
            self.gossip_round(ctx);
        } else if tag & tags::RETRY != 0 {
            let req = tag & !tags::RETRY;
            if let Some(p) = self.pending.get(&req) {
                let msg = Msg::new(
                    p.target,
                    self.inbox,
                    MsgBody::ReadReq { req, target: p.target, offset: 8, len: self.cfg.read_len },
                );
                self.transmit(ctx, msg);
            }
        } else if tag & tags::MIGRATE != 0 {
            self.migrate(ctx, (tag & !tags::MIGRATE) as usize);
        } else if (tag as usize) < self.plan.len() {
            let target = self.plan[tag as usize];
            self.start_access(ctx, target);
        }
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        m.gauge("discovery.destcache_entries", self.dest_cache.len() as u64);
        m.windowed_ratio_pct(
            "discovery.destcache_hit_pct",
            self.dest_cache.hits,
            self.dest_cache.hits + self.dest_cache.misses,
        );
        m.gauge("discovery.pending_accesses", self.pending.len() as u64);
        m.rate_per_s("discovery.broadcast_rate", self.counters.get_id(ctr().broadcasts));
        if let Some(g) = &self.gossip {
            m.gauge("gossip.journal_entries", g.journal.len() as u64);
            m.rate_per_s("gossip.sync_rate", self.counters.get_id(gossip_ctr().rounds));
            m.gauge("gossip.repair_hits", self.counters.get_id(gossip_ctr().repair_hits));
        }
    }

    fn audit(&self, a: &mut AuditScope<'_>) {
        a.declare_inbox(self.inbox.as_u128());
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdv_netsim::{LinkSpec, Sim, SimConfig};
    use rdv_objspace::ObjectKind;

    /// Two hosts on one wire (no switch): driver directly asks responder.
    #[test]
    fn direct_read_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let mut sim = Sim::new(SimConfig::default());
        let mut responder = HostNode::new("resp", ObjId(0xB), HostConfig::default());
        let obj = responder.store.create(&mut rng, ObjectKind::Data);
        let off = responder.store.get_mut(obj).unwrap().alloc(64).unwrap();
        responder.store.get_mut(obj).unwrap().write_u64(off, 7).unwrap();

        let mut driver = HostNode::new("drv", ObjId(0xA), HostConfig::default());
        driver.plan = vec![obj];
        // Pre-seed the cache so no discovery is needed on a switchless wire.
        driver.dest_cache.insert(obj, ObjId(0xB));

        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until_idle();

        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert_eq!(drv.records.len(), 1);
        let rec = drv.records[0];
        assert_eq!(rec.target, obj);
        assert_eq!(rec.broadcasts, 0);
        assert!(rec.latency() > SimTime::ZERO);
        let resp = sim.node_as::<HostNode>(r).unwrap();
        assert_eq!(resp.counters.get("serves"), 1);
    }

    #[test]
    fn read_of_missing_object_nacks_and_rediscovers_forever_without_holder() {
        // Driver asks responder for an object it does not have: NACK → the
        // driver rediscovers (broadcast), nobody answers, access never
        // completes — but nothing crashes or loops hot.
        let mut sim = Sim::new(SimConfig::default());
        let mut driver = HostNode::new("drv", ObjId(0xA), HostConfig::default());
        let ghost = ObjId(0xDEAD);
        driver.plan = vec![ghost];
        driver.dest_cache.insert(ghost, ObjId(0xB));
        let responder = HostNode::new("resp", ObjId(0xB), HostConfig::default());
        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until_idle();
        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert!(drv.records.is_empty());
        assert_eq!(drv.counters.get("nacks_received"), 1);
        assert_eq!(drv.outstanding(), 1, "request parked in Discovering");
        assert_eq!(drv.dest_cache.peek(ghost), None, "stale entry dropped");
    }

    #[test]
    fn silently_dead_holder_times_out_into_typed_failure() {
        // Controller mode, holder crashed before the access and never
        // recovers: no NACK will ever arrive, so only the watchdog can
        // unwedge the request. It must retry its budget and then surface
        // a typed TimedOut failure, leaving nothing outstanding.
        let mut rng = StdRng::seed_from_u64(3); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let mut sim = Sim::new(SimConfig::default());
        let cfg = HostConfig {
            mode: DiscoveryMode::Controller,
            access_timeout: SimTime::from_micros(100),
            max_access_retries: 3,
            ..HostConfig::default()
        };
        let mut responder = HostNode::new("resp", ObjId(0xB), cfg);
        let obj = responder.store.create(&mut rng, ObjectKind::Data);
        responder.store.get_mut(obj).unwrap().alloc(64).unwrap();
        let mut driver = HostNode::new("drv", ObjId(0xA), cfg);
        driver.plan = vec![obj];
        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        sim.install_fault_plan(&rdv_netsim::FaultPlan::new().crash(SimTime::from_micros(1), r));
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until_idle();
        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert!(drv.records.is_empty());
        assert_eq!(drv.outstanding(), 0, "the access must not wedge");
        assert_eq!(drv.failed.len(), 1);
        assert_eq!(drv.failed[0].reason, AccessFailure::TimedOut);
        assert_eq!(drv.failed[0].retries, 3);
        // 3 re-send firings + the final firing that abandons.
        assert_eq!(drv.counters.get("access_timeouts"), 4);
        assert_eq!(drv.counters.get("accesses_abandoned"), 1);
    }

    #[test]
    fn timeout_retries_complete_after_holder_restart() {
        // Same dead holder, but it restarts (memory intact) while the
        // driver still has retry budget: a later re-send must land and the
        // access completes normally — typed failure only when truly dead.
        let mut rng = StdRng::seed_from_u64(4); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let mut sim = Sim::new(SimConfig::default());
        let cfg = HostConfig {
            mode: DiscoveryMode::Controller,
            access_timeout: SimTime::from_micros(100),
            max_access_retries: 5,
            ..HostConfig::default()
        };
        let mut responder = HostNode::new("resp", ObjId(0xB), cfg);
        let obj = responder.store.create(&mut rng, ObjectKind::Data);
        let off = responder.store.get_mut(obj).unwrap().alloc(64).unwrap();
        responder.store.get_mut(obj).unwrap().write_u64(off, 7).unwrap();
        let mut driver = HostNode::new("drv", ObjId(0xA), cfg);
        driver.plan = vec![obj];
        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        let plan = rdv_netsim::FaultPlan::new()
            .crash(SimTime::from_micros(1), r)
            .restart(SimTime::from_micros(250), r);
        sim.install_fault_plan(&plan);
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until_idle();
        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert_eq!(drv.records.len(), 1, "the access completes after restart");
        assert!(drv.failed.is_empty());
        assert_eq!(drv.outstanding(), 0);
        assert!(drv.counters.get("access_timeouts") >= 1, "the watchdog did the work");
    }

    #[test]
    fn e2e_timeout_rediscovers_then_fails_typed_when_nobody_answers() {
        // E2E mode with a stale cache entry pointing at a permanently dead
        // holder: each timeout must distrust the cache and fall back to
        // broadcast rediscovery before giving up with a typed failure.
        let mut sim = Sim::new(SimConfig::default());
        let cfg = HostConfig {
            mode: DiscoveryMode::E2E,
            access_timeout: SimTime::from_micros(100),
            max_access_retries: 2,
            ..HostConfig::default()
        };
        let mut driver = HostNode::new("drv", ObjId(0xA), cfg);
        let ghost = ObjId(0xDEAD);
        driver.plan = vec![ghost];
        driver.dest_cache.insert(ghost, ObjId(0xB));
        let responder = HostNode::new("resp", ObjId(0xB), cfg);
        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        sim.install_fault_plan(&rdv_netsim::FaultPlan::new().crash(SimTime::from_micros(1), r));
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until_idle();
        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert_eq!(drv.outstanding(), 0);
        assert_eq!(drv.failed.len(), 1);
        assert_eq!(drv.failed[0].reason, AccessFailure::TimedOut);
        assert_eq!(drv.dest_cache.peek(ghost), None, "stale entry distrusted");
        assert_eq!(drv.counters.get("broadcasts"), 2, "each retry rediscovered");
    }

    #[test]
    fn gossip_delivers_fact_and_repairs_cache_miss_without_broadcast() {
        // B holds an object A has never seen. After one anti-entropy round
        // A's journal knows the fact, so A's cache miss repairs locally:
        // zero broadcasts, one unicast read.
        let mut rng = StdRng::seed_from_u64(5); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let mut sim = Sim::new(SimConfig::default());
        let mut responder = HostNode::new("resp", ObjId(0xB), HostConfig::default());
        let obj = responder.store.create(&mut rng, ObjectKind::Data);
        let off = responder.store.get_mut(obj).unwrap().alloc(64).unwrap();
        responder.store.get_mut(obj).unwrap().write_u64(off, 7).unwrap();
        responder.enable_gossip(2, GossipConfig::default());
        responder.add_gossip_peer(ObjId(0xA), None);

        let mut driver = HostNode::new("drv", ObjId(0xA), HostConfig::default());
        driver.plan = vec![obj];
        driver.enable_gossip(1, GossipConfig::default());
        driver.add_gossip_peer(ObjId(0xB), None);

        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        // Well past the first 40µs round, so the fact has gossiped over.
        sim.schedule(SimTime::from_micros(200), d, 0);
        sim.run_until(SimTime::from_micros(400));

        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert_eq!(drv.records.len(), 1, "access completed");
        assert_eq!(drv.records[0].broadcasts, 0, "no flood rediscovery");
        assert_eq!(drv.counters.get("broadcasts"), 0);
        assert_eq!(drv.counters.get("gossip.repair_hits"), 1, "journal repaired the miss");
        assert_eq!(drv.gossip.as_ref().unwrap().journal.lookup(obj), Some(ObjId(0xB)));
    }

    #[test]
    fn dead_holder_is_tombstoned_and_purged_not_repaired_from() {
        // A learned obj@B (cache + journal), then B died silently. The
        // watchdog must not "repair" back to the dead address: it
        // tombstones the fact, purges B's cached routes, and the access
        // surfaces a typed failure after broadcast rediscovery goes
        // unanswered.
        let mut sim = Sim::new(SimConfig::default());
        let cfg = HostConfig {
            mode: DiscoveryMode::E2E,
            access_timeout: SimTime::from_micros(100),
            max_access_retries: 2,
            ..HostConfig::default()
        };
        let mut driver = HostNode::new("drv", ObjId(0xA), cfg);
        let ghost = ObjId(0xDEAD);
        driver.plan = vec![ghost];
        driver.dest_cache.insert(ghost, ObjId(0xB));
        driver.enable_gossip(1, GossipConfig::default());
        driver.add_gossip_peer(ObjId(0xB), None);
        driver.gossip.as_mut().unwrap().journal.record_holder(ghost, ObjId(0xB), 1);
        let responder = HostNode::new("resp", ObjId(0xB), cfg);
        let d = sim.add_node(Box::new(driver));
        let r = sim.add_node(Box::new(responder));
        sim.connect(d, r, LinkSpec::rack());
        sim.install_fault_plan(&rdv_netsim::FaultPlan::new().crash(SimTime::from_micros(1), r));
        sim.schedule(SimTime::from_micros(10), d, 0);
        sim.run_until(SimTime::from_micros(2_000));

        let drv = sim.node_as::<HostNode>(d).unwrap();
        assert_eq!(drv.failed.len(), 1);
        assert_eq!(drv.failed[0].reason, AccessFailure::TimedOut);
        assert_eq!(drv.counters.get("gossip.repair_hits"), 0, "never repaired to the dead host");
        let journal = &drv.gossip.as_ref().unwrap().journal;
        assert_eq!(journal.lookup(ghost), None, "fact tombstoned");
        assert!(journal.fact(ghost).unwrap().holder.is_nil());
        assert!(drv.dest_cache.is_empty(), "dead host's routes purged");
    }

    #[test]
    fn migration_moves_object_and_invalidates() {
        // h0 —wire— h1; h0 migrates obj to h1 (knows its inbox).
        let mut rng = StdRng::seed_from_u64(2); // rdv-lint: allow(rng-stream) -- test-local stream with a fixed seed; never crosses a node or shard boundary
        let mut sim = Sim::new(SimConfig::default());
        let mut h0 = HostNode::new("h0", ObjId(0xA), HostConfig::default());
        let obj = h0.store.create(&mut rng, ObjectKind::Data);
        h0.store.get_mut(obj).unwrap().alloc(32).unwrap();
        h0.migrations = vec![(obj, ObjId(0xB))];
        let h1 = HostNode::new("h1", ObjId(0xB), HostConfig::default());
        let a = sim.add_node(Box::new(h0));
        let b = sim.add_node(Box::new(h1));
        sim.connect(a, b, LinkSpec::rack());
        sim.schedule(SimTime::from_micros(5), a, tags::MIGRATE);
        sim.run_until_idle();
        assert!(!sim.node_as::<HostNode>(a).unwrap().store.contains(obj));
        assert!(sim.node_as::<HostNode>(b).unwrap().store.contains(obj));
        assert_eq!(sim.node_as::<HostNode>(a).unwrap().counters.get("invalidates_sent"), 1);
    }
}
