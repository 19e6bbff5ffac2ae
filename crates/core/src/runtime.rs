//! The global-address-space host runtime.
//!
//! [`GasHostNode`] is what runs on every host in the rendezvous system:
//!
//! - **serves object fetches**: whole-object images, fragmented at the
//!   fabric MTU ([`rdv_memproto::frag`]);
//! - **executes invocations** ([`rdv_memproto::msg::MsgBody::Invoke`]):
//!   missing code/data objects are fetched on demand *by the executor* —
//!   the invoker never orchestrates data movement (§3.1, Figure 1 (3));
//! - **drives scripts**: small step sequences ([`ScriptStep`]) that express
//!   the Figure 1 strategies (manual copy, manual pull, reference-RPC with
//!   a fixed executor, fully automatic placement) and the experiment
//!   workloads;
//! - **walks pointer structures** with pluggable prefetching
//!   ([`PrefetchPolicy`]) for the A1 ablation.
//!
//! Packets route on object IDs: a fetch for object `X` is simply addressed
//! to `X`; the switches (programmed by the controller) deliver it to the
//! holder. Replies are addressed to the requester's inbox object.

use rdv_det::{DetMap, DetSet};
use std::collections::BTreeMap;
use std::sync::OnceLock;

use rdv_memproto::cache::{CacheState, ObjectCache};
use rdv_memproto::coherence::{DirAction, Directory};
use rdv_memproto::frag::{Reassembler, DEFAULT_MTU};
use rdv_memproto::msg::{Msg, MsgBody, MsgHeader, NackCode};
use rdv_netsim::metrics::{AuditScope, MetricSample};
use rdv_netsim::trace::EventId;
use rdv_netsim::{CounterId, Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::{ObjId, Object, ObjectStore};

use crate::code::{execution_ns, read_code_desc, ExecCtx, FnRegistry};
use crate::placement::PlacementEngine;

/// Interned ids for the runtime's counters, resolved once per process so
/// the message/exec hot paths never intern (or hash) a counter name.
struct GasCtr {
    bad_code_objects: CounterId,
    corrupt_fragments: CounterId,
    corrupt_images: CounterId,
    dangling_pointers: CounterId,
    dir_invalidates_applied: CounterId,
    dir_invalidates_sent: CounterId,
    exec_errors: CounterId,
    fetch_completed: CounterId,
    fetch_demand: CounterId,
    fetch_prefetch: CounterId,
    invokes_executed: CounterId,
    nacks: CounterId,
    no_placement_engine: CounterId,
    placement_failures: CounterId,
    pushes: CounterId,
    pushes_received: CounterId,
    retries_fetch: CounterId,
    retries_invoke: CounterId,
    retries_push: CounterId,
    retries_write: CounterId,
    rx_bytes: CounterId,
    scripts_failed: CounterId,
    serve_misses: CounterId,
    serves: CounterId,
    tasks_abandoned: CounterId,
    tx_bytes: CounterId,
    unknown_functions: CounterId,
    writes_served: CounterId,
}

fn ctr() -> &'static GasCtr {
    static IDS: OnceLock<GasCtr> = OnceLock::new();
    IDS.get_or_init(|| GasCtr {
        bad_code_objects: CounterId::intern("bad_code_objects"),
        corrupt_fragments: CounterId::intern("corrupt_fragments"),
        corrupt_images: CounterId::intern("corrupt_images"),
        dangling_pointers: CounterId::intern("dangling_pointers"),
        dir_invalidates_applied: CounterId::intern("dir_invalidates_applied"),
        dir_invalidates_sent: CounterId::intern("dir_invalidates_sent"),
        exec_errors: CounterId::intern("exec_errors"),
        fetch_completed: CounterId::intern("fetch.completed"),
        fetch_demand: CounterId::intern("fetch.demand"),
        fetch_prefetch: CounterId::intern("fetch.prefetch"),
        invokes_executed: CounterId::intern("invokes_executed"),
        nacks: CounterId::intern("nacks"),
        no_placement_engine: CounterId::intern("no_placement_engine"),
        placement_failures: CounterId::intern("placement_failures"),
        pushes: CounterId::intern("pushes"),
        pushes_received: CounterId::intern("pushes_received"),
        retries_fetch: CounterId::intern("retries.fetch"),
        retries_invoke: CounterId::intern("retries.invoke"),
        retries_push: CounterId::intern("retries.push"),
        retries_write: CounterId::intern("retries.write"),
        rx_bytes: CounterId::intern("rx_bytes"),
        scripts_failed: CounterId::intern("scripts_failed"),
        serve_misses: CounterId::intern("serve_misses"),
        serves: CounterId::intern("serves"),
        tasks_abandoned: CounterId::intern("tasks_abandoned"),
        tx_bytes: CounterId::intern("tx_bytes"),
        unknown_functions: CounterId::intern("unknown_functions"),
        writes_served: CounterId::intern("writes_served"),
    })
}

/// Prefetch policies for the A1 ablation (§3.1: identity/reachability
/// prefetching vs today's adjacency proxies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Fetch only on demand.
    None,
    /// On each arrival, prefetch the next `window` objects in allocation
    /// order (the "adjacency proxy" real systems use).
    Adjacency {
        /// Objects ahead to prefetch.
        window: usize,
    },
    /// On each arrival, prefetch the arrival's FOT frontier — actual
    /// reachability, which the object space makes visible.
    Reachability,
}

/// One step of a host script.
#[derive(Debug, Clone)]
pub enum ScriptStep {
    /// Fetch an object into the local cache (blocks until it arrives).
    Fetch(ObjId),
    /// Push a locally available object's image to another host's cache
    /// (blocks until the receiver acknowledges).
    PushTo {
        /// The object to push.
        obj: ObjId,
        /// Destination host inbox.
        dest: ObjId,
    },
    /// Invoke a code object over argument objects.
    Invoke {
        /// Fixed executor inbox, or `None` to let the placement engine
        /// decide (Figure 1 strategy (3)).
        executor: Option<ObjId>,
        /// The code object.
        code: ObjId,
        /// Argument objects.
        args: Vec<ObjId>,
        /// Expected result size (placement input).
        result_bytes: u64,
    },
    /// Write `data` at `offset` of a (possibly remote) object, through its
    /// home. The home's coherence directory invalidates cached readers.
    Write {
        /// The object to write.
        target: ObjId,
        /// Byte offset.
        offset: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// Walk a linked structure starting at `(obj, offset)` (node layout of
    /// `rdv_objspace::structures`), collecting up to `max_steps` values.
    Traverse {
        /// Object holding the head node.
        obj: ObjId,
        /// Offset of the head node block.
        offset: u64,
        /// Step bound.
        max_steps: usize,
    },
}

/// Completion record for one script.
#[derive(Debug, Clone)]
pub struct ScriptRecord {
    /// Script index.
    pub script: usize,
    /// When the script started.
    pub started: SimTime,
    /// When its last step completed.
    pub completed: SimTime,
    /// Result bytes of the last `Invoke` step (empty otherwise).
    pub invoke_result: Vec<u8>,
    /// Values collected by the last `Traverse` step.
    pub traversal_values: Vec<u64>,
    /// Demand fetches issued while this script ran.
    pub demand_fetches: u64,
    /// True if the script was abandoned after exhausting retries.
    pub failed: bool,
}

/// Host configuration.
#[derive(Debug, Clone, Copy)]
pub struct GasHostConfig {
    /// Request service delay (software overhead per served message).
    pub serve_delay: SimTime,
    /// Fabric MTU for image fragmentation.
    pub mtu: usize,
    /// Relative compute speed (1.0 = baseline).
    pub speed: f64,
    /// Load factor (1.0 = idle).
    pub load: f64,
    /// Object cache capacity in bytes.
    pub cache_bytes: u64,
    /// Prefetch policy.
    pub prefetch: PrefetchPolicy,
    /// Watchdog period for blocked scripts/tasks: lost packets are
    /// recovered by re-issuing the blocking operation (fetch, push,
    /// invoke) after this long.
    pub retry_timeout: SimTime,
    /// Abandon a script after this many consecutive retries of one step.
    pub max_retries: u32,
}

impl Default for GasHostConfig {
    fn default() -> Self {
        GasHostConfig {
            serve_delay: SimTime::from_micros(2),
            mtu: DEFAULT_MTU,
            speed: 1.0,
            load: 1.0,
            cache_bytes: 1 << 30,
            prefetch: PrefetchPolicy::None,
            // Generous default: must exceed the largest healthy transfer
            // (tens of ms for a 4 MB image over an edge link), so watchdogs
            // only fire when something was actually lost. Failure-injection
            // tests lower it.
            retry_timeout: SimTime::from_millis(50),
            max_retries: 20,
        }
    }
}

#[derive(Debug)]
struct FetchState {
    target: ObjId,
    /// The `core.fetch` span-begin, when tracing was enabled.
    span: Option<EventId>,
}

#[derive(Debug)]
enum Reply {
    Remote { to: ObjId, req: u64 },
    Script { script: usize },
}

struct TaskState {
    reply: Reply,
    code: ObjId,
    args: Vec<ObjId>,
    retries: u32,
}

#[derive(Debug)]
struct TraversalState {
    script: usize,
    cur: (ObjId, u64),
    values: Vec<u64>,
    max_steps: usize,
    done: bool,
}

#[derive(Debug)]
struct ScriptProgress {
    step: usize,
    started: SimTime,
    invoke_result: Vec<u8>,
    traversal_values: Vec<u64>,
    demand_fetches: u64,
    /// Outstanding push req this script waits on.
    waiting_push: Option<u64>,
    /// Outstanding remote invoke req this script waits on.
    waiting_invoke: Option<u64>,
    /// Executor the outstanding invoke was sent to (for retransmission).
    invoke_executor: Option<ObjId>,
    /// Consecutive watchdog retries of the current step.
    retries: u32,
    /// A watchdog timer is pending for this script.
    watchdog_armed: bool,
    /// Open trace spans, when tracing was enabled: the whole script, the
    /// in-flight invoke, and the in-flight coherent write.
    script_span: Option<EventId>,
    invoke_span: Option<EventId>,
    write_span: Option<EventId>,
}

/// Largest run buffer kept for reuse, in packets: a 256 KiB image at the
/// default MTU.
const SPARE_RUN_PACKETS: usize = 64;

mod tags {
    pub const DEFER: u64 = 1 << 62;
    pub const TASK_DONE: u64 = 1 << 61;
    pub const WATCHDOG: u64 = 1 << 60;
    pub const TASK_WATCH: u64 = 1 << 59;
}

/// A host in the rendezvous system.
pub struct GasHostNode {
    label: String,
    inbox: ObjId,
    cfg: GasHostConfig,
    /// Authoritative local objects.
    pub store: ObjectStore,
    /// Cached remote objects.
    pub cache: ObjectCache,
    /// The function registry (identical across hosts).
    pub registry: FnRegistry,
    /// The system placement view (present on invoking hosts).
    pub placement: Option<PlacementEngine>,
    /// Scripts; timer tag `i` starts `scripts[i]`.
    pub scripts: Vec<Vec<ScriptStep>>,
    /// Allocation-order adjacency used by [`PrefetchPolicy::Adjacency`].
    pub adjacency: Vec<ObjId>,
    progress: DetMap<usize, ScriptProgress>,
    /// Completed scripts.
    pub records: Vec<ScriptRecord>,
    fetches: DetMap<u64, FetchState>,
    inflight: DetSet<ObjId>,
    reasm: DetMap<ObjId, Reassembler>,
    /// Coherence directory for objects homed here.
    pub directory: Directory,
    /// Invocations waiting for their objects, by task id (ids only grow, so
    /// ascending id is arrival order). A task leaves when it runs or is
    /// abandoned, so the table is bounded by what is in flight.
    tasks: BTreeMap<u64, TaskState>,
    next_task: u64,
    served_invokes: DetMap<(u128, u64), Vec<u8>>,
    task_results: DetMap<u64, (usize, Vec<u8>)>,
    traversals: Vec<TraversalState>,
    /// Encoded packets waiting out a delay, one entry per run (see
    /// [`GasHostNode::send_after`]).
    deferred: DetMap<u64, Vec<Vec<u8>>>,
    /// The run this callback is still adding to, and its delay.
    open_run: Option<(u64, SimTime)>,
    /// Emptied runs' buffers, for the next runs to fill.
    spare_runs: Vec<Vec<Vec<u8>>>,
    next_req: u64,
    next_defer: u64,
    next_trace: u64,
    /// Host counters: `serves`, `fetch.demand`, `fetch.prefetch`,
    /// `tx_bytes`, `rx_bytes`, `pushes`, `invokes_executed`, `nacks`.
    pub counters: rdv_netsim::Counters,
}

impl GasHostNode {
    /// Create a host.
    pub fn new(label: impl Into<String>, inbox: ObjId, cfg: GasHostConfig) -> GasHostNode {
        GasHostNode {
            label: label.into(),
            inbox,
            store: ObjectStore::new(),
            cache: ObjectCache::new(cfg.cache_bytes),
            cfg,
            registry: FnRegistry::new(),
            placement: None,
            scripts: Vec::new(),
            adjacency: Vec::new(),
            progress: DetMap::new(),
            records: Vec::new(),
            fetches: DetMap::new(),
            inflight: DetSet::new(),
            reasm: DetMap::new(),
            directory: Directory::new(),
            tasks: BTreeMap::new(),
            next_task: 0,
            served_invokes: DetMap::new(),
            task_results: DetMap::new(),
            traversals: Vec::new(),
            deferred: DetMap::new(),
            open_run: None,
            spare_runs: Vec::new(),
            next_req: 1,
            next_defer: 0,
            next_trace: 1,
            counters: rdv_netsim::Counters::new(),
        }
    }

    /// The host's inbox object.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    /// Whether `id` is readable locally right now.
    pub fn has_object(&mut self, id: ObjId) -> bool {
        self.store.contains(id) || self.cache.get(id).is_some()
    }

    fn transmit(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        self.send(ctx, msg.encode());
    }

    /// Put one encoded packet on the wire.
    fn send(&mut self, ctx: &mut NodeCtx<'_>, bytes: Vec<u8>) {
        self.counters.add_id(ctr().tx_bytes, bytes.len() as u64);
        let trace = (self.inbox.lo() << 20) ^ self.next_trace;
        self.next_trace += 1;
        ctx.send(PortId(0), Packet::new(bytes, trace));
    }

    fn transmit_after(&mut self, ctx: &mut NodeCtx<'_>, delay: SimTime, msg: Msg) {
        let mut packets = self.spare_runs.pop().unwrap_or_default();
        packets.push(msg.encode());
        self.send_after(ctx, delay, packets);
    }

    /// Send encoded packets after `delay`, or now when it is zero.
    ///
    /// Deferrals by the same delay that a callback makes with no other
    /// timer set in between form one *run*: one `deferred` entry behind
    /// one timer (a serve's invalidations and fragments, a write's
    /// invalidations and ack). A timer each would have taken consecutive
    /// slots in this node's event sequence, so they would have fired back
    /// to back with nothing between them; the run's timer sends the same
    /// packets in the same order at the same instant, and every later
    /// event keeps its place.
    fn send_after(&mut self, ctx: &mut NodeCtx<'_>, delay: SimTime, mut packets: Vec<Vec<u8>>) {
        if delay == SimTime::ZERO {
            self.send_run(ctx, packets);
            return;
        }
        let open = self.open_run.filter(|&(_, run_delay)| run_delay == delay);
        if let Some(run) = open.and_then(|(id, _)| self.deferred.get_mut(&id)) {
            run.append(&mut packets);
            self.spare_runs.push(packets);
            return;
        }
        let id = self.next_defer;
        self.next_defer += 1;
        self.deferred.insert(id, packets);
        ctx.set_timer(delay, tags::DEFER | id);
        self.open_run = Some((id, delay));
    }

    /// Send `packets` now, in order, and keep their emptied buffer for the
    /// next run, so that deferring allocates nothing once warm (one
    /// holding a huge image's packets is let go).
    fn send_run(&mut self, ctx: &mut NodeCtx<'_>, mut packets: Vec<Vec<u8>>) {
        for packet in packets.drain(..) {
            self.send(ctx, packet);
        }
        if packets.capacity() <= SPARE_RUN_PACKETS {
            self.spare_runs.push(packets);
        }
    }

    /// Arm a timer that is not a deferral. It closes the open run: a
    /// deferral after it takes a timer of its own, behind this one.
    fn set_timer(&mut self, ctx: &mut NodeCtx<'_>, delay: SimTime, tag: u64) {
        self.open_run = None;
        ctx.set_timer(delay, tag);
    }

    fn ensure_fetch(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        target: ObjId,
        demand: bool,
        script: Option<usize>,
    ) {
        if self.store.contains(target)
            || self.cache.get(target).is_some()
            || self.inflight.contains(&target)
        {
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        self.inflight.insert(target);
        let span = ctx.trace.span_begin("core.fetch", target.lo());
        self.fetches.insert(req, FetchState { target, span });
        if demand {
            self.counters.inc_id(ctr().fetch_demand);
            if let Some(s) = script {
                if let Some(p) = self.progress.get_mut(&s) {
                    p.demand_fetches += 1;
                }
            }
        } else {
            self.counters.inc_id(ctr().fetch_prefetch);
        }
        // Route on the object itself: the packet is addressed to `target`.
        let msg = Msg::new(target, self.inbox, MsgBody::ObjImageReq { req, target });
        self.transmit(ctx, msg);
    }

    /// Arm the blocked-script watchdog (idempotent while armed).
    fn arm_watchdog(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        if let Some(p) = self.progress.get_mut(&idx) {
            if !p.watchdog_armed {
                p.watchdog_armed = true;
                self.set_timer(ctx, self.cfg.retry_timeout, tags::WATCHDOG | idx as u64);
            }
        }
    }

    /// Re-send the in-flight fetch for `target`, if one exists (same req,
    /// so partially reassembled fragments still count).
    fn retry_fetch(&mut self, ctx: &mut NodeCtx<'_>, target: ObjId) {
        let req = self.fetches.iter().find_map(|(req, f)| {
            if f.target == target {
                Some((*req, f.span))
            } else {
                None
            }
        });
        if let Some((req, span)) = req {
            self.counters.inc_id(ctr().retries_fetch);
            ctx.trace.mark_linked("core.retry.fetch", target.lo(), span);
            let msg = Msg::new(target, self.inbox, MsgBody::ObjImageReq { req, target });
            self.transmit(ctx, msg);
        }
    }

    /// The packets of push `req` of `obj` to `to`, if `obj` is here
    /// (stored or cached).
    fn push_packets(&mut self, obj: ObjId, to: ObjId, req: u64) -> Option<Vec<Vec<u8>>> {
        let header = MsgHeader { dst: to, src: self.inbox };
        let object = match self.store.get(obj) {
            Ok(o) => o,
            Err(_) => self.cache.get(obj)?,
        };
        let mut packets = self.spare_runs.pop().unwrap_or_default();
        image_packets(object, header, req, 0, self.cfg.mtu, &mut packets);
        Some(packets)
    }

    /// Re-send a push's fragments with its original req.
    fn reissue_push(&mut self, ctx: &mut NodeCtx<'_>, obj: ObjId, dest: ObjId, req: u64) {
        let Some(packets) = self.push_packets(obj, dest, req) else { return };
        self.counters.inc_id(ctr().retries_push);
        self.send_run(ctx, packets);
    }

    /// Watchdog fired for a blocked script: re-issue whatever it waits on,
    /// or abandon it after too many consecutive retries of one step.
    fn handle_watchdog(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let Some(p) = self.progress.get_mut(&idx) else { return };
        p.watchdog_armed = false;
        let step = self.scripts.get(idx).and_then(|s| s.get(p.step));
        let blocked = p.waiting_push.is_some()
            || p.waiting_invoke.is_some()
            || matches!(step, Some(ScriptStep::Fetch(_)))
            || step.and_then(fetched_first).is_some_and(|obj| self.inflight.contains(&obj));
        if !blocked {
            return;
        }
        if p.retries >= self.cfg.max_retries {
            let p = self.progress.remove(&idx).expect("present");
            self.counters.inc_id(ctr().scripts_failed);
            ctx.trace.span_end("core.script", p.script_span);
            self.traversals.retain(|t| t.script != idx);
            self.records.push(ScriptRecord {
                script: idx,
                started: p.started,
                completed: ctx.now,
                invoke_result: p.invoke_result,
                traversal_values: p.traversal_values,
                demand_fetches: p.demand_fetches,
                failed: true,
            });
            return;
        }
        p.retries += 1;
        let step = self.scripts.get(idx).and_then(|s| s.get(p.step)).cloned();
        let waiting_push = p.waiting_push;
        let waiting_invoke = p.waiting_invoke;
        let executor = p.invoke_executor;
        match step {
            Some(ScriptStep::Fetch(obj)) => self.retry_fetch(ctx, obj),
            Some(ScriptStep::PushTo { obj, dest }) => match waiting_push {
                Some(req) => self.reissue_push(ctx, obj, dest, req),
                // Still fetching the object it pushes.
                None => self.retry_fetch(ctx, obj),
            },
            Some(ScriptStep::Write { target, offset, data }) => {
                if let Some(req) = waiting_push {
                    self.counters.inc_id(ctr().retries_write);
                    let msg = Msg::new(
                        target,
                        self.inbox,
                        MsgBody::WriteReq { req, target, offset, data },
                    );
                    self.transmit(ctx, msg);
                }
            }
            Some(ScriptStep::Invoke { code, args, .. }) => match waiting_invoke {
                Some(0) => {
                    // Local execution: chase whatever objects are missing.
                    let wanted: Vec<ObjId> =
                        std::iter::once(code).chain(args.iter().copied()).collect();
                    for obj in wanted {
                        if !(self.store.contains(obj) || self.cache.get(obj).is_some()) {
                            self.retry_fetch(ctx, obj);
                        }
                    }
                }
                Some(req) if req != u64::MAX => {
                    if let Some(executor) = executor {
                        self.counters.inc_id(ctr().retries_invoke);
                        let msg =
                            Msg::new(executor, self.inbox, MsgBody::Invoke { req, code, args });
                        self.transmit(ctx, msg);
                    }
                }
                // Placement is still fetching the code descriptor.
                None => self.retry_fetch(ctx, code),
                Some(_) => {}
            },
            Some(ScriptStep::Traverse { .. }) => {
                // Blocked on the current node object.
                let cur = self.traversals.iter().find(|t| t.script == idx).map(|t| t.cur.0);
                if let Some(obj) = cur {
                    self.retry_fetch(ctx, obj);
                }
            }
            None => {}
        }
        self.arm_watchdog(ctx, idx);
    }

    fn serve_image(&mut self, ctx: &mut NodeCtx<'_>, reply_to: ObjId, req: u64, target: ObjId) {
        let Ok(obj) = self.store.get(target) else {
            self.counters.inc_id(ctr().serve_misses);
            let nack =
                Msg::new(reply_to, self.inbox, MsgBody::Nack { req, code: NackCode::NotHere });
            self.transmit_after(ctx, self.cfg.serve_delay, nack);
            return;
        };
        self.counters.inc_id(ctr().serves);
        let version = obj.version();
        // Written now, these buffers are the snapshot of the object that
        // waits out the serve delay, and they are what goes on the wire.
        let header = MsgHeader { dst: reply_to, src: self.inbox };
        let mut packets = self.spare_runs.pop().unwrap_or_default();
        image_packets(obj, header, req, version, self.cfg.mtu, &mut packets);
        // Home-side coherence: the requester becomes a sharer; a previous
        // exclusive owner is recalled.
        let actions = self.directory.request_shared(target, reply_to);
        self.apply_dir_actions(ctx, target, version, actions);
        self.send_after(ctx, self.cfg.serve_delay, packets);
    }

    /// Turn directory actions into directed invalidations (grants are
    /// implicit in the data reply that follows).
    fn apply_dir_actions(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        obj: ObjId,
        version: u64,
        actions: Vec<DirAction>,
    ) {
        for a in actions {
            if let DirAction::Invalidate { to, obj: o } = a {
                debug_assert_eq!(o, obj);
                self.counters.inc_id(ctr().dir_invalidates_sent);
                let msg = Msg::new(to, self.inbox, MsgBody::DirInvalidate { obj, version });
                self.transmit_after(ctx, self.cfg.serve_delay, msg);
            }
        }
    }

    fn on_image_complete<P: AsRef<[u8]>>(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: ObjId,
        req: u64,
        pieces: &[P],
    ) {
        let image_len: usize = pieces.iter().map(|p| p.as_ref().len()).sum();
        // The heap is written once, straight from the pieces that arrived.
        let Ok(object) = Object::from_pieces(pieces) else {
            self.counters.inc_id(ctr().corrupt_images);
            return;
        };
        let obj_id = object.id();
        self.inflight.remove(&obj_id);
        self.cache.insert(object, CacheState::Shared);
        self.counters.add_id(ctr().rx_bytes, image_len as u64);
        match self.fetches.remove(&req) {
            Some(fetch) => {
                self.counters.inc_id(ctr().fetch_completed);
                ctx.trace.span_end("core.fetch", fetch.span);
            }
            None => {
                // Unsolicited push: acknowledge it.
                self.counters.inc_id(ctr().pushes_received);
                let ack = Msg::new(src, self.inbox, MsgBody::WriteAck { req, version: 0 });
                self.transmit_after(ctx, self.cfg.serve_delay, ack);
            }
        }
        self.run_prefetch(ctx, obj_id);
        self.poll_blocked(ctx);
    }

    fn run_prefetch(&mut self, ctx: &mut NodeCtx<'_>, arrived: ObjId) {
        match self.cfg.prefetch {
            PrefetchPolicy::None => {}
            PrefetchPolicy::Reachability => {
                let frontier: Vec<ObjId> = match self.cache.get(arrived) {
                    Some(obj) => obj.fot().referenced_ids(),
                    None => match self.store.get(arrived) {
                        Ok(obj) => obj.fot().referenced_ids(),
                        Err(_) => Vec::new(),
                    },
                };
                for next in frontier {
                    self.ensure_fetch(ctx, next, false, None);
                }
            }
            PrefetchPolicy::Adjacency { window } => {
                if let Some(pos) = self.adjacency.iter().position(|&o| o == arrived) {
                    let next: Vec<ObjId> =
                        self.adjacency[pos + 1..].iter().take(window).copied().collect();
                    for n in next {
                        self.ensure_fetch(ctx, n, false, None);
                    }
                }
            }
        }
    }

    /// Re-examine every blocked script, task, and traversal (cheap: each
    /// table holds only what is in flight right now).
    fn poll_blocked(&mut self, ctx: &mut NodeCtx<'_>) {
        self.drive_traversals(ctx);
        self.try_run_tasks(ctx);
        let blocked: Vec<usize> = self.progress.keys().copied().collect();
        for s in blocked {
            self.advance_script(ctx, s);
        }
    }

    fn start_script(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let script_span = ctx.trace.span_begin("core.script", idx as u64);
        self.progress.insert(
            idx,
            ScriptProgress {
                step: 0,
                started: ctx.now,
                invoke_result: Vec::new(),
                traversal_values: Vec::new(),
                demand_fetches: 0,
                waiting_push: None,
                waiting_invoke: None,
                invoke_executor: None,
                retries: 0,
                watchdog_armed: false,
                script_span,
                invoke_span: None,
                write_span: None,
            },
        );
        self.advance_script(ctx, idx);
    }

    fn advance_script(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        loop {
            let Some(p) = self.progress.get(&idx) else { return };
            if p.waiting_push.is_some() || p.waiting_invoke.is_some() {
                return; // blocked on an ack/result
            }
            let Some(steps) = self.scripts.get(idx) else { return };
            let Some(step) = steps.get(p.step).cloned() else {
                // Script complete.
                let p = self.progress.remove(&idx).expect("present");
                ctx.trace.span_end("core.script", p.script_span);
                self.records.push(ScriptRecord {
                    script: idx,
                    started: p.started,
                    completed: ctx.now,
                    invoke_result: p.invoke_result,
                    traversal_values: p.traversal_values,
                    demand_fetches: p.demand_fetches,
                    failed: false,
                });
                return;
            };
            match step {
                ScriptStep::Fetch(obj) => {
                    if self.store.contains(obj) || self.cache.get(obj).is_some() {
                        let p = self.progress.get_mut(&idx).expect("present");
                        p.step += 1;
                        p.retries = 0;
                        continue;
                    }
                    self.ensure_fetch(ctx, obj, true, Some(idx));
                    self.arm_watchdog(ctx, idx);
                    return;
                }
                ScriptStep::PushTo { obj, dest } => {
                    let req = self.next_req;
                    let Some(packets) = self.push_packets(obj, dest, req) else {
                        // Object not here: fetch it first (implicit).
                        self.ensure_fetch(ctx, obj, true, Some(idx));
                        self.arm_watchdog(ctx, idx);
                        return;
                    };
                    self.next_req += 1;
                    self.counters.inc_id(ctr().pushes);
                    self.send_run(ctx, packets);
                    self.progress.get_mut(&idx).expect("present").waiting_push = Some(req);
                    self.arm_watchdog(ctx, idx);
                    return;
                }
                ScriptStep::Invoke { executor, code, args, result_bytes } => {
                    let executor = match executor {
                        Some(e) => e,
                        None => {
                            // Placement decides (Figure 1 (3)). The
                            // decision needs the code descriptor: fetch the
                            // code object first if it is not yet here.
                            let Ok(desc) = self.read_code_anywhere(code) else {
                                self.ensure_fetch(ctx, code, true, Some(idx));
                                self.arm_watchdog(ctx, idx);
                                return;
                            };
                            let Some(engine) = &self.placement else {
                                self.counters.inc_id(ctr().no_placement_engine);
                                return;
                            };
                            match engine.choose(self.inbox, &desc, code, &args, result_bytes) {
                                Ok(est) => est.host,
                                Err(_) => {
                                    self.counters.inc_id(ctr().placement_failures);
                                    return;
                                }
                            }
                        }
                    };
                    if executor == self.inbox {
                        // Local execution.
                        let ispan = ctx.trace.span_begin("core.invoke", code.lo());
                        {
                            let p = self.progress.get_mut(&idx).expect("present");
                            p.waiting_invoke = Some(0);
                            p.invoke_span = ispan;
                        }
                        for obj in std::iter::once(code).chain(args.iter().copied()) {
                            self.ensure_fetch(ctx, obj, true, Some(idx));
                        }
                        self.add_task(TaskState {
                            reply: Reply::Script { script: idx },
                            code,
                            args,
                            retries: 0,
                        });
                        self.arm_watchdog(ctx, idx);
                        self.try_run_tasks(ctx);
                    } else {
                        let req = self.next_req;
                        self.next_req += 1;
                        let ispan = ctx.trace.span_begin("core.invoke", code.lo());
                        {
                            let p = self.progress.get_mut(&idx).expect("present");
                            p.waiting_invoke = Some(req);
                            p.invoke_executor = Some(executor);
                            p.invoke_span = ispan;
                        }
                        let msg =
                            Msg::new(executor, self.inbox, MsgBody::Invoke { req, code, args });
                        self.transmit(ctx, msg);
                        self.arm_watchdog(ctx, idx);
                    }
                    return;
                }
                ScriptStep::Write { target, offset, data } => {
                    let req = self.next_req;
                    self.next_req += 1;
                    let wspan = ctx.trace.span_begin("core.write", target.lo());
                    {
                        let p = self.progress.get_mut(&idx).expect("present");
                        p.waiting_push = Some(req);
                        p.write_span = wspan;
                    }
                    let msg = Msg::new(
                        target,
                        self.inbox,
                        MsgBody::WriteReq { req, target, offset, data },
                    );
                    self.transmit(ctx, msg);
                    self.arm_watchdog(ctx, idx);
                    return;
                }
                ScriptStep::Traverse { obj, offset, max_steps } => {
                    let t = TraversalState {
                        script: idx,
                        cur: (obj, offset),
                        values: Vec::new(),
                        max_steps,
                        done: false,
                    };
                    self.traversals.push(t);
                    self.progress.get_mut(&idx).expect("present").waiting_invoke = Some(u64::MAX);
                    self.arm_watchdog(ctx, idx);
                    self.drive_traversals(ctx);
                    return;
                }
            }
        }
    }

    fn read_code_anywhere(&mut self, code: ObjId) -> Result<crate::code::CodeDesc, ()> {
        if let Ok(obj) = self.store.get(code) {
            return read_code_desc(obj).map_err(|_| ());
        }
        if let Some(obj) = self.cache.get(code) {
            return read_code_desc(obj).map_err(|_| ());
        }
        // Without the descriptor the engine cannot cost the call; the
        // invoking host is expected to hold (or have fetched) the code
        // object's descriptor. Fall back to a neutral descriptor.
        Err(())
    }

    /// Queue an invocation; returns its task id.
    fn add_task(&mut self, task: TaskState) -> u64 {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.insert(id, task);
        id
    }

    /// Run every waiting task whose objects are all here, oldest first.
    fn try_run_tasks(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut next = 0;
        while let Some((&id, task)) = self.tasks.range(next..).next() {
            next = id + 1;
            // Probe every object, not just up to the first miss: a cache
            // probe counts a hit or miss and refreshes the entry's age.
            let mut ready = true;
            for obj in std::iter::once(task.code).chain(task.args.iter().copied()) {
                if !(self.store.contains(obj) || self.cache.get(obj).is_some()) {
                    ready = false;
                }
            }
            if ready {
                let task = self.tasks.remove(&id).expect("just seen");
                self.execute_task(ctx, task);
                continue;
            }
            // Make sure fetches are out for whatever is missing.
            let wanted: Vec<ObjId> =
                std::iter::once(task.code).chain(task.args.iter().copied()).collect();
            for obj in wanted {
                if !(self.store.contains(obj) || self.cache.get(obj).is_some()) {
                    self.ensure_fetch(ctx, obj, true, None);
                }
            }
        }
    }

    fn execute_task(&mut self, ctx: &mut NodeCtx<'_>, task: TaskState) {
        self.counters.inc_id(ctr().invokes_executed);
        let desc = {
            let obj = if let Ok(o) = self.store.get(task.code) {
                o
            } else {
                self.cache.get(task.code).expect("task ready")
            };
            match read_code_desc(obj) {
                Ok(d) => d,
                Err(_) => {
                    self.counters.inc_id(ctr().bad_code_objects);
                    return;
                }
            }
        };
        let body = match self.registry.get(desc.fn_id) {
            Ok(f) => f,
            Err(_) => {
                self.counters.inc_id(ctr().unknown_functions);
                return;
            }
        };
        let outcome = {
            let mut exec = ExecCtx::new(&self.store, &mut self.cache);
            body(&mut exec, &task.args)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(_) => {
                self.counters.inc_id(ctr().exec_errors);
                return;
            }
        };
        let delay_ns = execution_ns(&desc, outcome.bytes_touched, self.cfg.load, self.cfg.speed);
        let delay = self.cfg.serve_delay + SimTime::from_nanos(delay_ns);
        match task.reply {
            Reply::Remote { to, req } => {
                self.served_invokes.insert((to.as_u128(), req), outcome.result.clone());
                let msg =
                    Msg::new(to, self.inbox, MsgBody::InvokeResult { req, result: outcome.result });
                self.transmit_after(ctx, delay, msg);
            }
            Reply::Script { script } => {
                let id = self.next_defer;
                self.next_defer += 1;
                self.task_results.insert(id, (script, outcome.result));
                self.set_timer(ctx, delay, tags::TASK_DONE | id);
            }
        }
    }

    /// Task watchdog: an executor-side invocation is still waiting for
    /// objects; re-chase the missing ones (lost fetches) until it runs.
    fn handle_task_watch(&mut self, ctx: &mut NodeCtx<'_>, task_id: u64) {
        // A task that already ran (or was abandoned) is gone: stale timer.
        let Some(task) = self.tasks.get_mut(&task_id) else { return };
        if task.retries >= self.cfg.max_retries {
            self.counters.inc_id(ctr().tasks_abandoned);
            self.tasks.remove(&task_id);
            return;
        }
        task.retries += 1;
        let wanted: Vec<ObjId> =
            std::iter::once(task.code).chain(task.args.iter().copied()).collect();
        for obj in wanted {
            if !(self.store.contains(obj) || self.cache.get(obj).is_some()) {
                self.retry_fetch(ctx, obj);
            }
        }
        self.set_timer(ctx, self.cfg.retry_timeout, tags::TASK_WATCH | task_id);
        self.try_run_tasks(ctx);
    }

    fn drive_traversals(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut fetch_wanted: Vec<(ObjId, usize)> = Vec::new();
        let mut finished: Vec<usize> = Vec::new();
        for t_idx in 0..self.traversals.len() {
            loop {
                let (cur_obj, cur_off) = self.traversals[t_idx].cur;
                if self.traversals[t_idx].done {
                    break;
                }
                if self.traversals[t_idx].values.len() >= self.traversals[t_idx].max_steps {
                    self.traversals[t_idx].done = true;
                    finished.push(t_idx);
                    break;
                }
                let read = {
                    let obj = if let Ok(o) = self.store.get(cur_obj) {
                        Some(o)
                    } else {
                        self.cache.get(cur_obj)
                    };
                    match obj {
                        None => None,
                        Some(o) => {
                            let value = o.read_u64(cur_off).ok();
                            let next = o.read_ptr(cur_off + 8).ok();
                            match (value, next) {
                                (Some(v), Some(n)) => {
                                    let resolved =
                                        if n.is_null() { None } else { o.resolve_ptr(n).ok() };
                                    Some((v, n.is_null(), resolved))
                                }
                                _ => None,
                            }
                        }
                    }
                };
                match read {
                    None => {
                        // Node object not here yet: demand fetch, block.
                        fetch_wanted.push((cur_obj, self.traversals[t_idx].script));
                        break;
                    }
                    Some((value, is_null, resolved)) => {
                        self.traversals[t_idx].values.push(value);
                        if is_null {
                            self.traversals[t_idx].done = true;
                            finished.push(t_idx);
                            break;
                        }
                        match resolved {
                            Some((next_obj, next_off)) => {
                                self.traversals[t_idx].cur = (next_obj, next_off);
                            }
                            None => {
                                self.counters.inc_id(ctr().dangling_pointers);
                                self.traversals[t_idx].done = true;
                                finished.push(t_idx);
                                break;
                            }
                        }
                    }
                }
            }
        }
        for (obj, script) in fetch_wanted {
            self.ensure_fetch(ctx, obj, true, Some(script));
        }
        // Complete scripts of finished traversals.
        let mut completed: Vec<(usize, Vec<u64>)> = Vec::new();
        self.traversals.retain(|t| {
            if t.done {
                completed.push((t.script, t.values.clone()));
                false
            } else {
                true
            }
        });
        for (script, values) in completed {
            if let Some(p) = self.progress.get_mut(&script) {
                p.traversal_values = values;
                p.waiting_invoke = None;
                p.step += 1;
                p.retries = 0;
            }
            self.advance_script(ctx, script);
        }
    }

    fn on_invoke_result(&mut self, ctx: &mut NodeCtx<'_>, req: u64, result: Vec<u8>) {
        let script = self.progress.iter().find_map(|(idx, p)| {
            if p.waiting_invoke == Some(req) {
                Some(*idx)
            } else {
                None
            }
        });
        if let Some(idx) = script {
            let p = self.progress.get_mut(&idx).expect("present");
            p.invoke_result = result;
            p.waiting_invoke = None;
            p.invoke_executor = None;
            p.step += 1;
            p.retries = 0;
            let ispan = p.invoke_span.take();
            if ispan.is_some() {
                ctx.trace.span_end("core.invoke", ispan);
            }
            self.advance_script(ctx, idx);
        }
    }
}

/// Append the packets that carry `obj`'s image as the fragments of `req`,
/// written straight from the object's head and heap: the sender's only
/// copy of its bytes.
fn image_packets(
    obj: &Object,
    header: MsgHeader,
    req: u64,
    version: u64,
    mtu: usize,
    packets: &mut Vec<Vec<u8>>,
) {
    let (head, heap) = obj.image_parts(0);
    packets.extend(Msg::encode_image(header, req, version, [&head, heap], mtu));
}

/// The object `step` must have here before it can start, which it fetches
/// itself when it is not: a fetch's target, a push's object, a placed
/// invoke's code descriptor.
fn fetched_first(step: &ScriptStep) -> Option<ObjId> {
    match step {
        ScriptStep::Fetch(obj) | ScriptStep::PushTo { obj, .. } => Some(*obj),
        ScriptStep::Invoke { executor: None, code, .. } => Some(*code),
        ScriptStep::Invoke { .. } | ScriptStep::Write { .. } | ScriptStep::Traverse { .. } => None,
    }
}

impl Node for GasHostNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        self.open_run = None;
        let Ok(msg) = Msg::decode_bytes(&packet.payload) else {
            // Not a message. Say so when it claimed to be an image fragment:
            // a fetch is waiting on it.
            if packet.payload.first() == Some(&MsgBody::OBJ_IMAGE_FRAG) {
                self.counters.inc_id(ctr().corrupt_fragments);
            }
            return;
        };
        let src = msg.header.src;
        match msg.body {
            MsgBody::ObjImageReq { req, target }
                // Serve if we hold it; NACK if the request was addressed to
                // us (inbox) or routed on the object itself (the fabric
                // believed we were its home — a stale route).
                if (self.store.contains(target)
                    || msg.header.dst == self.inbox
                    || msg.header.dst == target)
                => {
                    self.serve_image(ctx, src, req, target);
                }
            MsgBody::ObjImageFrag { req, frag, .. } => {
                let reasm = self.reasm.entry(src).or_default();
                match reasm.accept_pieces(frag) {
                    Ok(Some(pieces)) => self.on_image_complete(ctx, src, req, &pieces),
                    Ok(None) => {}
                    Err(_) => self.counters.inc_id(ctr().corrupt_fragments),
                }
            }
            MsgBody::ObjImageResp { req, image, .. } => {
                self.on_image_complete(ctx, src, req, &[image]);
            }
            MsgBody::WriteAck { req, .. } => {
                let script = self.progress.iter().find_map(|(idx, p)| {
                    if p.waiting_push == Some(req) {
                        Some(*idx)
                    } else {
                        None
                    }
                });
                if let Some(idx) = script {
                    let p = self.progress.get_mut(&idx).expect("present");
                    p.waiting_push = None;
                    p.step += 1;
                    p.retries = 0;
                    // PushTo shares `waiting_push` but opens no span.
                    let wspan = p.write_span.take();
                    if wspan.is_some() {
                        ctx.trace.span_end("core.write", wspan);
                    }
                    self.advance_script(ctx, idx);
                }
            }
            MsgBody::Invoke { req, code, args } => {
                if msg.header.dst != self.inbox {
                    return;
                }
                // At-most-once execution: replay cached results for
                // retransmitted invokes; ignore duplicates of running ones.
                if let Some(result) = self.served_invokes.get(&(src.as_u128(), req)) {
                    let out = Msg::new(
                        src,
                        self.inbox,
                        MsgBody::InvokeResult { req, result: result.clone() },
                    );
                    let delay = self.cfg.serve_delay;
                    self.transmit_after(ctx, delay, out);
                    return;
                }
                let duplicate = self.tasks.values().any(|t| {
                    matches!(t.reply, Reply::Remote { to, req: r } if to == src && r == req)
                });
                if duplicate {
                    return;
                }
                let task_id = self.add_task(TaskState {
                    reply: Reply::Remote { to: src, req },
                    code,
                    args,
                    retries: 0,
                });
                self.set_timer(ctx, self.cfg.retry_timeout, tags::TASK_WATCH | task_id);
                self.try_run_tasks(ctx);
            }
            MsgBody::InvokeResult { req, result } => {
                if msg.header.dst != self.inbox {
                    return;
                }
                self.on_invoke_result(ctx, req, result);
            }
            MsgBody::ReadReq { req, target, offset, len } => {
                // Small-read service (used by examples).
                let reply = match self.store.get(target) {
                    Ok(obj) => {
                        let end = offset.saturating_add(len).min(obj.heap_len());
                        let data = if offset < end {
                            obj.read(offset, end - offset).map(<[u8]>::to_vec).unwrap_or_default()
                        } else {
                            Vec::new()
                        };
                        MsgBody::ReadResp { req, offset, version: obj.version(), data }
                    }
                    Err(_) if msg.header.dst == self.inbox || msg.header.dst == target => {
                        MsgBody::Nack { req, code: NackCode::NotHere }
                    }
                    Err(_) => return,
                };
                let out = Msg::new(src, self.inbox, reply);
                self.transmit_after(ctx, self.cfg.serve_delay, out);
            }
            MsgBody::WriteReq { req, target, offset, data } => {
                let reply = match self.store.get_mut(target) {
                    Ok(obj) => match obj.write(offset, &data) {
                        Ok(()) => {
                            let version = obj.version();
                            // Invalidate all cached readers of the object.
                            let actions = self.directory.write_at_home(target);
                            self.apply_dir_actions(ctx, target, version, actions);
                            self.counters.inc_id(ctr().writes_served);
                            MsgBody::WriteAck { req, version }
                        }
                        Err(_) => MsgBody::Nack { req, code: NackCode::BadRange },
                    },
                    Err(_) if msg.header.dst == self.inbox || msg.header.dst == target => {
                        MsgBody::Nack { req, code: NackCode::NotHere }
                    }
                    Err(_) => return,
                };
                let out = Msg::new(src, self.inbox, reply);
                self.transmit_after(ctx, self.cfg.serve_delay, out);
            }
            MsgBody::Nack { .. } => {
                self.counters.inc_id(ctr().nacks);
            }
            MsgBody::Invalidate { version } => {
                self.cache.invalidate(msg.header.dst, version);
            }
            MsgBody::DirInvalidate { obj, version }
                if self.cache.invalidate(obj, version) => {
                    self.counters.inc_id(ctr().dir_invalidates_applied);
                }
            // Explicitly ignored (D7): image requests we cannot serve and
            // no-op directory invalidations fall through their guards above;
            // read responses complete via the watchdog path; discovery,
            // gossip anti-entropy, controller advertisements, upgrade
            // coherence, and reliable-transport frames are other node
            // kinds' protocols.
            MsgBody::ObjImageReq { .. }
            | MsgBody::DirInvalidate { .. }
            | MsgBody::ReadResp { .. }
            | MsgBody::DiscoverReq { .. }
            | MsgBody::DiscoverResp { .. }
            | MsgBody::Advertise { .. }
            | MsgBody::GossipDigest { .. }
            | MsgBody::GossipDelta { .. }
            | MsgBody::UpgradeReq { .. }
            | MsgBody::UpgradeAck { .. }
            | MsgBody::RelData { .. }
            | MsgBody::RelAck { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.open_run = None;
        if tag & tags::DEFER != 0 {
            if let Some(run) = self.deferred.remove(&(tag & !tags::DEFER)) {
                self.send_run(ctx, run);
            }
        } else if tag & tags::WATCHDOG != 0 {
            self.handle_watchdog(ctx, (tag & !tags::WATCHDOG) as usize);
        } else if tag & tags::TASK_WATCH != 0 {
            self.handle_task_watch(ctx, tag & !tags::TASK_WATCH);
        } else if tag & tags::TASK_DONE != 0 {
            if let Some((script, result)) = self.task_results.remove(&(tag & !tags::TASK_DONE)) {
                if let Some(p) = self.progress.get_mut(&script) {
                    p.invoke_result = result;
                    p.waiting_invoke = None;
                    p.step += 1;
                    p.retries = 0;
                    let ispan = p.invoke_span.take();
                    if ispan.is_some() {
                        ctx.trace.span_end("core.invoke", ispan);
                    }
                }
                self.advance_script(ctx, script);
            }
        } else if (tag as usize) < self.scripts.len() {
            self.start_script(ctx, tag as usize);
        }
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        m.gauge("memproto.cache_objects", self.cache.len() as u64);
        m.gauge("memproto.cache_bytes", self.cache.used_bytes());
        m.windowed_ratio_pct(
            "memproto.cache_hit_pct",
            self.cache.hits,
            self.cache.hits + self.cache.misses,
        );
        m.gauge("core.placement_queue", (self.progress.len() + self.fetches.len()) as u64);
        m.gauge("discovery.directory_size", self.directory.len() as u64);
    }

    fn audit(&self, a: &mut AuditScope<'_>) {
        a.declare_inbox(self.inbox.as_u128());
        for (obj, holder) in self.directory.all_holders() {
            a.claim_holder(obj.as_u128(), holder.as_u128());
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{make_code_object, CodeDesc};
    use crate::scenarios::{
        build_star_fabric, host_link_edge, host_link_rack, standard_registry, FN_NOOP,
    };
    use rdv_objspace::{FotFlags, ObjectKind};

    const CLIENT_A: ObjId = ObjId(0x1111);
    const CLIENT_B: ObjId = ObjId(0x2222);
    const HOME: ObjId = ObjId(0x3333);
    const OBJ: ObjId = ObjId(0xBEEF);

    fn home_with_obj() -> GasHostNode {
        host_with_obj(HOME)
    }

    fn host_with_obj(inbox: ObjId) -> GasHostNode {
        let mut home = GasHostNode::new("home", inbox, GasHostConfig::default());
        let mut obj = rdv_objspace::Object::with_capacity(OBJ, ObjectKind::Data, 1 << 16);
        let off = obj.alloc(8).unwrap();
        obj.write_u64(off, 1).unwrap();
        home.store.insert(obj).unwrap();
        home
    }

    #[test]
    fn fetch_then_coherent_write_invalidates_the_cached_copy() {
        // A fetches OBJ (becomes a sharer); B writes through the home; A's
        // cached copy must be invalidated; A's refetch sees the new data.
        let mut a = GasHostNode::new("a", CLIENT_A, GasHostConfig::default());
        a.scripts = vec![
            vec![ScriptStep::Fetch(OBJ)],
            vec![ScriptStep::Fetch(OBJ)], // after invalidation: refetch
        ];
        let mut b = GasHostNode::new("b", CLIENT_B, GasHostConfig::default());
        b.scripts = vec![vec![ScriptStep::Write {
            target: OBJ,
            offset: 8,
            data: 99u64.to_le_bytes().to_vec(),
        }]];
        let home = home_with_obj();
        let (mut sim, ids) = build_star_fabric(
            1,
            vec![
                (Box::new(a), CLIENT_A, host_link_rack()),
                (Box::new(b), CLIENT_B, host_link_rack()),
                (Box::new(home), HOME, host_link_rack()),
            ],
            &[(OBJ, 2)],
        );
        // t=1ms: A fetches. t=2ms: B writes. t=3ms: A refetches.
        sim.schedule(SimTime::from_millis(1), ids[0], 0);
        sim.schedule(SimTime::from_millis(2), ids[1], 0);
        sim.schedule(SimTime::from_millis(3), ids[0], 1);
        sim.run_until_idle();

        let a = sim.node_as_mut::<GasHostNode>(ids[0]).unwrap();
        assert_eq!(a.records.len(), 2);
        // The invalidation landed between the two fetches.
        assert_eq!(a.counters.get("dir_invalidates_applied"), 1);
        // The refetched copy carries B's write.
        let cached = a.cache.get(OBJ).expect("refetched");
        assert_eq!(cached.read_u64(8).unwrap(), 99);
        let home = sim.node_as::<GasHostNode>(ids[2]).unwrap();
        assert_eq!(home.counters.get("writes_served"), 1);
        assert_eq!(home.counters.get("dir_invalidates_sent"), 1);
        // One timer per burst: each serve's fragments, and the write's
        // invalidation with its ack, waited out the serve delay together.
        assert_eq!(home.next_defer, 3);
        let b = sim.node_as::<GasHostNode>(ids[1]).unwrap();
        assert!(!b.records[0].failed);
    }

    #[test]
    fn trace_spans_bracket_fetch_write_and_script_lifecycles() {
        // The coherent-write scenario again, traced: every protocol span
        // opened by the runtime must be closed, and the write span must
        // have crossed the fabric (its closing ack arrived in a packet).
        let mut a = GasHostNode::new("a", CLIENT_A, GasHostConfig::default());
        a.scripts = vec![vec![ScriptStep::Fetch(OBJ)], vec![ScriptStep::Fetch(OBJ)]];
        let mut b = GasHostNode::new("b", CLIENT_B, GasHostConfig::default());
        b.scripts = vec![vec![ScriptStep::Write {
            target: OBJ,
            offset: 8,
            data: 99u64.to_le_bytes().to_vec(),
        }]];
        let home = home_with_obj();
        let (mut sim, ids) = build_star_fabric(
            1,
            vec![
                (Box::new(a), CLIENT_A, host_link_rack()),
                (Box::new(b), CLIENT_B, host_link_rack()),
                (Box::new(home), HOME, host_link_rack()),
            ],
            &[(OBJ, 2)],
        );
        sim.enable_trace(1 << 16);
        sim.schedule(SimTime::from_millis(1), ids[0], 0);
        sim.schedule(SimTime::from_millis(2), ids[1], 0);
        sim.schedule(SimTime::from_millis(3), ids[0], 1);
        sim.run_until_idle();
        let tracer = sim.take_tracer();

        let count = |structural: &str, label: &str| {
            tracer
                .iter()
                .filter(|(_, e)| e.kind.name() == structural && e.kind.label() == Some(label))
                .count()
        };
        // Three scripts (two fetches on A, one write on B), all completed.
        assert_eq!(count("span.begin", "core.script"), 3);
        assert_eq!(count("span.end", "core.script"), 3);
        assert_eq!(count("span.begin", "core.fetch"), 2);
        assert_eq!(count("span.end", "core.fetch"), 2);
        assert_eq!(count("span.begin", "core.write"), 1);
        assert_eq!(count("span.end", "core.write"), 1);

        // The write span's end pairs with its begin (aux edge) and its
        // ancestry includes a packet delivery: the WriteAck from the home.
        let (end_id, end_ev) = tracer
            .iter()
            .find(|(_, e)| e.kind.name() == "span.end" && e.kind.label() == Some("core.write"))
            .expect("write span closed");
        let begin = end_ev.aux.expect("end links its begin");
        assert_eq!(tracer.get(begin).unwrap().kind.label(), Some("core.write"));
        assert!(
            tracer
                .ancestry(end_id)
                .iter()
                .any(|eid| tracer.get(*eid).unwrap().kind.name() == "packet.deliver"),
            "write ack should have arrived over the fabric"
        );
    }

    #[test]
    fn write_to_missing_object_nacks() {
        let mut b = GasHostNode::new("b", CLIENT_B, GasHostConfig::default());
        b.scripts =
            vec![vec![ScriptStep::Write { target: ObjId(0xDEAD), offset: 8, data: vec![1] }]];
        let home = home_with_obj();
        let (mut sim, ids) = build_star_fabric(
            1,
            vec![
                (Box::new(b), CLIENT_B, host_link_rack()),
                (Box::new(home), HOME, host_link_rack()),
            ],
            // Route the ghost object at the home so the request arrives.
            &[(ObjId(0xDEAD), 1)],
        );
        sim.schedule(SimTime::from_millis(1), ids[0], 0);
        sim.run_until_idle();
        let b = sim.node_as::<GasHostNode>(ids[0]).unwrap();
        // The write NACKs; the watchdog retries, exhausts its budget, and
        // surfaces the failure rather than hanging forever.
        assert_eq!(b.records.len(), 1);
        assert!(b.records[0].failed, "script must be abandoned, not stuck");
        assert!(b.counters.get("nacks") >= 1);
    }

    #[test]
    fn coherent_write_survives_loss() {
        let mut a = GasHostNode::new(
            "a",
            CLIENT_A,
            GasHostConfig { retry_timeout: SimTime::from_micros(300), ..Default::default() },
        );
        a.scripts = vec![vec![
            ScriptStep::Write { target: OBJ, offset: 8, data: 7u64.to_le_bytes().to_vec() },
            ScriptStep::Fetch(OBJ),
        ]];
        let home = home_with_obj();
        let (mut sim, ids) = build_star_fabric(
            5,
            vec![
                (Box::new(a), CLIENT_A, host_link_rack().with_loss(150)),
                (Box::new(home), HOME, host_link_rack().with_loss(150)),
            ],
            &[(OBJ, 1)],
        );
        sim.schedule(SimTime::from_millis(1), ids[0], 0);
        sim.run_until_idle();
        let a = sim.node_as_mut::<GasHostNode>(ids[0]).unwrap();
        assert_eq!(a.records.len(), 1, "write+fetch must complete despite 15% loss");
        assert!(!a.records[0].failed);
        assert_eq!(a.cache.get(OBJ).unwrap().read_u64(8).unwrap(), 7);
    }

    /// Sends canned packet `tag` on timer `tag`, keeps every payload that
    /// arrives and every `InvokeResult` among them: a client that
    /// retransmits the *same* invoke at will (where a script only does so
    /// when its watchdog fires), says things no script would, or watches
    /// the wire.
    struct Replayer {
        packets: Vec<Vec<u8>>,
        received: Vec<Vec<u8>>,
        results: Vec<(u64, Vec<u8>)>,
    }

    impl Replayer {
        fn new(packets: Vec<Vec<u8>>) -> Replayer {
            Replayer { packets, received: Vec::new(), results: Vec::new() }
        }
    }

    impl Node for Replayer {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
            self.received.push(packet.payload.to_vec());
            if let Ok(Msg { body: MsgBody::InvokeResult { req, result }, .. }) =
                Msg::decode(&packet.payload)
            {
                self.results.push((req, result));
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            ctx.send(PortId(0), Packet::new(self.packets[tag as usize].clone(), tag));
        }
    }

    fn noop_code(id: ObjId) -> Object {
        make_code_object(id, CodeDesc { fn_id: FN_NOOP, base_ns: 10, ps_per_byte: 0 })
    }

    #[test]
    fn duplicate_invokes_execute_once() {
        // Wire-level at-most-once: one `Invoke { req }` packet delivered
        // twice while its task waits for an argument (the second must be
        // ignored) and once more after it ran (the cached result must be
        // replayed, not recomputed).
        const CODE: ObjId = ObjId(0xC0);
        const FAR: ObjId = ObjId(0x4444);
        let mut server = GasHostNode::new("s", HOME, GasHostConfig::default());
        server.registry = standard_registry();
        server.store.insert(noop_code(CODE)).unwrap();
        let far = host_with_obj(FAR);
        let invoke =
            Msg::new(HOME, CLIENT_A, MsgBody::Invoke { req: 77, code: CODE, args: vec![OBJ] });
        let client = Replayer::new(vec![invoke.encode()]);
        let (mut sim, ids) = build_star_fabric(
            2,
            vec![
                (Box::new(client), CLIENT_A, host_link_rack()),
                (Box::new(server), HOME, host_link_rack()),
                // 200 us each way: the argument fetch outlasts the retransmit.
                (Box::new(far), FAR, host_link_edge()),
            ],
            &[(OBJ, 2)],
        );
        sim.schedule(SimTime::from_micros(1_000), ids[0], 0);
        sim.schedule(SimTime::from_micros(1_100), ids[0], 0);
        sim.run_until(SimTime::from_micros(1_200));
        {
            let server = sim.node_as::<GasHostNode>(ids[1]).unwrap();
            assert_eq!(server.tasks.len(), 1, "both copies arrived; one task waits on OBJ");
            assert_eq!(server.counters.get("invokes_executed"), 0);
        }
        sim.schedule(SimTime::from_millis(10), ids[0], 0);
        sim.run_until_idle();

        let server = sim.node_as::<GasHostNode>(ids[1]).unwrap();
        assert_eq!(server.counters.get("invokes_executed"), 1);
        assert_eq!(server.counters.get("fetch.demand"), 1);
        assert_eq!(server.served_invokes.len(), 1, "result cached for replay");
        assert!(server.tasks.is_empty());
        let client = sim.node_as::<Replayer>(ids[0]).unwrap();
        // One answer to the execution, one replay; none for the duplicate.
        assert_eq!(client.results, vec![(77, vec![1]), (77, vec![1])]);
    }

    #[test]
    fn task_table_is_empty_at_quiescence() {
        // Two hosts each run 600 invokes on themselves and 600 on the
        // other. The task table holds waiting invocations only, so however
        // many a host has executed, none is left behind.
        const N: usize = 1_200;
        let code_of = |inbox: ObjId| ObjId(inbox.0 + 0xC000);
        let host = |label: &str, inbox: ObjId, peer: ObjId| {
            let mut h = GasHostNode::new(label, inbox, GasHostConfig::default());
            h.registry = standard_registry();
            h.store.insert(noop_code(code_of(inbox))).unwrap();
            h.scripts = (0..N)
                .map(|i| {
                    let executor = if i % 2 == 0 { inbox } else { peer };
                    vec![ScriptStep::Invoke {
                        executor: Some(executor),
                        code: code_of(executor),
                        args: vec![],
                        result_bytes: 8,
                    }]
                })
                .collect();
            h
        };
        let (mut sim, ids) = build_star_fabric(
            3,
            vec![
                (Box::new(host("a", CLIENT_A, CLIENT_B)), CLIENT_A, host_link_rack()),
                (Box::new(host("b", CLIENT_B, CLIENT_A)), CLIENT_B, host_link_rack()),
            ],
            &[],
        );
        for i in 0..N {
            for &id in &ids {
                sim.schedule(SimTime::from_micros(10 * (i as u64 + 1)), id, i as u64);
            }
        }
        sim.run_until_idle();
        for &id in &ids {
            let h = sim.node_as::<GasHostNode>(id).unwrap();
            assert_eq!(h.records.len(), N);
            assert!(h.records.iter().all(|r| !r.failed && r.invoke_result == [1]));
            assert_eq!(h.counters.get("invokes_executed"), N as u64);
            assert!(h.tasks.is_empty(), "{} tasks left after {N} invokes", h.tasks.len());
        }
    }

    #[test]
    fn hostile_fragments_are_counted_and_change_nothing() {
        // A three-fragment push with eight malformed fragment packets sent
        // between its first and second piece. Each is counted, none opens
        // or disturbs a reassembly, none sizes anything from its `count`,
        // and the push still lands.
        use rdv_memproto::frag::{fragment, Fragment, MAX_FRAGMENTS};
        use rdv_wire::WireWriter;
        const REQ: u64 = 50;
        let mut obj = Object::with_capacity(OBJ, ObjectKind::Data, 1 << 16);
        obj.alloc(9_000).unwrap();
        let frag_msg = |frag: Fragment| {
            Msg::new(HOME, CLIENT_A, MsgBody::ObjImageFrag { req: REQ, version: 0, frag }).encode()
        };
        let good: Vec<Vec<u8>> =
            fragment(REQ, &obj.to_image(), DEFAULT_MTU).into_iter().map(frag_msg).collect();
        assert_eq!(good.len(), 3);
        // A well-formed message around whatever claims to be its fragment.
        let around = |frag: &[u8]| {
            let mut w = WireWriter::new();
            w.put_u8(MsgBody::OBJ_IMAGE_FRAG);
            w.put_u128(HOME.as_u128());
            w.put_u128(CLIENT_A.as_u128());
            w.put_uvarint(REQ);
            w.put_uvarint(0);
            w.put_len_prefixed(frag);
            w.into_vec()
        };
        let header = |index: u32, count: u32, body_len: u64| {
            let mut w = WireWriter::new();
            w.put_uvarint(REQ);
            w.put_u32(index);
            w.put_u32(count);
            w.put_uvarint(body_len);
            w.into_vec()
        };
        let hostile = [
            ("count 2^32 - 1", around(&header(0, u32::MAX, 0))),
            ("count past the bound", around(&header(0, MAX_FRAGMENTS + 1, 0))),
            ("count 0", around(&header(0, 0, 0))),
            ("index == count", around(&header(3, 3, 0))),
            ("body shorter than its prefix", around(&header(1, 3, 100))),
            ("bytes after the body", around(&[header(1, 3, 0), vec![0]].concat())),
            (
                "count differs from the live message's",
                frag_msg(Fragment { msg_id: REQ, index: 1, count: 4, data: vec![1].into() }),
            ),
            ("packet cut inside the fragment", good[1][..60].to_vec()),
        ];
        assert!(hostile[0].1.len() < 60, "tens of GiB were one small packet away");

        let first_good_after = 1 + hostile.len();
        let packets: Vec<Vec<u8>> = std::iter::once(good[0].clone())
            .chain(hostile.iter().map(|(_, p)| p.clone()))
            .chain(good[1..].iter().cloned())
            .collect();
        let client = Replayer::new(packets);
        let home = GasHostNode::new("home", HOME, GasHostConfig::default());
        let (mut sim, ids) = build_star_fabric(
            1,
            vec![
                (Box::new(client), CLIENT_A, host_link_rack()),
                (Box::new(home), HOME, host_link_rack()),
            ],
            &[],
        );
        let send = |sim: &mut rdv_netsim::Sim, k: usize| {
            sim.schedule(SimTime::from_millis(k as u64 + 1), ids[0], k as u64);
            sim.run_until_idle();
        };
        send(&mut sim, 0);
        for (k, (what, _)) in hostile.iter().enumerate() {
            send(&mut sim, k + 1);
            let home = sim.node_as::<GasHostNode>(ids[1]).unwrap();
            assert_eq!(home.counters.get("corrupt_fragments"), k as u64 + 1, "{what}");
            assert_eq!(home.reasm.len(), 1, "{what}");
            assert_eq!(home.reasm.get(&CLIENT_A).unwrap().pending(), 1, "{what}");
        }
        send(&mut sim, first_good_after);
        send(&mut sim, first_good_after + 1);
        let home = sim.node_as_mut::<GasHostNode>(ids[1]).unwrap();
        assert_eq!(home.counters.get("corrupt_fragments"), hostile.len() as u64);
        assert_eq!(home.counters.get("pushes_received"), 1);
        assert_eq!(home.reasm.get(&CLIENT_A).unwrap().pending(), 0);
        assert_eq!(home.cache.get(OBJ), Some(&obj));
    }

    #[test]
    fn reassemblers_are_empty_at_quiescence() {
        // Two hosts, 600 scripts each: fetch one of the peer's 9 KiB
        // objects (three fragments; the cache holds one, so every fetch
        // moves an image) or push one of their own to the peer. Whatever
        // was reassembled, nothing is left half-built.
        const N: usize = 600;
        let objs_of = |inbox: ObjId| [0, 1, 2, 3].map(|k| ObjId(inbox.0 * 0x100 + k));
        let host = |label: &str, inbox: ObjId, peer: ObjId| {
            let cfg = GasHostConfig { cache_bytes: 12_000, ..Default::default() };
            let mut h = GasHostNode::new(label, inbox, cfg);
            for id in objs_of(inbox) {
                let mut obj = Object::with_capacity(id, ObjectKind::Data, 1 << 16);
                obj.alloc(9_000).unwrap();
                h.store.insert(obj).unwrap();
            }
            h.scripts = (0..N)
                .map(|i| {
                    vec![if i % 2 == 0 {
                        ScriptStep::Fetch(objs_of(peer)[i / 2 % 2])
                    } else {
                        ScriptStep::PushTo { obj: objs_of(inbox)[2 + i / 2 % 2], dest: peer }
                    }]
                })
                .collect();
            h
        };
        let routes: Vec<(ObjId, usize)> = [CLIENT_A, CLIENT_B]
            .iter()
            .enumerate()
            .flat_map(|(node, &inbox)| objs_of(inbox).map(|o| (o, node)))
            .collect();
        let (mut sim, ids) = build_star_fabric(
            4,
            vec![
                (Box::new(host("a", CLIENT_A, CLIENT_B)), CLIENT_A, host_link_rack()),
                (Box::new(host("b", CLIENT_B, CLIENT_A)), CLIENT_B, host_link_rack()),
            ],
            &routes,
        );
        for i in 0..N {
            for &id in &ids {
                sim.schedule(SimTime::from_micros(20 * (i as u64 + 1)), id, i as u64);
            }
        }
        sim.run_until_idle();
        let mut images_moved = 0;
        for &id in &ids {
            let h = sim.node_as::<GasHostNode>(id).unwrap();
            assert_eq!(h.records.len(), N);
            assert!(h.records.iter().all(|r| !r.failed));
            assert_eq!(h.counters.get("corrupt_fragments"), 0);
            images_moved += h.counters.get("fetch.completed") + h.counters.get("pushes_received");
            for (src, reasm) in h.reasm.iter() {
                assert_eq!(reasm.pending(), 0, "{} holds pieces from {src:?}", h.label);
            }
            assert!(h.fetches.is_empty() && h.inflight.is_empty());
        }
        assert!(images_moved >= 1_000, "only {images_moved} images were reassembled");
    }

    /// The wire oracle's objects: an empty heap, a 1-byte allocation,
    /// 48 KiB, and FOT entries beside pointers to them. Heap bytes are a
    /// hash of their offset.
    fn oracle_objects() -> Vec<Object> {
        let noise = |n: u32, salt: u32| -> Vec<u8> {
            (0..n).map(|i| ((i ^ salt).wrapping_mul(2_654_435_761) >> 13) as u8).collect()
        };
        let empty = Object::with_capacity(OBJ, ObjectKind::Data, 1 << 20);
        let mut one = empty.clone();
        let off = one.alloc(1).unwrap();
        one.write(off, &[0xA5]).unwrap();
        let mut big = empty.clone();
        let off = big.alloc(48 * 1024).unwrap();
        big.write(off, &noise(48 * 1024, 7)).unwrap();
        let mut refs = empty.clone();
        let off = refs.alloc(300).unwrap();
        refs.write(off, &noise(300, 11)).unwrap();
        for k in 0..5u64 {
            let cell = refs.alloc(8).unwrap();
            let ptr = refs.make_ptr(ObjId(0x500 + u128::from(k)), 8 * k, FotFlags::RO).unwrap();
            refs.write_ptr(cell, ptr).unwrap();
        }
        vec![empty, one, big, refs]
    }

    /// What `Msg::encode` writes for the fragments `fragment` cuts from the
    /// joined image (`fragment` is `fragment_bytes` over a copy of it).
    fn oracle_packets(
        obj: &Object,
        to: ObjId,
        from: ObjId,
        req: u64,
        version: u64,
        mtu: usize,
    ) -> Vec<Vec<u8>> {
        rdv_memproto::frag::fragment(req, &obj.to_image(), mtu)
            .into_iter()
            .map(|frag| Msg::new(to, from, MsgBody::ObjImageFrag { req, version, frag }).encode())
            .collect()
    }

    #[test]
    fn serve_and_push_packets_are_the_fragment_encoders_bytes() {
        for obj in oracle_objects() {
            let head = obj.image_parts(0).0.len();
            for mtu in [16, head - 1, head, head + 1, DEFAULT_MTU] {
                let cfg = GasHostConfig { mtu, ..Default::default() };
                let what = format!(
                    "{} heap bytes, {} FOT entries, mtu {mtu}",
                    obj.heap_len(),
                    obj.fot().len()
                );
                // A serve: the client asks for the object by name.
                let mut home = GasHostNode::new("home", HOME, cfg);
                home.store.insert(obj.clone()).unwrap();
                let ask = Msg::new(OBJ, CLIENT_A, MsgBody::ObjImageReq { req: 5, target: OBJ });
                let (mut sim, ids) = build_star_fabric(
                    1,
                    vec![
                        (Box::new(Replayer::new(vec![ask.encode()])), CLIENT_A, host_link_rack()),
                        (Box::new(home), HOME, host_link_rack()),
                    ],
                    &[(OBJ, 1)],
                );
                sim.schedule(SimTime::from_millis(1), ids[0], 0);
                sim.run_until_idle();
                let served = &sim.node_as::<Replayer>(ids[0]).unwrap().received;
                let expected = oracle_packets(&obj, CLIENT_A, HOME, 5, obj.version(), mtu);
                assert!(*served == expected, "serve: {what}");
                // A push: the holder's first request id, version 0. Stop
                // before the unanswered push's watchdog re-sends it.
                let mut pusher = GasHostNode::new("pusher", HOME, cfg);
                pusher.store.insert(obj.clone()).unwrap();
                pusher.scripts = vec![vec![ScriptStep::PushTo { obj: OBJ, dest: CLIENT_A }]];
                let (mut sim, ids) = build_star_fabric(
                    1,
                    vec![
                        (Box::new(Replayer::new(Vec::new())), CLIENT_A, host_link_rack()),
                        (Box::new(pusher), HOME, host_link_rack()),
                    ],
                    &[],
                );
                sim.schedule(SimTime::from_millis(1), ids[1], 0);
                sim.run_until(SimTime::from_millis(20));
                let pushed = &sim.node_as::<Replayer>(ids[0]).unwrap().received;
                assert!(*pushed == oracle_packets(&obj, CLIENT_A, HOME, 1, 0, mtu), "push: {what}");
            }
        }
    }

    #[test]
    fn an_implicit_fetch_whose_reply_is_lost_is_chased_again() {
        // Two scripts that fetch before they can start: a push of an object
        // that lives at HOME, and a placed invoke whose code descriptor
        // does. A's link is down while both replies come back; each
        // script's watchdog must re-send its fetch (with the lost reply the
        // object stays in flight, so `ensure_fetch` never would).
        const CODE: ObjId = ObjId(0xC0);
        let cfg = GasHostConfig { retry_timeout: SimTime::from_micros(300), ..Default::default() };
        let mut a = GasHostNode::new("a", CLIENT_A, cfg);
        a.registry = standard_registry();
        let mut engine = PlacementEngine::new();
        engine.add_host(crate::placement::HostProfile { inbox: HOME, speed: 1.0, load: 1.0 });
        engine.set_object(CODE, HOME, 256);
        a.placement = Some(engine);
        a.scripts = vec![
            vec![ScriptStep::PushTo { obj: OBJ, dest: CLIENT_B }],
            vec![ScriptStep::Invoke { executor: None, code: CODE, args: vec![], result_bytes: 8 }],
        ];
        let mut home = home_with_obj();
        home.registry = standard_registry();
        home.store.insert(noop_code(CODE)).unwrap();
        let b = GasHostNode::new("b", CLIENT_B, GasHostConfig::default());
        let (mut sim, ids) = build_star_fabric(
            6,
            vec![
                (Box::new(a), CLIENT_A, host_link_rack()),
                (Box::new(home), HOME, host_link_rack()),
                (Box::new(b), CLIENT_B, host_link_rack()),
            ],
            &[(OBJ, 1), (CODE, 1)],
        );
        let switch = rdv_netsim::NodeId(ids.len());
        // The requests leave at 1 ms; the replies reach the switch ~20 us
        // later and find A's link down until 1.2 ms.
        sim.install_fault_plan(
            &rdv_netsim::FaultPlan::new()
                .link_down(SimTime::from_micros(1_001), ids[0], switch)
                .link_up(SimTime::from_micros(1_200), ids[0], switch),
        );
        sim.schedule(SimTime::from_millis(1), ids[0], 0);
        sim.schedule(SimTime::from_millis(1), ids[0], 1);
        sim.run_until_idle();
        assert!(sim.counters.get("sim.packets_dropped.link_down") >= 2, "both replies were lost");
        let a = sim.node_as::<GasHostNode>(ids[0]).unwrap();
        assert_eq!(a.records.len(), 2, "both scripts complete");
        assert!(a.records.iter().all(|r| !r.failed));
        assert_eq!(a.counters.get("retries.fetch"), 2);
        assert_eq!(a.records.iter().find(|r| r.script == 1).unwrap().invoke_result, [1]);
        let b = sim.node_as::<GasHostNode>(ids[2]).unwrap();
        assert_eq!(b.counters.get("pushes_received"), 1);
    }
}
