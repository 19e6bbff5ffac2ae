//! `TraceCtx`: the per-dispatch handle protocol code records through.
//!
//! The sim engine builds one of these for every node callback, pre-loaded
//! with the node id, the current sim time, and the id of the event being
//! handled (the delivered packet or fired timer). Protocol layers then
//! open spans and drop marks without knowing anything about the engine's
//! bookkeeping — and everything they record is automatically stitched into
//! the causal graph via that dispatch cause.
//!
//! The handle records into whatever [`Recorder`] the engine built for the
//! dispatch. Over a tracer in *selective mode* (see
//! [`crate::Tracer::sampled`]) it tracks an **anchor** — initially the
//! dispatch cause, advanced to the last event recorded through this
//! handle — and only records while anchored or rooted by a winning
//! [`TraceCtx::sample`] verdict. Engine actions snapshot
//! [`TraceCtx::provenance`] per action, so packets and timers issued
//! after a span chain to that span, not to the whole dispatch.
//!
//! Everywhere else (full tracing, the flight recorder) the anchor
//! machinery is inert: `provenance()` returns the dispatch cause
//! unconditionally, so full traces are byte-for-byte what they were before
//! selective mode existed.

use crate::event::{EventId, EventKind};
use crate::tracer::Recorder;

/// A borrowed recording handle scoped to one node callback.
///
/// Over [`Recorder::Off`] every method is a branch-and-return — zero
/// allocation, zero recording.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    rec: Recorder<'a>,
    now: u64,
    node: u32,
    cause: Option<EventId>,
    /// Selective-mode causal attachment point: starts at `cause`, advances
    /// to the last event recorded through this handle, cleared by
    /// [`TraceCtx::detach`].
    anchor: Option<EventId>,
    /// Set by a winning [`TraceCtx::sample`]: permits recording the root
    /// event of a new chain even with no anchor.
    root_ok: bool,
}

impl<'a> TraceCtx<'a> {
    /// Build a handle for one dispatch. `cause` is the event id of the
    /// delivery / timer-fire / fault being handled, if any.
    pub fn new(rec: Recorder<'a>, now: u64, node: u32, cause: Option<EventId>) -> TraceCtx<'a> {
        TraceCtx { rec, now, node, cause, anchor: cause, root_ok: false }
    }

    /// A permanently inert handle — for tests that build node contexts by
    /// hand.
    pub fn inert() -> TraceCtx<'static> {
        TraceCtx::new(Recorder::Off, 0, 0, None)
    }

    /// The causal edge an engine action issued *now* should carry: the
    /// dispatch cause in full mode, the current anchor in selective mode.
    /// The engine snapshots this per buffered action (send / flood /
    /// timer-set) so actions issued after a span chain to the span.
    pub fn provenance(&self) -> Option<EventId> {
        if self.rec.is_selective() {
            self.anchor
        } else {
            self.cause
        }
    }

    /// Ask the sampler whether the operation `(class, origin)` is kept.
    /// On a winning verdict this handle may root a new recorded chain.
    /// Full-recording tracers keep everything (`true`); with no active
    /// back-end the verdict is `false` (recording is a no-op anyway); the
    /// flight recorder keeps everything it sees (`true`).
    pub fn sample(&mut self, class: &'static str, origin: u64) -> bool {
        let keep = self.rec.sample(class, origin);
        self.root_ok |= keep;
        keep
    }

    /// Detach from the current chain: subsequent records and actions no
    /// longer extend it (until a new winning [`TraceCtx::sample`]). Call
    /// this before re-arming a periodic timer so one sampled round does
    /// not causally adopt every future round. No effect in full mode.
    pub fn detach(&mut self) {
        self.anchor = None;
        self.root_ok = false;
    }

    fn record(&mut self, kind: EventKind, aux: Option<EventId>) -> Option<EventId> {
        if !self.rec.is_selective() {
            return self.rec.record(self.now, self.node, kind, self.cause, aux);
        }
        if self.anchor.is_none() && !self.root_ok {
            return None;
        }
        self.anchor = self.rec.record(self.now, self.node, kind, self.anchor, aux);
        self.anchor
    }

    /// Open a protocol span (e.g. `discovery.access`). Keep the returned
    /// id in your pending-operation state and close it with
    /// [`TraceCtx::span_end`].
    pub fn span_begin(&mut self, name: &'static str, detail: u64) -> Option<EventId> {
        self.record(EventKind::SpanBegin { name, detail }, None)
    }

    /// Close a span. `begin` pairs the end with its begin (the `aux`
    /// edge); the primary cause is the event that completed the operation,
    /// so critical-path walks start here.
    pub fn span_end(&mut self, name: &'static str, begin: Option<EventId>) -> Option<EventId> {
        self.record(EventKind::SpanEnd { name }, begin)
    }

    /// Drop a point annotation caused by the current dispatch event.
    pub fn mark(&mut self, name: &'static str, detail: u64) -> Option<EventId> {
        self.record(EventKind::Mark { name, detail }, None)
    }

    /// Drop a point annotation with an extra causal edge — e.g. a
    /// retransmit mark linking back to the original send.
    pub fn mark_linked(
        &mut self,
        name: &'static str,
        detail: u64,
        link: Option<EventId>,
    ) -> Option<EventId> {
        self.record(EventKind::Mark { name, detail }, link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{EventRing, SEQ_BITS};
    use crate::sample::SampleSpec;
    use crate::tracer::Tracer;

    #[test]
    fn inert_ctx_records_nothing() {
        let mut ctx = TraceCtx::inert();
        assert_eq!(ctx.span_begin("a.b", 1), None);
        assert_eq!(ctx.mark("a.b", 1), None);
        assert!(!ctx.sample("a.b", 1), "no back-end, nothing to root");
    }

    #[test]
    fn spans_and_marks_inherit_the_dispatch_cause() {
        let mut t = Tracer::enabled(16);
        let dispatch = t.record(5, 1, EventKind::PacketDeliver { port: 0 }, None, None).unwrap();
        let mut ctx = TraceCtx::new(Recorder::Trace(&mut t), 5, 1, Some(dispatch));
        assert!(ctx.sample("proto.op", 9), "full recording keeps everything");
        let begin = ctx.span_begin("proto.op", 42);
        let mark = ctx.mark("proto.step", 7);
        let end = ctx.span_end("proto.op", begin);

        let begin_ev = t.get(begin.unwrap()).unwrap();
        assert_eq!(begin_ev.cause, Some(dispatch));
        assert_eq!(begin_ev.node, 1);
        assert_eq!(begin_ev.at, 5);
        assert_eq!(t.get(mark.unwrap()).unwrap().cause, Some(dispatch));
        let end_ev = t.get(end.unwrap()).unwrap();
        assert_eq!(end_ev.cause, Some(dispatch));
        assert_eq!(end_ev.aux, begin, "span end pairs with its begin via aux");
    }

    #[test]
    fn mark_linked_carries_the_explicit_edge() {
        let mut t = Tracer::enabled(16);
        let orig =
            t.record(0, 0, EventKind::PacketEnqueue { port: 0, bytes: 32 }, None, None).unwrap();
        let mut ctx = TraceCtx::new(Recorder::Trace(&mut t), 9, 0, None);
        let m = ctx.mark_linked("transport.retransmit", 1, Some(orig)).unwrap();
        assert_eq!(t.get(m).unwrap().aux, Some(orig));
    }

    #[test]
    fn selective_mode_blocks_unrooted_records() {
        let mut t =
            Tracer::sampled(16, SampleSpec { seed: 1, default_permille: 0, classes: vec![] });
        let mut ctx = TraceCtx::new(Recorder::Trace(&mut t), 0, 0, None);
        assert!(!ctx.sample("proto.op", 5), "0‰ never keeps");
        assert_eq!(ctx.span_begin("proto.op", 5), None, "unrooted record is dropped");
        assert_eq!(ctx.provenance(), None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn selective_mode_chains_through_the_anchor() {
        let mut t = Tracer::sampled(16, SampleSpec::keep_all(1));
        let mut ctx = TraceCtx::new(Recorder::Trace(&mut t), 0, 3, None);
        assert!(ctx.sample("proto.op", 5));
        let begin = ctx.span_begin("proto.op", 5);
        assert_eq!(ctx.provenance(), begin, "actions after the span chain to it");
        let mark = ctx.mark("proto.step", 1);
        assert_eq!(ctx.provenance(), mark, "anchor advances with each record");
        ctx.detach();
        assert_eq!(ctx.provenance(), None, "detached: future actions are chainless");
        assert_eq!(ctx.mark("proto.late", 2), None, "detached and unrooted");
        assert_eq!(t.get(mark.unwrap()).unwrap().cause, begin);
    }

    #[test]
    fn selective_anchor_starts_at_the_dispatch_cause() {
        let mut t = Tracer::sampled(16, SampleSpec::keep_all(1));
        let dispatch = t.record(0, 0, EventKind::PacketDeliver { port: 0 }, None, None).unwrap();
        let mut ctx = TraceCtx::new(Recorder::Trace(&mut t), 1, 0, Some(dispatch));
        assert_eq!(ctx.provenance(), Some(dispatch), "anchored by the dispatch event");
        let m = ctx.mark("proto.step", 0);
        assert_eq!(t.get(m.unwrap()).unwrap().cause, Some(dispatch));
    }

    #[test]
    fn flight_ring_keeps_everything_under_its_own_namespace() {
        let mut ring = EventRing::new(5 << SEQ_BITS, 8);
        let mut ctx = TraceCtx::new(Recorder::Flight(&mut ring), 7, 2, None);
        assert!(ctx.sample("proto.op", 1), "flight keeps everything");
        let begin = ctx.span_begin("proto.op", 1).expect("flight records");
        assert!(ring.owns(begin));
        assert_eq!(ring.get(begin).unwrap().node, 2);
        assert_eq!(ring.count(), 1);
    }
}
