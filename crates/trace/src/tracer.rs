//! The causal tracer — the namespace-0 [`EventRing`] plus an optional
//! [`Sampler`] — and [`Recorder`], the one handle the engine records
//! through.

use std::ops::Deref;

use crate::event::{EventId, EventKind};
use crate::ring::EventRing;
use crate::sample::{SampleSpec, Sampler};

/// Default ring capacity used by integrations that enable tracing without
/// an explicit size (2^20 events ≈ 48 MiB).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A deterministic, sim-time-stamped event recorder. Derefs to its
/// [`EventRing`], which carries the lookup and ancestry-query API.
///
/// A disabled tracer ([`Tracer::disabled`]) allocates nothing and records
/// nothing; the engine never builds a [`Recorder`] over one.
///
/// A tracer built with [`Tracer::sampled`] carries a [`Sampler`] and is
/// in *selective mode*: only operations rooted by a winning
/// [`crate::TraceCtx::sample`] call are recorded (the engine drops
/// causeless events, so everything off the sampled chains costs one
/// branch). Selective mode keeps ids dense over the *recorded* sequence,
/// which is still deterministic because sampling verdicts are pure in the
/// op's origin stamp.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    ring: EventRing,
    /// Present in selective mode only.
    sampler: Option<Sampler>,
}

impl Deref for Tracer {
    type Target = EventRing;

    fn deref(&self) -> &EventRing {
        &self.ring
    }
}

impl Tracer {
    /// A recorder that drops everything. This is the engine default.
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, ring: EventRing::new(0, 1), sampler: None }
    }

    /// An enabled recorder retaining the most recent `capacity` events
    /// (minimum 1).
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer { enabled: true, ring: EventRing::new(0, capacity), sampler: None }
    }

    /// A selective recorder: keeps only op chains rooted by a winning
    /// sampling verdict under `spec`.
    pub fn sampled(capacity: usize, spec: SampleSpec) -> Tracer {
        Tracer {
            enabled: true,
            ring: EventRing::new(0, capacity),
            sampler: Some(Sampler::new(spec)),
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether this tracer records selectively (a sampler is installed).
    pub fn is_selective(&self) -> bool {
        self.sampler.is_some()
    }

    /// The sampler's running tallies as `(sampled, skipped)`, if selective.
    pub fn sample_tallies(&self) -> Option<(u64, u64)> {
        self.sampler.as_ref().map(|s| (s.sampled, s.skipped))
    }

    /// Record an event; returns its id, or `None` when disabled.
    pub fn record(
        &mut self,
        at: u64,
        node: u32,
        kind: EventKind,
        cause: Option<EventId>,
        aux: Option<EventId>,
    ) -> Option<EventId> {
        self.enabled.then(|| self.ring.record(at, node, kind, cause, aux))
    }
}

/// Where one dispatch's events go. The engine builds one per dispatch or
/// coordinator action — deciding there, once, whether the tracer or a
/// flight-recorder ring is live — and hands it to every recording site
/// and to the [`crate::TraceCtx`] protocol code records through.
#[derive(Debug)]
pub enum Recorder<'a> {
    /// Nothing is armed: every call is one branch.
    Off,
    /// An *enabled* tracer (full or selective).
    Trace(&'a mut Tracer),
    /// A flight-recorder ring: keeps everything it is shown.
    Flight(&'a mut EventRing),
}

// `#[inline]` throughout: the engine calls these per event from another
// crate, and only inlined does `Off` cost one branch at the call site
// (without it `storm_100k` runs ~3 % slower).
impl Recorder<'_> {
    /// The same back-end under a shorter borrow.
    #[inline]
    pub fn reborrow(&mut self) -> Recorder<'_> {
        match self {
            Recorder::Off => Recorder::Off,
            Recorder::Trace(t) => Recorder::Trace(t),
            Recorder::Flight(f) => Recorder::Flight(f),
        }
    }

    /// Whether the back-end is a tracer in selective (sampled) mode.
    #[inline]
    pub fn is_selective(&self) -> bool {
        matches!(self, Recorder::Trace(t) if t.is_selective())
    }

    /// Whether the operation `(class, origin)` is kept: the sampler's
    /// verdict in selective mode, `true` for full tracing and the flight
    /// recorder (both keep everything), `false` when off.
    #[inline]
    pub fn sample(&mut self, class: &'static str, origin: u64) -> bool {
        match self {
            Recorder::Off => false,
            Recorder::Trace(t) => t.sampler.as_mut().is_none_or(|s| s.decide(class, origin)),
            Recorder::Flight(_) => true,
        }
    }

    /// Record an event unconditionally (chain roots, faults, anything the
    /// caller has already decided to keep).
    #[inline]
    pub fn record(
        &mut self,
        at: u64,
        node: u32,
        kind: EventKind,
        cause: Option<EventId>,
        aux: Option<EventId>,
    ) -> Option<EventId> {
        match self {
            Recorder::Off => None,
            Recorder::Trace(t) => t.record(at, node, kind, cause, aux),
            Recorder::Flight(f) => Some(f.record(at, node, kind, cause, aux)),
        }
    }

    /// Record an engine event that exists only as a link of some chain: in
    /// selective mode a causeless one belongs to no sampled operation and
    /// is dropped — that single branch is what keeps off-chain traffic
    /// free.
    #[inline]
    pub fn record_caused(
        &mut self,
        at: u64,
        node: u32,
        kind: EventKind,
        cause: Option<EventId>,
        aux: Option<EventId>,
    ) -> Option<EventId> {
        if cause.is_none() && self.is_selective() {
            return None;
        }
        self.record(at, node, kind, cause, aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(name: &'static str) -> EventKind {
        EventKind::Mark { name, detail: 0 }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.record(1, 0, mark("a.b"), None, None), None);
        assert_eq!(t.count(), 0);
        assert!(!t.is_enabled());
        assert_eq!(t.latest(), None);
    }

    #[test]
    fn sampled_tracer_reports_selective_and_tallies() {
        let mut t = Tracer::sampled(8, SampleSpec::keep_all(7));
        assert!(t.is_enabled() && t.is_selective());
        assert!(Recorder::Trace(&mut t).sample("x.y", 1), "keep_all keeps everything");
        assert_eq!(t.sample_tallies(), Some((1, 0)));
        let mut full = Tracer::enabled(8);
        assert!(!full.is_selective());
        assert!(Recorder::Trace(&mut full).sample("x.y", 1), "full recording keeps everything");
        assert_eq!(full.sample_tallies(), None, "and has no verdicts to tally");
    }

    #[test]
    fn recorder_drops_causeless_engine_events_only_in_selective_mode() {
        let mut sel = Tracer::sampled(8, SampleSpec::keep_all(1));
        let mut rec = Recorder::Trace(&mut sel);
        assert_eq!(rec.record_caused(0, 0, mark("a.a"), None, None), None, "off every chain");
        let root = rec.record(0, 0, mark("a.a"), None, None).expect("roots are the caller's call");
        assert!(rec.record_caused(1, 0, mark("a.b"), Some(root), None).is_some());

        let mut full = Tracer::enabled(8);
        assert!(Recorder::Trace(&mut full).record_caused(0, 0, mark("a.a"), None, None).is_some());
        let mut ring = EventRing::new(2 << crate::ring::SEQ_BITS, 8);
        assert!(Recorder::Flight(&mut ring).record_caused(0, 0, mark("a.a"), None, None).is_some());
        assert_eq!(Recorder::Off.record(0, 0, mark("a.a"), None, None), None);
    }
}
