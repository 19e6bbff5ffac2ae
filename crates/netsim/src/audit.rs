//! shard-audit: the dynamic half of rdv-audit — a runtime ownership race
//! detector for the conservative-lookahead parallel engine.
//!
//! The sharded engine's correctness argument rests on three disciplines
//! (see `DESIGN.md §11`):
//!
//! 1. **Single-writer state** — node behaviour, RNG streams, timers, and
//!    link-direction transmitters are owned by exactly one shard; only
//!    that shard may touch them during a window.
//! 2. **Outbox-only cross-shard effects** — a shard influences another
//!    only by buffering `(dst_shard, key, event)` triples in its outbox,
//!    merged at the window barrier. Pushing a foreign node's event onto a
//!    local queue bypasses the barrier and silently corrupts pop order.
//! 3. **Lookahead-respecting schedule times** — a cross-shard event
//!    produced inside window `[start, end)` must be due at `≥ end`,
//!    because the destination may already have executed up to `end`.
//!
//! Rust's borrow checker enforces (1) mechanically, but (2) and (3) are
//! *logical* invariants: a routing bug produces well-typed code whose only
//! symptom is a fingerprint divergence thousands of events downstream.
//! When armed via [`crate::Observe::audit`], every mutable access
//! is tagged with its `(shard, window)` and checked at the access site;
//! the first violation aborts the run with a typed
//! [`ShardAuditViolation`] payload (via [`std::panic::panic_any`])
//! carrying the engine `file:line` of the failed check, the sim time, and
//! the event key being executed.
//!
//! Disabled, the detector costs one branch per check site and allocates
//! nothing. Armed, it reads state only — a clean armed run is
//! byte-identical to an unarmed one, which is what lets the chaos-soak
//! and shard-determinism suites run with the detector on permanently.
//!
//! The static half of rdv-audit is `rdv-lint` rules D5–D7, which keep
//! simulation crates from reaching into these internals in the first
//! place.

use std::fmt;
use std::panic::Location;

use crate::queue::EventKey;

/// Which engine discipline a detected access violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAuditKind {
    /// A shard executed an event, armed a timer, or touched node state
    /// owned by a different shard.
    ForeignState,
    /// A cross-shard event produced inside a parallel window was due
    /// before the window's end — the conservative-lookahead bound that
    /// makes shards independent within a window was violated.
    LookaheadViolation,
    /// An event targeting a foreign node was pushed onto the producing
    /// shard's local queue instead of routed through the outbox barrier.
    OutboxBypass,
    /// A node callback drew from an RNG stream owned by a different node,
    /// breaking per-node stream discipline (draws would depend on shard
    /// layout and event interleaving).
    RngStreamShared,
}

impl ShardAuditKind {
    /// Stable kebab-case label used in diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardAuditKind::ForeignState => "foreign-state",
            ShardAuditKind::LookaheadViolation => "lookahead-violation",
            ShardAuditKind::OutboxBypass => "outbox-bypass",
            ShardAuditKind::RngStreamShared => "rng-stream-shared",
        }
    }
}

/// One detected ownership violation — the payload the engine panics with
/// (via [`std::panic::panic_any`]) when the armed detector trips.
///
/// Harnesses catch it with `std::panic::catch_unwind` and downcast the
/// payload to this type; `Display` renders the full diagnostic line the
/// detector also prints to stderr at the moment of detection.
#[derive(Debug, Clone)]
pub struct ShardAuditViolation {
    /// Which discipline was violated.
    pub kind: ShardAuditKind,
    /// Source file of the failed check — the engine access site.
    pub file: &'static str,
    /// Source line of the failed check.
    pub line: u32,
    /// Simulated time of the access (ns).
    pub at_ns: u64,
    /// Shard that performed the access.
    pub shard: u32,
    /// Shard (or, for [`ShardAuditKind::RngStreamShared`], the shard of
    /// the stream's owner node) that owns the touched state.
    pub owner: u32,
    /// End of the parallel window the access happened in (ns);
    /// `u64::MAX` when the access happened between windows or in serial
    /// execution.
    pub window_end_ns: u64,
    /// Key of the event being executed when the check tripped, if one
    /// was in flight — identifies the exact event in the canonical
    /// `(time, source, sequence)` order shared by every shard count.
    pub event: Option<EventKey>,
    /// Human-readable account of the specific access.
    pub detail: String,
    /// Rendered flight-recorder postmortem, attached by the engine at the
    /// raising barrier when the recorder is armed (see
    /// [`crate::Observe::flight`]). `None` otherwise — the
    /// detector itself never renders dumps.
    pub postmortem: Option<String>,
}

impl fmt::Display for ShardAuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard-audit[{}] at t={}ns shard={} owner={}",
            self.kind.as_str(),
            self.at_ns,
            self.shard,
            self.owner
        )?;
        if self.window_end_ns != u64::MAX {
            write!(f, " window_end={}ns", self.window_end_ns)?;
        }
        if let Some(k) = self.event {
            write!(f, " event=(at={}, src={}, seq={})", k.at, k.src, k.seq)?;
        }
        write!(f, ": {} [{}:{}]", self.detail, self.file, self.line)?;
        if let Some(pm) = &self.postmortem {
            write!(f, "\n{pm}")?;
        }
        Ok(())
    }
}

/// Per-shard detector state. Lives behind an `Option<Box<_>>` on each
/// shard so the disabled engine pays nothing but the `is_some` branch.
pub(crate) struct ShardAudit {
    /// End of the current parallel window (ns); `u64::MAX` outside one.
    pub(crate) window_end_ns: u64,
    /// True while the shard is executing inside a parallel window.
    pub(crate) in_window: bool,
    /// Key of the event currently being executed, for diagnostics.
    pub(crate) current: Option<EventKey>,
    /// Per local RNG slot: the global node id that owns the stream.
    pub(crate) rng_owner: Vec<u32>,
    /// Seeded fault: dispatches for local node `.0` draw from slot `.1`
    /// (set by `Sim::debug_audit_share_rng`).
    pub(crate) rng_alias: Option<(usize, usize)>,
    /// Seeded fault: the next cross-shard send skips the outbox.
    pub(crate) fault_bypass_outbox: bool,
    /// Seeded fault: the next in-window cross-shard send is scheduled at
    /// the current clock, ignoring the latency that funds the lookahead.
    pub(crate) fault_violate_lookahead: bool,
    /// First violation recorded since the last barrier check.
    pub(crate) violation: Option<ShardAuditViolation>,
}

impl ShardAudit {
    pub(crate) fn new() -> ShardAudit {
        ShardAudit {
            window_end_ns: u64::MAX,
            in_window: false,
            current: None,
            rng_owner: Vec::new(),
            rng_alias: None,
            fault_bypass_outbox: false,
            fault_violate_lookahead: false,
            violation: None,
        }
    }

    /// Record a violation at the caller's source location (the engine
    /// access site, via `#[track_caller]` chaining) and print the
    /// diagnostic immediately. First violation wins; the engine panics
    /// with it at the next coordination point.
    #[track_caller]
    pub(crate) fn record(
        &mut self,
        kind: ShardAuditKind,
        at_ns: u64,
        shard: u32,
        owner: u32,
        detail: String,
    ) {
        if self.violation.is_some() {
            return;
        }
        let loc = Location::caller();
        let v = ShardAuditViolation {
            kind,
            file: loc.file(),
            line: loc.line(),
            at_ns,
            shard,
            owner,
            window_end_ns: self.window_end_ns,
            event: self.current,
            detail,
            postmortem: None,
        };
        eprintln!("{v}");
        self.violation = Some(v);
    }
}
