//! rdv-trace: deterministic causal tracing for the rendezvous sim stack.
//!
//! The aggregate counters and histograms answer *how much*; this crate
//! answers *why*. A [`Tracer`] is a bounded, sim-time-stamped
//! [`EventRing`] owned by the simulation engine; the crash flight recorder
//! is the same ring type under per-shard id namespaces, and the engine
//! records into either through one [`Recorder`] handle. Every engine
//! action — packet enqueue, link transmit, delivery, drop, timer
//! schedule/fire, fault application — is recorded with **causal edges**
//! back to the event that produced it, and protocol layers annotate
//! operation spans (discovery lookups, object fetches, coherent writes,
//! invokes) through a [`TraceCtx`] without ever touching engine internals.
//!
//! On top of the raw ring:
//!
//! - **queries** — walk the ancestry of any delivery
//!   ([`EventRing::ancestry`], [`EventRing::chain_names`]) and assert
//!   causal chains event-by-event in tests ([`EventRing::assert_chain`]);
//! - **critical paths** — [`CriticalPath`] decomposes an operation's
//!   latency into host / queue / link / timer-wait segments, so a figure's
//!   "the mean moved" becomes "these hops and retries moved it";
//! - **exporters** — [`export::chrome_json`] (loadable in Perfetto or
//!   `chrome://tracing`) and [`export::text_timeline`].
//!
//! Determinism: timestamps are sim time (never wall clock), ids are dense
//! sequence numbers in processing order, and both exporters format with
//! integer arithmetic only — the same seed yields byte-identical trace
//! files across processes and worker counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

mod ctx;
mod event;
mod tracer;

pub mod critical;
pub mod export;
pub mod ring;
pub mod sample;

pub use critical::{CriticalPath, PathBreakdown, Segment, CATEGORIES};
pub use ctx::TraceCtx;
pub use event::{
    DropReason, EventId, EventKind, FaultKind, TraceEvent, ENGINE_NODE, EVENT_NAMES, SPAN_LABELS,
};
pub use ring::EventRing;
pub use sample::{SampleSpec, Sampler, OBS_COUNTERS};
pub use tracer::{Recorder, Tracer, DEFAULT_CAPACITY};
