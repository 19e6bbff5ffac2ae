//! rdv-metrics: deterministic time-series telemetry for the rendezvous
//! sim stack.
//!
//! Counters and histograms answer *how much* over a whole run; rdv-trace
//! answers *why* for one operation. This crate answers *when*: a
//! [`MetricSet`] is a sim-time-cadenced sampling plane owned by the
//! simulation engine that records registered gauges (link queue depth,
//! utilization, cache occupancy, directory size, …) every
//! `sample_interval` nanoseconds of simulated time into bounded,
//! first-registration-ordered series, plus windowed rates derived from
//! the existing cumulative counters (e.g. `sim.packets_dropped.*`/s).
//!
//! On top of the series:
//!
//! - a **live invariant monitor** — each sample tick can run in-sim
//!   audits (packet conservation, directory-holder membership,
//!   acked ⇒ delivered, counter monotonicity) that fail fast with the
//!   sim time, a gauge snapshot, and — when tracing is on — the
//!   [`rdv_trace::EventId`] of the violating step;
//! - **byte-deterministic exporters** — [`export::json`] and
//!   [`export::text_table`] (aligned columns with unicode sparklines),
//!   formatted with integer arithmetic only, so the same seed yields
//!   byte-identical artifacts across processes and worker counts.
//!
//! Determinism contract: sampling reads simulation state, never mutates
//! it — no events are scheduled, no RNG is drawn — so enabling metrics
//! cannot perturb a run. A disabled set ([`MetricSet::disabled`], the
//! engine default) allocates nothing and costs one branch per event-loop
//! iteration.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

mod monitor;
mod set;

pub mod export;

pub use monitor::{AuditScope, Violation};
pub use set::{MetricSample, MetricSet, MetricsConfig, Series};
