//! # rdv-load — the million-user traffic plane
//!
//! Every figure before this crate was a closed-loop microbenchmark: the
//! driver issued the next access when the previous one finished, so the
//! offered load collapsed exactly when the fabric slowed down — the
//! classic coordinated-omission trap. This crate is the open-loop
//! antidote, the workload plane ROADMAP item 2 calls for:
//!
//! - [`arrivals`] — seed-deterministic **open-loop** arrival processes.
//!   An [`arrivals::ArrivalSchedule`] is a pure function of its spec and
//!   seed: arrival times are drawn from sim time alone and are *never*
//!   gated on completions, so the offered rate survives saturation (the
//!   regression tests inflate service latency 10× and assert the
//!   schedule's issue times do not move).
//! - [`zipf`] — heavy-tailed object popularity with a configurable skew,
//!   the access asymmetry the paper argues fabrics must absorb at scale.
//! - [`curve`] — diurnal load curves and flash-crowd spikes as integer
//!   permille multipliers over the run.
//! - [`churn`] — client join/leave as seeded Poisson streams over a
//!   million-client id space.
//! - [`replog`] — a multi-writer replicated-log workload in the Autobahn
//!   style: entries batch at each writer, batches contend on a small set
//!   of Zipf-hot log heads.
//! - [`slo`] — p50/p99/p999 latency and goodput series computed per
//!   sim-time window and emitted straight into the rdv-metrics gauge
//!   plane (`load.*` gauges, D3-validated).
//! - [`harness`] — glue that runs a replicated-log workload against the
//!   rendezvous star fabric (multiple writer drivers, object-routed
//!   switch, optional fault "blip") and returns a canonical fingerprint;
//!   experiment F6 and the chaos soak both build on it.
//!
//! Determinism contract: everything here is a pure function of
//! `(spec, seed)`. Generation draws from split sub-streams (times,
//! thinning, clients, objects, churn), so e.g. changing the popularity
//! skew never perturbs arrival *times*. Schedules are byte-identical
//! across processes, `--jobs`, and `--shards` — the property tests and
//! the chaos soak hold them to the same bar as every other artifact.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod arrivals;
pub mod churn;
pub mod curve;
pub mod harness;
pub mod replog;
pub mod slo;
pub mod zipf;

pub use arrivals::{Arrival, ArrivalSchedule, OpenLoopSpec};
pub use churn::ChurnSpec;
pub use curve::{LoadCurve, Spike};
pub use harness::{Blip, LoadFabricSpec, LoadRun};
pub use replog::{Batch, ReplogSpec};
pub use slo::{nearest_rank, SloPoint, SloSeries};
pub use zipf::Zipf;
