//! `rdvperf`: one six-workload benchmark for the simulator and the
//! rendezvous stack, with a per-layer cost stack. See `README.md`.

// The repository's `clippy.toml` bans the wall clock (determinism rule D2)
// for code that runs inside simulations. This crate is the stopwatch: host
// wall-clock time is what it measures, always from outside the simulation.
#![allow(clippy::disallowed_methods)]
#![deny(missing_docs)]

pub mod alloc;
pub mod calibrate;
pub mod catalogue;
pub mod cli;
pub mod layers;
pub mod measure;
pub mod spans;
pub mod stats;
pub mod tap;
pub mod traced;
pub mod workloads;
