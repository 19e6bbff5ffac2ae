//! # rdv-bench — the experiment harness
//!
//! One module per paper artifact (see DESIGN.md's per-experiment index):
//!
//! | id | artifact | module |
//! |----|----------|--------|
//! | F1 | Figure 1 — rendezvous strategies | [`experiments::fig1`] |
//! | F2 | Figure 2 — Controller vs E2E discovery | [`experiments::fig2`] |
//! | F3 | Figure 3 — E2E staleness | [`experiments::fig3`] |
//! | T1 | §3.2 switch-table capacity | [`experiments::t1`] |
//! | T2 | §3.1 pointer-encoding cost | [`experiments::t2`] |
//! | S1 | §2 serialization/loading fraction | [`experiments::s1`] |
//! | A1 | reachability vs adjacency prefetch | [`experiments::a1`] |
//! | A2 | middleware indirection cost | [`experiments::a2`] |
//! | A3 | hierarchical ID overlay | [`experiments::a3`] |
//! | A4 | CRDT auto-merge on movement | [`experiments::a4`] |
//! | A5 | coherence write fan-out | [`experiments::a5`] |
//!
//! plus the repo's own scale figures F4–F8 ([`experiments::CATALOG`] is the
//! full list). Each `run(quick)` returns a [`report::Series`]; the `figures`
//! binary renders them as text tables and writes JSON alongside. What the
//! code costs in wall-clock terms is measured by `rdvperf` (`benchmark/`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod fabric;
pub mod par;
pub mod report;

pub use report::Series;
