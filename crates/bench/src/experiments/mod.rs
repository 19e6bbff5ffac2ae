//! One module per paper artifact. Each exposes `run(quick: bool) -> Series`
//! (quick mode shrinks sweep sizes for CI; full mode matches the paper's
//! parameters where stated).

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod a5;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod metrics;
pub mod s1;
pub mod t1;
pub mod t2;
pub mod trace;

use crate::report::Series;

/// An experiment's sweep, `run(quick)`.
pub type Run = fn(bool) -> Series;

/// Every experiment in run order, as `(id, description, run)` — the one
/// list `figures`, the committed `results/<id>.json` set and the tests
/// agree on. The description is what `figures --list` prints; an
/// experiment's own [`Series`] title may say more (F8's does).
pub const CATALOG: &[(&str, &str, Run)] = &[
    ("F1", "rendezvous of data and compute (paper Fig. 1 strategies)", fig1::run),
    ("F2", "discovery RTT vs % accesses to new objects (paper Fig. 2)", fig2::run),
    ("F3", "E2E access time vs % accesses to moved objects (paper Fig. 3)", fig3::run),
    ("F4", "goodput and rendezvous completion vs fault severity (paper §3.2)", f4::run),
    (
        "F5",
        "sharded engine scaling: events/s and peak RSS vs fabric size (ROADMAP item 1)",
        f5::run,
    ),
    (
        "F6",
        "million-user open-loop blip: goodput dip and recovery, rendezvous vs RPC (ISSUE 7)",
        f6::run,
    ),
    (
        "F7",
        "discovery churn at fabric scale: flood rediscovery vs journal gossip (ISSUE 9)",
        f7::run,
    ),
    (
        "F8",
        "p999 tail attribution through the blip from deterministic sampled traces (ISSUE 10)",
        f8::run,
    ),
    ("T1", "switch exact-match capacity vs ID width (paper §3.2)", t1::run),
    ("T2", "pointer encoding cost: FOT (64-bit) vs direct 128-bit pointers (paper §3.1)", t2::run),
    ("S1", "request-time (de)serialization and loading (paper §2 '70%')", s1::run),
    ("A1", "prefetching on reachability vs adjacency (paper §3.1)", a1::run),
    ("A2", "middleware indirection cost (paper §1)", a2::run),
    (
        "A3",
        "hierarchical ID overlay vs flat exact routing under SRAM pressure (paper §3.2)",
        a3::run,
    ),
    ("A4", "CRDT auto-merge during movement (paper §5)", a4::run),
    ("A5", "coherence write cost vs sharer count (paper §5)", a5::run),
];
