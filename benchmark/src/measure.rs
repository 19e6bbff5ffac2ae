//! The end-to-end run: one warm-up plus N measured repetitions of
//! set-up-plus-run in one process, all observers off.

use std::time::Instant;

use crate::alloc;
use crate::stats::{median, peak_rss_mib, quantile};
use crate::workloads::{Env, Outcome, Prepared, Workload};

/// The simulated statistics of one repetition. Integer-valued so that
/// "identical across repetitions" is an exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Ops issued.
    pub attempted: u64,
    /// Ops completed.
    pub completed: u64,
    /// Ops failed typed, refused, or never completed.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Median simulated latency, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Simulated time from first issue to last completion, ns.
    pub span_ns: u64,
    /// `sim.packets_sent`.
    pub packets: u64,
    /// `sim.events`.
    pub events: u64,
}

impl SimStats {
    /// Distill an outcome (reorders its latency samples).
    pub fn of(outcome: &mut Outcome) -> SimStats {
        let failed = outcome.failed + outcome.wedged();
        let lat = &mut outcome.latencies_ns;
        let q = |lat: &mut Vec<u64>, p| if lat.is_empty() { 0 } else { quantile(lat, p) };
        SimStats {
            attempted: outcome.attempted,
            completed: outcome.completed,
            failed,
            samples: lat.len() as u64,
            p50_ns: q(lat, 500),
            p99_ns: q(lat, 990),
            p999_ns: q(lat, 999),
            span_ns: outcome.sim_span_ns,
            packets: outcome.count("sim.packets_sent"),
            events: outcome.count("sim.events"),
        }
    }

    /// Completed ops per simulated millisecond (= 10³ ops per simulated s).
    pub fn goodput_kops(&self) -> f64 {
        self.completed as f64 * 1e6 / self.span_ns.max(1) as f64
    }

    /// Packets on the wire per completed op.
    pub fn packets_per_op(&self) -> f64 {
        self.packets as f64 / self.completed.max(1) as f64
    }

    /// Failed share of attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Host-side timings of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct RepTiming {
    /// Start of the repetition to the first `Sim::run_*` call, seconds.
    pub setup_s: f64,
    /// Inside `Sim::run_*` plus result collection, seconds.
    pub run_s: f64,
    /// `(allocations, bytes requested)` during run and collection — zeros
    /// unless the binary installed `alloc::CountingAlloc`.
    pub run_allocs: (u64, u64),
}

/// One timed repetition: set-up, run, collect. Returns the still-built
/// repetition so the caller can check it or mine it for replay state.
pub fn repetition(
    workload: &dyn Workload,
    seed: u64,
    env: &Env,
) -> (Box<dyn Prepared>, Outcome, RepTiming) {
    let t0 = Instant::now();
    let mut prepared = workload.setup(seed, env);
    let setup_s = t0.elapsed().as_secs_f64();
    let allocs_before = alloc::snapshot();
    let t1 = Instant::now();
    env.phases.phase("run.sim", || prepared.run());
    let outcome = env.phases.phase("collect", || prepared.collect());
    let run_s = t1.elapsed().as_secs_f64();
    let allocs_after = alloc::snapshot();
    let run_allocs = (allocs_after.0 - allocs_before.0, allocs_after.1 - allocs_before.1);
    (prepared, outcome, RepTiming { setup_s, run_s, run_allocs })
}

/// The result of an end-to-end run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Simulated statistics (identical across repetitions).
    pub sim: SimStats,
    /// Per-repetition timings of the measured repetitions.
    pub timings: Vec<RepTiming>,
    /// `VmHWM` after the last repetition, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.timings.iter().map(|t| t.setup_s).collect::<Vec<_>>())
    }

    /// Median host nanoseconds per completed op.
    pub fn host_ns_per_op(&self) -> f64 {
        median(&self.timings.iter().map(|t| t.run_s).collect::<Vec<_>>()) * 1e9
            / self.sim.completed.max(1) as f64
    }

    /// The nine end-to-end metrics as `(name, value, unit, samples)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, u64)> {
        let reps = self.timings.len() as u64;
        let s = &self.sim;
        vec![
            ("setup_s", self.setup_s(), "s", reps),
            ("host_ns_per_op", self.host_ns_per_op(), "ns", reps),
            ("peak_rss_mb", self.peak_rss_mb, "MiB", 1),
            ("sim_p50_us", s.p50_ns as f64 / 1e3, "us", s.samples),
            ("sim_p99_us", s.p99_ns as f64 / 1e3, "us", s.samples),
            ("sim_p999_us", s.p999_ns as f64 / 1e3, "us", s.samples),
            ("sim_goodput_kops", s.goodput_kops(), "kops/s", s.completed),
            ("sim_packets_per_op", s.packets_per_op(), "packets", s.completed),
            ("failed_share", s.failed_share(), "ratio", s.attempted),
        ]
    }
}

/// Run one warm-up and `reps` measured repetitions of `workload`, check
/// the outputs and the cross-repetition identity of every simulated
/// statistic, and return the medians.
pub fn end_to_end(
    workload: &dyn Workload,
    seed: u64,
    reps: usize,
    env: &Env,
) -> Result<EndToEnd, String> {
    assert!(reps >= 1, "need at least one measured repetition");
    let mut sim: Option<SimStats> = None;
    let mut timings = Vec::with_capacity(reps);
    for rep in 0..=reps {
        env.phases.set_rep(rep as u32);
        let (mut prepared, mut outcome, timing) = repetition(workload, seed, env);
        let stats = SimStats::of(&mut outcome);
        match &sim {
            None => {
                // The warm-up repetition is the one that gets checked: it
                // is untimed anyway, and every later repetition must
                // reproduce its simulated statistics exactly.
                prepared.check(&outcome)?;
                if stats.failed != 0 {
                    return Err(format!(
                        "{} of {} ops failed, were refused or never completed",
                        stats.failed, stats.attempted
                    ));
                }
                sim = Some(stats);
            }
            Some(first) if *first != stats => {
                return Err(format!(
                    "repetition {rep} diverged from the warm-up: {stats:?} vs {first:?}"
                ));
            }
            Some(_) => timings.push(timing),
        }
    }
    Ok(EndToEnd { sim: sim.expect("warm-up ran"), timings, peak_rss_mb: peak_rss_mib() })
}
