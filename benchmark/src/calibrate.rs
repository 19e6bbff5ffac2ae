//! `rdvperf calibrate`: the sensitivity self-check.
//!
//! Inject a known, fixed busy-wait into every `on_packet` of one node
//! kind — 30 ns on `storm_100k`'s echo nodes, 3 µs on `invoke_read`'s
//! `GasHostNode`s — and require that `host_ns_per_op` rises by the
//! injected amount (calls per op × measured wait) to within the metric's
//! regression bound, while every simulated statistic stays identical.
//! That is the evidence that a change of about ten per cent is resolved
//! rather than lost in noise.

use std::hint::black_box;
use std::time::Instant;

use crate::catalogue::END_TO_END;
use crate::measure::{end_to_end, EndToEnd};
use crate::tap::{spin, Kind, Wrap};
use crate::workloads::{self, Env, Workload};

/// Measured repetitions per arm.
const REPS: usize = 3;

/// Spin rounds whose busy-wait is closest to `target_ns`, and what one
/// such call really costs on this machine.
fn spin_for(target_ns: f64) -> (u32, f64) {
    let per_call = |iters: u32| {
        let calls = 2_000_000u64.min(200_000_000 / u64::from(iters.max(1))).max(10_000);
        let start = Instant::now();
        for _ in 0..calls {
            spin(black_box(iters));
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    let per_iter = per_call(10_000) / 10_000.0;
    let mut iters = (target_ns / per_iter).round().max(1.0) as u32;
    // Short waits are dominated by the call itself; correct the first
    // estimate once against what it really costs.
    iters = (f64::from(iters) * target_ns / per_call(iters)).round().max(1.0) as u32;
    (iters, per_call(iters))
}

fn bound_of(metric: &str) -> f64 {
    END_TO_END.iter().find(|m| m.0 == metric).expect("metric in the catalogue").3
}

struct Arm {
    workload: Box<dyn Workload>,
    kind: Kind,
    target_ns: f64,
    /// `on_packet` calls of `kind` per op, from a result's counters.
    calls_per_op: fn(&EndToEnd) -> f64,
}

fn check(arm: &Arm, seed: u64, scale: u64) -> Result<(), String> {
    let name = arm.workload.name();
    let (iters, injected_ns) = spin_for(arm.target_ns);
    // Both arms run the same wrapper; only the wait differs.
    let base_env = Env { wrap: Wrap::spinning(arm.kind, 0), scale, ..Env::plain() };
    let base = end_to_end(arm.workload.as_ref(), seed, REPS, &base_env)?;
    let spun_env = Env { wrap: Wrap::spinning(arm.kind, iters), scale, ..Env::plain() };
    let spun = end_to_end(arm.workload.as_ref(), seed, REPS, &spun_env)?;
    if spun.sim != base.sim {
        return Err(format!(
            "{name}: the injected delay changed a simulated statistic: {:?} vs {:?}",
            spun.sim, base.sim
        ));
    }
    let expected = (arm.calls_per_op)(&base) * injected_ns;
    let rise = spun.host_ns_per_op() - base.host_ns_per_op();
    let miss = (rise - expected).abs() / base.host_ns_per_op();
    let bound = bound_of("host_ns_per_op");
    println!(
        "{name} calibrate injected_ns_per_call {injected_ns} ns {iters}\n\
         {name} calibrate base_host_ns_per_op {} ns {REPS}\n\
         {name} calibrate spun_host_ns_per_op {} ns {REPS}\n\
         {name} calibrate expected_rise {expected} ns 1\n\
         {name} calibrate observed_rise {rise} ns 1\n\
         {name} calibrate miss_share_of_base {miss} ratio 1",
        base.host_ns_per_op(),
        spun.host_ns_per_op(),
    );
    if miss > bound {
        return Err(format!(
            "{name}: host_ns_per_op rose by {rise:.1} ns, injected {expected:.1} ns; the miss is \
             {:.1} % of the base, over the {:.0} % bound",
            miss * 100.0,
            bound * 100.0
        ));
    }
    Ok(())
}

/// Run both calibration arms; `Err` names the first that failed.
pub fn run(seed: u64, env: &Env) -> Result<(), String> {
    let arms = [
        Arm {
            workload: workloads::by_name("storm_100k").expect("known workload"),
            kind: Kind::Echo,
            target_ns: 30.0,
            // Every event of the storm is a packet delivered to an echo node.
            calls_per_op: |r| r.sim.events as f64 / r.sim.completed as f64,
        },
        Arm {
            workload: workloads::by_name("invoke_read").expect("known workload"),
            kind: Kind::GasHost,
            target_ns: 3_000.0,
            // On the star every packet is sent twice (host → switch →
            // host) and no link drops: half of them arrive at a host.
            calls_per_op: |r| r.sim.packets as f64 / 2.0 / r.sim.completed as f64,
        },
    ];
    for arm in &arms {
        check(arm, seed, env.scale)?;
    }
    println!("calibrate: both arms within bound");
    Ok(())
}
