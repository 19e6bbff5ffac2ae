//! `load_gen` — traffic-plane generation throughput (arrivals/sec
//! *generated*, no simulation): the open-loop Poisson/Zipf/churn schedule
//! and the replicated-log batch fold. F6 and the chaos soak regenerate
//! schedules constantly, so generation must stay cheap relative to the
//! engine's event loop. End to end, `rdvperf`'s `replog_blip` workload
//! reports the same work as `load.generate_ns_per_arrival`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rdv_load::replog::batches;
use rdv_load::{ArrivalSchedule, ChurnSpec, LoadCurve, OpenLoopSpec, ReplogSpec, Spike};
use rdv_netsim::SimTime;

fn spec() -> OpenLoopSpec {
    // A million-client id space at 2M ops/s for 4ms of sim time, with the
    // full feature set turned on: diurnal curve + flash-crowd spike,
    // heavy Zipf skew, and a churned client pool.
    let mut open = OpenLoopSpec::flat(1_000_000, 64, 2_000_000, SimTime::from_millis(4));
    open.zipf_skew_permille = 1_100;
    open.curve = LoadCurve::diurnal().with_spike(Spike {
        at_permille: 400,
        dur_permille: 150,
        add_permille: 1_500,
    });
    open.churn =
        Some(ChurnSpec { initial_active: 100_000, join_per_s: 5_000_000, leave_per_s: 5_000_000 });
    open
}

fn bench(c: &mut Criterion) {
    let open = spec();
    let replog = ReplogSpec {
        writers: 8,
        heads: 64,
        entry_bytes: 64,
        batch_window: SimTime::from_micros(20),
    };
    let schedule = ArrivalSchedule::generate(&open, 42);
    assert!(schedule.arrivals.len() > 1_000, "workload too small to time");

    let mut group = c.benchmark_group("load_gen");
    group.sample_size(10);
    group.throughput(Throughput::Elements(schedule.arrivals.len() as u64));
    group.bench_function("open_loop_schedule", |b| {
        b.iter(|| black_box(ArrivalSchedule::generate(&open, 42)))
    });
    group.bench_function("schedule_plus_batches", |b| {
        b.iter(|| {
            let s = ArrivalSchedule::generate(&open, 42);
            black_box(batches(&s, &replog))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
