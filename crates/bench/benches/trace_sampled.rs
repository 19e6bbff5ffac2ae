//! `trace_sampled` — cost of deterministic sampled tracing on the fabric
//! storm hot path. Three arms run the byte-identical storm: tracing
//! disabled, selective sampling at 20‰ (the always-on production
//! setting F5/F8 rely on), and full recording (every event kept). The
//! claim the baseline pins is that the sampled arm stays within noise of
//! the disabled arm — the per-event cost of an armed-but-skipping
//! sampler is one hash-based verdict lookup — while full recording is
//! the expensive mode you only reach for in postmortems. End to end,
//! `rdvperf --traced` reports the same ratio as
//! `trace.sampled_overhead_share`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rdv_bench::fabric::{run_fabric, run_fabric_traced, FabricSpec};
use rdv_netsim::trace::SampleSpec;

const SEED: u64 = 0x7_5A3;

/// 256-host fabric, small enough to iterate but busy enough that the
/// per-event sampler verdict dominates setup cost.
const SPEC: FabricSpec = FabricSpec {
    racks: 8,
    hosts_per_rack: 32,
    burst: 2,
    bounces: 8,
    ring_packets: 8,
    ring_hops: 8,
};

/// The production shape: nothing kept by default, `fabric.storm` chains
/// sampled at 20‰ — so roughly five of the 256 hosts record their full
/// bounce chain and the rest pay only the verdict hash.
fn sampled_spec() -> SampleSpec {
    SampleSpec { seed: SEED ^ 0x5A, default_permille: 0, classes: vec![("fabric.storm", 20)] }
}

fn bench(c: &mut Criterion) {
    // One storm's event count, shared by all arms: tracing records
    // events, it never adds any, so the fingerprint must not move.
    let fp = run_fabric(&SPEC, SEED, 1);
    assert!(fp.0 > 0);
    let (fp_sampled, tracer, _) = run_fabric_traced(&SPEC, SEED, 1, &sampled_spec());
    assert_eq!(fp, fp_sampled, "sampling must not perturb the run");
    assert!(tracer.count() > 0, "20‰ must keep at least one chain");
    let (fp_full, full_tracer, _) = run_fabric_traced(&SPEC, SEED, 1, &SampleSpec::keep_all(SEED));
    assert_eq!(fp, fp_full, "full recording must not perturb the run");
    assert!(full_tracer.count() > tracer.count());

    let mut group = c.benchmark_group("trace_sampled");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fp.0));
    group.bench_function("disabled", |b| b.iter(|| black_box(run_fabric(&SPEC, SEED, 1))));
    group.bench_function("sampled_20pm", |b| {
        b.iter(|| black_box(run_fabric_traced(&SPEC, SEED, 1, &sampled_spec()).0))
    });
    group.bench_function("full_recording", |b| {
        b.iter(|| black_box(run_fabric_traced(&SPEC, SEED, 1, &SampleSpec::keep_all(SEED)).0))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
