//! Shard-count determinism regression: the sharded engine must be an
//! *invisible* optimisation. Every committed artifact — figure series
//! JSON, causal-trace exports, telemetry JSON, chaos fingerprints — must
//! come out byte-identical for `--shards 1`, `2`, and `8`.
//!
//! This test is the one owner of that invariant at small scope: no
//! experiment names a shard count or replays itself at several (F5, F7
//! and F8 once did, tripling what a figure regeneration cost), so the
//! scale figures run here on debug-sized fixtures through the same
//! `sweep` entry points `figures` drives with the real tables. The
//! 1 k–100 k-host sizes are compared from outside, by
//! `scripts/contract.sh`'s `figures --quick --shards 1` vs `--shards 8`.
//!
//! One `#[test]` in its own binary, deliberately: the experiments under
//! test build their simulations internally and pick up the engine's
//! process-wide default shard count, so the sweep flips that default with
//! [`rdv_netsim::set_default_shards`] — safe only while no other test in
//! the process is constructing simulations.

use rdv_bench::experiments;
use rdv_core::scenarios::{run_lossy_invoke, LossyConfig};
use rdv_netsim::{set_default_shard_audit, set_default_shards};

/// Everything a full artifact regeneration produces, as one big byte
/// bundle: F3 and F4 figure series, their telemetry-plane exports, the F3
/// causal-trace export, the scale figures on small fixtures (F5 on a
/// 4-rack × 8 storm plus its sampled-trace export at 1 k hosts, both F7
/// arms on 4 racks × 8, F8 on 64 hosts — series JSON and, for F7/F8, the
/// full run fingerprints), and two chaos scenarios (lossy
/// invoke-by-reference with watchdog retries) fingerprinted via their
/// `Debug` outcomes.
fn regenerate_artifacts() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    out.push(("f3.json", experiments::fig3::run(true).to_json()));
    out.push(("f4.json", experiments::f4::run(true).to_json()));
    for exp in ["F3", "F4"] {
        let report = experiments::metrics::run(exp, true).expect("metricable");
        out.push(("metrics.json", report.json));
        out.push(("metrics.summary", report.summary));
    }
    let trace = experiments::trace::run("F3", true).expect("traceable");
    out.push(("trace_f3.json", trace.json));
    out.push(("f5.json", experiments::f5::sweep(&[(4, 8)], true).to_json()));
    out.push(("trace_f5.json", experiments::trace::run("F5", true).expect("traceable").json));
    out.push(("f7.json", experiments::f7::sweep(&[(4, 8)], true).to_json()));
    out.push(("f7.fingerprint", experiments::f7::fingerprint(&[(4, 8)], true)));
    out.push(("f8.json", experiments::f8::sweep(&[(64, 40, 200)]).to_json()));
    out.push(("f8.fingerprint", experiments::f8::fingerprint(&[(64, 40, 200)])));
    let chaos_a =
        run_lossy_invoke(&LossyConfig { loss_permille: 150, seed: 97, ..Default::default() });
    out.push(("chaos_lossy_a", format!("{chaos_a:?}")));
    let chaos_b = run_lossy_invoke(&LossyConfig {
        loss_permille: 250,
        invokes: 6,
        seed: 1234,
        ..Default::default()
    });
    out.push(("chaos_lossy_b", format!("{chaos_b:?}")));
    out
}

#[test]
fn every_artifact_is_byte_identical_across_shard_counts() {
    // Ride the whole sweep with the shard-ownership race detector armed:
    // it reads state only, so artifacts must still come out identical —
    // and any ownership bug the sweep would otherwise surface as an
    // opaque byte diff aborts with a located diagnostic instead.
    set_default_shard_audit(true);
    set_default_shards(1);
    let flat = regenerate_artifacts();
    for shards in [2usize, 8] {
        set_default_shards(shards);
        let sharded = regenerate_artifacts();
        set_default_shards(1);
        assert_eq!(sharded.len(), flat.len());
        for ((name, a), (_, b)) in sharded.iter().zip(&flat) {
            assert_eq!(a, b, "artifact {name} diverged at --shards {shards}");
        }
    }
    set_default_shard_audit(false);
}
