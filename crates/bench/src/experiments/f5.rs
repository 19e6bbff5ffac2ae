//! F5 — engine scaling: the rack-ring storm's event count and final clock
//! from 1 k hosts up to the first 100 k-host topology.
//!
//! ROADMAP item 1: every paper experiment runs tens of nodes, but the
//! fabric arguments only matter at datacenter scale. This figure runs the
//! [`crate::fabric`] rack-ring storm as the fabric grows from 1 k to
//! 100 k hosts, once per fabric, at the process's shard count
//! (`figures --shards N`; DESIGN.md §9).
//!
//! Every column of the returned [`Series`] — and so every byte of
//! `results/f5.json` — is a pure function of the seed: `events` and
//! `clock_ms` fingerprint the run and are identical at every shard count
//! (`tests/shard_determinism.rs` and `scripts/contract.sh` own that
//! check). What this box made of the run — shards in effect, wall time,
//! events/s, peak RSS, cores — is printed as one `[figures] F5 measured:`
//! stderr line per fabric and never written under `results/`; the judged
//! events/s number is `rdvperf storm_100k`, which has repetitions and
//! quartiles.
//!
//! Peak RSS is `VmHWM` from `/proc/self/status` — a process-wide
//! high-water mark, so the sweep runs fabrics in ascending size to keep
//! each point's reading attributable to its own fabric.

use crate::fabric::{run_fabric, FabricSpec};
use crate::report::{f1, f2, Series};
use rdv_wire::cost::wall_ns;

/// The fabric sizes swept, ascending: (racks, hosts_per_rack).
const FABRICS: [(usize, usize); 3] = [(16, 64), (32, 320), (256, 400)];

fn spec(racks: usize, hosts_per_rack: usize, quick: bool) -> FabricSpec {
    FabricSpec {
        racks,
        hosts_per_rack,
        burst: 2,
        bounces: if quick { 4 } else { 16 },
        ring_packets: if quick { 8 } else { 32 },
        // One full lap of the trunk ring, so relays visit every shard.
        ring_hops: racks as u64,
    }
}

/// `VmHWM` (peak resident set) in MiB, or 0.0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()) {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

/// Run the scaling sweep. Quick mode shrinks the per-node traffic budget
/// (the CI scale-smoke's "bounded event budget") but keeps the full
/// 100 k-host point — instantiating that fabric *is* the experiment.
pub fn run(quick: bool) -> Series {
    sweep(&FABRICS, quick)
}

/// The sweep body over `fabrics` = `(racks, hosts_per_rack)` points, so
/// tests can drive a debug-friendly fabric through the identical pipeline.
pub fn sweep(fabrics: &[(usize, usize)], quick: bool) -> Series {
    let mut series = Series::new(
        "F5",
        "sharded engine scaling: events/s and peak RSS vs fabric size (ROADMAP item 1)",
        &["hosts", "racks", "events", "clock_ms"],
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for &(racks, hosts_per_rack) in fabrics {
        let spec = spec(racks, hosts_per_rack, quick);
        let ((events, clock_ns), wall) = wall_ns(|| run_fabric(&spec, 42, 0));
        series.push_row(vec![
            spec.hosts().to_string(),
            racks.to_string(),
            events.to_string(),
            f1(clock_ns as f64 / 1e6),
        ]);
        eprintln!(
            "[figures] F5 measured: hosts={} shards={} wall_ms={} Mev_per_s={} peak_rss_mb={} \
             cores={cores}",
            spec.hosts(),
            rdv_netsim::default_shards(),
            f1(wall as f64 / 1e6),
            f2(events as f64 * 1e3 / wall.max(1) as f64),
            f1(peak_rss_mb()),
        );
    }
    series.note(
        "events and clock_ms are simulation outputs, byte-identical for every shard count \
         (asserted by tests/shard_determinism.rs at small scale and by scripts/contract.sh's \
         --shards 1 vs 8 cmp at these sizes); events/s, wall time and peak RSS are readings of \
         whichever box ran the sweep, so figures prints them on stderr ([figures] F5 measured: \
         ...) and never writes them here — rdvperf storm_100k is the judged measurement",
    );
    if quick {
        series.note("quick mode: per-node traffic budget bounded for CI; fabric sizes unchanged");
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5_json_is_a_pure_function_of_the_seed() {
        // Keep the module test tiny: one sub-1k fabric, not the full sweep.
        let first = sweep(&[(4, 8)], true);
        assert_eq!(first.columns, ["hosts", "racks", "events", "clock_ms"]);
        assert_eq!(first.rows.len(), 1);
        assert!(first.rows[0][2].parse::<u64>().expect("events is an integer") > 0);
        assert_eq!(sweep(&[(4, 8)], true).to_json(), first.to_json());
    }

    #[test]
    fn rss_probe_reads_proc_when_present() {
        let mb = peak_rss_mb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(mb > 0.0, "VmHWM must parse on Linux");
        }
    }
}
