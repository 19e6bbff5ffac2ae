//! F8 — p999 tail attribution at scale: where the blip's tail latency
//! lives, decomposed from deterministic sampled traces (ISSUE 10).
//!
//! The F6 blip workload (same schedule, same fault window, same patience
//! budget) runs on fabrics grown to 1 k / 10 k / 100 k hosts: the extra
//! hosts hold no log heads but run a real background anti-entropy plane
//! (journal gossip in rack-sized regions), so the switch routes — and the
//! tracer samples — a fabric of paper scale, not a seven-node testbed.
//! Every completed `load.batch` span is kept by the deterministic sampler
//! (verdicts are pure in the op's origin stamp, never ring occupancy);
//! `gossip.round` chains are kept at a per-scale rate that pins the
//! background sample count, so the recorded bytes are identical across
//! `--shards`, `--jobs`, and processes. Each scale runs once, at the
//! process's shard count; `tests/shard_determinism.rs` compares the full
//! [`fingerprint`] at shards 1/2/8 on a 64-host fabric and
//! `scripts/contract.sh` `cmp`s the 1 k-host rows at `--shards 1` vs `8`.
//! (A traced run executes its windows serially whatever the shard count —
//! `Sim::run_until` only goes parallel with the tracer off — so what
//! those checks exercise for F8 is the sharded *layout*: per-shard queues,
//! RNG streams and canonical-key merges.)
//!
//! Each batch's critical path is then joined to its fault window (issued
//! before / during / after the blip) and its quantile cohort (typical half, top
//! 1 %, top 0.1 %), and decomposed two ways: mechanically into
//! host/queue/link/timer-wait, and by protocol layer — discovery
//! (watchdog + retry machinery), gossip (anti-entropy), memproto (holder
//! serve + reply), replog (batch issue and transport). The p999 rows are
//! the figure: a healthy-window batch is link + memproto; a blip-window
//! p999 batch is almost entirely timer-wait charged to the discovery
//! layer — the watchdog patience that buys F6's recovery.

use rdv_discovery::host::tags;
use rdv_load::{nearest_rank, LoadRun};
use rdv_netsim::trace::critical::{CriticalPath, CATEGORIES};
use rdv_netsim::trace::{EventKind, SampleSpec, Tracer};
use rdv_netsim::SimTime;

use super::f6;
use crate::report::Series;

/// Protocol layers a path segment can be charged to, in column order.
pub const LAYERS: [&str; 4] = ["discovery", "gossip", "memproto", "replog"];

/// `(total hosts, gossip period µs, gossip.round keep-permille)` per scale
/// row. The period relaxes and the sampling rate tightens as the fabric
/// grows, pinning both per-host background bandwidth and the sampled
/// round count (~500) at every scale.
const SCALES: [(usize, u64, u16); 3] = [(1_024, 40, 20), (10_240, 80, 4), (102_400, 200, 1)];

/// Completion windows relative to the blip, in row order.
const WINDOWS: [&str; 3] = ["pre", "blip", "post"];

/// Quantile rows per window: `(label, nearest-rank permille)`.
const QUANTILES: [(&str, u64); 3] = [("p50", 500), ("p99", 990), ("p999", 999)];

fn layer_idx(layer: &str) -> usize {
    LAYERS.iter().position(|&l| l == layer).expect("known layer")
}

/// The protocol layer a chain event pins the path to, if it pins one:
/// timer tags identify the machinery that armed them, span/mark labels
/// identify the plane that emitted them. Packet legs carry no layer of
/// their own — they inherit the last pinned layer (see [`layer_split`]).
fn layer_hint(kind: EventKind) -> Option<&'static str> {
    match kind {
        EventKind::TimerSet { tag }
        | EventKind::TimerFire { tag }
        | EventKind::TimerDrop { tag } => {
            if tag & tags::DEFER != 0 {
                Some("memproto")
            } else if tag & (tags::ACCESS_TIMEOUT | tags::RETRY) != 0 {
                Some("discovery")
            } else if tag & tags::GOSSIP != 0 {
                Some("gossip")
            } else {
                None
            }
        }
        _ => match kind.label() {
            Some(l) if l.starts_with("gossip.") => Some("gossip"),
            Some(l) if l.starts_with("discovery.") => Some("discovery"),
            Some(l) if l.starts_with("memproto.") => Some("memproto"),
            Some(l) if l.starts_with("load.") => Some("replog"),
            _ => None,
        },
    }
}

/// Charge every segment of `path` to a protocol layer: a segment takes
/// the layer its ending event pins (a watchdog fire is discovery time, a
/// defer fire is memproto serve time), and unpinned segments — packet
/// legs, host dispatch — inherit the most recent pin, starting from
/// `default_layer` (replog for batch paths).
fn layer_split(tracer: &Tracer, path: &CriticalPath, default_layer: &'static str) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut cur = default_layer;
    for seg in &path.segments {
        if let Some(h) = tracer.get(seg.to).map(|e| layer_hint(e.kind)).unwrap_or(None) {
            cur = h;
        }
        out[layer_idx(cur)] += seg.ns;
    }
    out
}

/// One extracted batch path: completion time, recorded latency, and its
/// category/layer decompositions.
struct BatchPath {
    completed_ns: u64,
    latency_ns: u64,
    by_category: [u64; 4],
    by_layer: [u64; 4],
}

/// FNV-1a over the full recorded event stream — the byte-identity
/// fingerprint [`fingerprint`] reports.
fn trace_fingerprint(tracer: &Tracer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (id, ev) in tracer.iter() {
        mix(&id.0.to_le_bytes());
        mix(&ev.at.to_le_bytes());
        mix(&ev.node.to_le_bytes());
        mix(ev.kind.name().as_bytes());
        mix(ev.kind.label().unwrap_or("").as_bytes());
        mix(&ev.cause.map(|c| c.0 + 1).unwrap_or(0).to_le_bytes());
        mix(&ev.aux.map(|a| a.0 + 1).unwrap_or(0).to_le_bytes());
    }
    h
}

fn sample_spec(gossip_permille: u16, seed: u64) -> SampleSpec {
    SampleSpec {
        seed: seed ^ 0xF8,
        default_permille: 0,
        classes: vec![("load.batch", 1000), ("gossip.round", gossip_permille)],
    }
}

/// One scale point, distilled to everything the rows need (plus the
/// fingerprint that must not depend on the shard count).
struct ScaleRun {
    fingerprint: String,
    completions: Vec<(u64, u64)>,
    paths: Vec<BatchPath>,
    /// `(end_ns, rtt_ns)` of completed background `gossip.sync` spans
    /// (digest send → delta landing) on sampled round chains.
    bg_syncs: Vec<(u64, u64)>,
}

fn run_scale(hosts: usize, period_us: u64, gossip_permille: u16) -> ScaleRun {
    let replog = f6::replog_spec();
    let mut fabric = f6::fabric_spec();
    fabric.bystanders = hosts - replog.writers as usize - fabric.holders;
    fabric.gossip_period = Some(SimTime::from_micros(period_us));
    let seed = 0xF8 + hosts as u64;
    let spec = sample_spec(gossip_permille, seed);
    let run = LoadRun::execute_traced(
        &fabric,
        &f6::open_spec(1000),
        &replog,
        Some(&f6::blip()),
        seed,
        &spec,
    );
    let tracer = run.tracer.as_ref().expect("traced run");

    let mut fingerprint = run.fingerprint();
    fingerprint.push_str(&format!(
        "trace_count={};trace_fnv={:016x};",
        tracer.count(),
        trace_fingerprint(tracer)
    ));

    let paths = run
        .traced_batches
        .iter()
        .map(|&(completed_ns, latency_ns, end)| {
            let path = CriticalPath::from_span(tracer, end);
            let mut by_category = [0u64; 4];
            for (i, cat) in CATEGORIES.iter().enumerate() {
                by_category[i] = path.category_ns(cat);
            }
            let by_layer = layer_split(tracer, &path, "replog");
            BatchPath { completed_ns, latency_ns, by_category, by_layer }
        })
        .collect();

    let mut bg_syncs = Vec::new();
    for (id, ev) in tracer.iter() {
        if matches!(ev.kind, EventKind::SpanEnd { name: "gossip.sync" }) {
            bg_syncs.push((ev.at, CriticalPath::from_span(tracer, id).total_ns));
        }
    }

    ScaleRun { fingerprint, completions: run.completions.clone(), paths, bg_syncs }
}

/// Integer percentages of `parts` against their own sum (all zeros when
/// the sum is zero).
fn pct(parts: [u64; 4]) -> [u64; 4] {
    let total: u64 = parts.iter().sum();
    let mut out = [0u64; 4];
    for (o, p) in out.iter_mut().zip(parts) {
        *o = (p * 100).checked_div(total).unwrap_or(0);
    }
    out
}

/// Which fault window an operation belongs to, classified by its *start*
/// time: a batch issued into the blip is the one that suffers it, even
/// though the watchdog patience it then pays means it completes well
/// after the fault clears. (Completion-time windows would file the whole
/// recovery tail under "post" and show the blip window as fast — only
/// the unaffected batches manage to complete inside it.)
fn window_of(start_ns: u64) -> &'static str {
    let blip_end = f6::BLIP_AT.as_nanos() + f6::BLIP_DUR.as_nanos();
    if start_ns < f6::BLIP_AT.as_nanos() {
        "pre"
    } else if start_ns < blip_end {
        "blip"
    } else {
        "post"
    }
}

fn push_scale_rows(series: &mut Series, hosts: usize, run: &ScaleRun) {
    for window in WINDOWS {
        let mut lats: Vec<u64> = run
            .completions
            .iter()
            .filter(|&&(done, lat)| window_of(done.saturating_sub(lat)) == window)
            .map(|&(_, lat)| lat)
            .collect();
        lats.sort_unstable();
        let in_window: Vec<&BatchPath> = run
            .paths
            .iter()
            .filter(|p| window_of(p.completed_ns.saturating_sub(p.latency_ns)) == window)
            .collect();
        let syncs: Vec<u64> = run
            .bg_syncs
            .iter()
            .filter(|&&(at, rtt)| window_of(at.saturating_sub(rtt)) == window)
            .map(|&(_, rtt)| rtt)
            .collect();
        let bg_sync_ns = syncs.iter().sum::<u64>().checked_div(syncs.len() as u64).unwrap_or(0);
        for (label, permille) in QUANTILES {
            let q = nearest_rank(&lats, permille);
            // Cohort: the typical half for p50, the tail at or past the
            // quantile for p99/p999.
            let cohort: Vec<&&BatchPath> = in_window
                .iter()
                .filter(|p| if label == "p50" { p.latency_ns <= q } else { p.latency_ns >= q })
                .collect();
            let mut by_cat = [0u64; 4];
            let mut by_layer = [0u64; 4];
            for p in &cohort {
                for i in 0..4 {
                    by_cat[i] += p.by_category[i];
                    by_layer[i] += p.by_layer[i];
                }
            }
            let cat_pct = pct(by_cat);
            let layer_pct = pct(by_layer);
            let mut row = vec![
                hosts.to_string(),
                window.to_string(),
                label.to_string(),
                lats.len().to_string(),
                (q / 1000).to_string(),
                cohort.len().to_string(),
            ];
            row.extend(cat_pct.iter().map(u64::to_string));
            row.extend(layer_pct.iter().map(u64::to_string));
            row.push(syncs.len().to_string());
            row.push(bg_sync_ns.to_string());
            series.push_row(row);
        }
    }
}

/// Sweep the scales (quick mode: the 1 k-host scale only).
pub fn run(quick: bool) -> Series {
    sweep(if quick { &SCALES[..1] } else { &SCALES })
}

/// Every scale's run fingerprint plus the count and FNV of its recorded
/// event stream — a finer observable than the attribution rows, for
/// `tests/shard_determinism.rs` to compare across shard counts.
pub fn fingerprint(scales: &[(usize, u64, u16)]) -> String {
    scales
        .iter()
        .map(|&(hosts, period_us, permille)| run_scale(hosts, period_us, permille).fingerprint)
        .collect()
}

/// The sweep body over `scales` = `(hosts, gossip period µs, gossip.round
/// keep-permille)` points, so tests can drive a debug-friendly scale
/// through the identical pipeline.
pub fn sweep(scales: &[(usize, u64, u16)]) -> Series {
    let mut series = Series::new(
        "F8",
        "p999 tail attribution: critical-path time by category and protocol layer through the \
         blip, from deterministic sampled traces at 1k-100k hosts (ISSUE 10)",
        &[
            "hosts",
            "window",
            "quantile",
            "batches",
            "lat_us",
            "paths",
            "host_pct",
            "queue_pct",
            "link_pct",
            "timer_wait_pct",
            "discovery_pct",
            "gossip_pct",
            "memproto_pct",
            "replog_pct",
            "bg_syncs",
            "bg_sync_ns",
        ],
    );
    for &(hosts, period_us, gossip_permille) in scales {
        push_scale_rows(&mut series, hosts, &run_scale(hosts, period_us, gossip_permille));
    }
    series.note(
        "F6 blip workload on fabrics grown with background-gossip bystanders; every load.batch \
         span sampled, gossip.round chains sampled at a per-scale rate; byte-identity at shards \
         1/2/8 (run fingerprint + FNV over the recorded event stream) is asserted by \
         tests/shard_determinism.rs at 64 hosts and by scripts/contract.sh's --shards 1 vs 8 \
         cmp at 1k hosts. windows classify by issue time: a batch issued into the blip owns its \
         recovery tail even though it completes after the fault clears. cohorts: p50 = typical \
         half (lat <= q50), p99/p999 = tail at or past the quantile. pct columns split cohort \
         critical-path ns mechanically \
         (host/queue/link/timer-wait) and by protocol layer (discovery = watchdog/retry, \
         gossip = anti-entropy, memproto = serve+reply, replog = batch issue/transport); \
         bg_sync columns: sampled digest->delta round trips ending in the window",
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared tiny-scale sweep — 64 hosts, dense gossip sampling —
    /// driving the identical pipeline (sampled traces → critical paths →
    /// attribution rows) at a debug-friendly size. The real 1k/10k/100k
    /// sweep runs in release through `figures F8`; the same 64-host
    /// fixture is what `tests/shard_determinism.rs` replays at shards
    /// 1/2/8.
    fn tiny() -> &'static Series {
        static TINY: OnceLock<Series> = OnceLock::new();
        TINY.get_or_init(|| sweep(&[(64, 40, 200)]))
    }

    #[test]
    fn rows_cover_every_window_and_quantile() {
        let rows = &tiny().rows;
        assert_eq!(rows.len(), 9, "1 scale x 3 windows x 3 quantiles");
        for (wi, window) in WINDOWS.iter().enumerate() {
            for (qi, (label, _)) in QUANTILES.iter().enumerate() {
                let row = &rows[wi * 3 + qi];
                assert_eq!(row[0], "64");
                assert_eq!(row[1], *window);
                assert_eq!(row[2], *label);
            }
        }
    }

    #[test]
    fn blip_tail_is_timer_wait_charged_to_discovery() {
        let rows = &tiny().rows;
        let row = rows.iter().find(|r| r[1] == "blip" && r[2] == "p999").expect("blip p999 row");
        let lat_us: u64 = row[4].parse().unwrap();
        let timer_wait_pct: u64 = row[9].parse().unwrap();
        let discovery_pct: u64 = row[10].parse().unwrap();
        assert!(lat_us >= 200, "a p999 blip batch waits at least one watchdog window");
        assert!(timer_wait_pct >= 50, "the blip tail is dominated by deliberate waits");
        assert!(discovery_pct >= 50, "those waits belong to the discovery watchdog");
        // And the healthy window's typical batch is nothing like that.
        let pre = rows.iter().find(|r| r[1] == "pre" && r[2] == "p50").expect("pre p50 row");
        let pre_discovery: u64 = pre[10].parse().unwrap();
        assert!(pre_discovery < 50, "healthy typical paths are not discovery-bound");
    }

    #[test]
    fn background_plane_is_sampled_and_layers_partition() {
        let rows = &tiny().rows;
        let bg_total: u64 = rows.iter().step_by(3).map(|r| r[14].parse::<u64>().unwrap()).sum();
        assert!(bg_total > 0, "sampled gossip.sync round trips must appear");
        for row in rows {
            let cats: u64 = (6..10).map(|i| row[i].parse::<u64>().unwrap()).sum();
            let layers: u64 = (10..14).map(|i| row[i].parse::<u64>().unwrap()).sum();
            // Integer truncation loses at most 3 points across 4 shares.
            assert!(cats == 0 || (97..=100).contains(&cats), "categories partition: {cats}");
            assert!(layers == 0 || (97..=100).contains(&layers), "layers partition: {layers}");
            assert_eq!(cats == 0, layers == 0, "both splits cover the same ns");
        }
    }
}
