//! Byte-deterministic exporters: JSON for tooling, an aligned text table
//! with unicode sparklines for humans.
//!
//! Both formats use integer arithmetic only and iterate gauges in
//! first-registration order, so for a fixed seed the output is
//! byte-identical across processes and worker counts — the same contract
//! every other artifact in the repo honours.

use rdv_trace::export::json_escape;

use crate::set::{MetricSet, Series};

/// Render the whole set as deterministic JSON:
/// `{"experiment":…,"seed":…,"sample_interval_ns":…,"ticks":…,
///   "series":[{"name":…,"dropped":…,"points":[[t,v],…]},…],
///   "violations":[{"at_ns":…,"invariant":…,"detail":…,"event_id":…},…]}`.
pub fn json(set: &MetricSet, experiment: &str, seed: u64) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"experiment\":\"{}\",\"seed\":{},\"sample_interval_ns\":{},\"ticks\":{},",
        json_escape(experiment),
        seed,
        set.sample_interval_ns(),
        set.ticks()
    ));
    s.push_str("\"series\":[");
    for (i, name) in set.names().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let series = set.series(i);
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"dropped\":{},\"points\":[",
            json_escape(name),
            series.dropped()
        ));
        for (j, (at, v)) in series.points().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{at},{v}]"));
        }
        s.push_str("]}");
    }
    s.push_str("],\"violations\":[");
    for (i, v) in set.violations().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let ev = match v.event_id {
            Some(id) => id.0.to_string(),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "{{\"at_ns\":{},\"invariant\":\"{}\",\"detail\":\"{}\",\"event_id\":{ev}}}",
            v.at_ns,
            json_escape(v.invariant),
            json_escape(&v.detail)
        ));
    }
    s.push_str("]}\n");
    s
}

/// The eight sparkline levels, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a series as a fixed-width sparkline: points are bucketed into
/// at most `cols` columns (bucket value = integer mean), then mapped onto
/// eight levels across the series' own min–max range. All-integer math.
pub fn sparkline(series: &Series, cols: usize) -> String {
    let pts: Vec<u64> = series.points().map(|(_, v)| v).collect();
    if pts.is_empty() || cols == 0 {
        return String::new();
    }
    let cols = cols.min(pts.len());
    let mut buckets = Vec::with_capacity(cols);
    for c in 0..cols {
        let lo = c * pts.len() / cols;
        let hi = ((c + 1) * pts.len() / cols).max(lo + 1);
        let sum: u128 = pts[lo..hi].iter().map(|&v| v as u128).sum();
        buckets.push((sum / (hi - lo) as u128) as u64);
    }
    let min = *buckets.iter().min().unwrap();
    let max = *buckets.iter().max().unwrap();
    let span = max - min;
    buckets
        .iter()
        .map(|&v| {
            let level = if span == 0 {
                if v > 0 {
                    3
                } else {
                    0
                }
            } else {
                (((v - min) as u128 * 7 + (span as u128) / 2) / span as u128) as usize
            };
            SPARKS[level]
        })
        .collect()
}

/// Render the set as an aligned text table: per gauge the min / max /
/// last values and a sparkline of the whole series.
pub fn text_table(set: &MetricSet, title: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!("== metrics — {title} ==\n"));
    s.push_str(&format!(
        "  interval {} ns, {} ticks, {} series, {} violations\n",
        set.sample_interval_ns(),
        set.ticks(),
        set.names().len(),
        set.violations().len()
    ));
    let name_w = set.names().iter().map(|n| n.len()).max().unwrap_or(4).max(4);
    s.push_str(&format!(
        "  {:<name_w$} {:>10} {:>10} {:>10}  trend\n",
        "name", "min", "max", "last"
    ));
    for (i, name) in set.names().iter().enumerate() {
        let series = set.series(i);
        let vals: Vec<u64> = series.points().map(|(_, v)| v).collect();
        let (min, max) =
            (vals.iter().min().copied().unwrap_or(0), vals.iter().max().copied().unwrap_or(0));
        let last = series.last().map(|(_, v)| v).unwrap_or(0);
        s.push_str(&format!(
            "  {name:<name_w$} {min:>10} {max:>10} {last:>10}  {}\n",
            sparkline(series, 40)
        ));
    }
    for v in set.violations() {
        s.push_str(&format!("  VIOLATION t={} ns [{}] {}\n", v.at_ns, v.invariant, v.detail));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::MetricsConfig;

    fn sample_set() -> MetricSet {
        let mut set =
            MetricSet::enabled(MetricsConfig { sample_interval_ns: 1000, ..Default::default() });
        for t in 1..=8u64 {
            let mut m = set.sampler(t * 1000);
            m.set_instance("l0");
            m.gauge("link.queue_bytes", t * 100);
            m.clear_instance();
            m.gauge("engine.inflight_packets", 8 - t);
            set.advance();
        }
        set
    }

    #[test]
    fn json_is_wellformed_and_deterministic() {
        let a = json(&sample_set(), "F3", 7);
        let b = json(&sample_set(), "F3", 7);
        assert_eq!(a, b, "byte-identical across runs");
        assert!(a.starts_with("{\"experiment\":\"F3\",\"seed\":7,"));
        assert!(a.contains("\"name\":\"link.queue_bytes.l0\""));
        assert!(a.contains("[1000,100]"));
        assert!(a.contains("\"violations\":[]"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn sparkline_maps_range_onto_levels() {
        let set = sample_set();
        let rising = sparkline(set.series(0), 8);
        assert_eq!(rising.chars().count(), 8);
        assert_eq!(rising.chars().next(), Some('▁'));
        assert_eq!(rising.chars().last(), Some('█'));
        let falling = sparkline(set.series(1), 8);
        assert_eq!(falling.chars().next(), Some('█'));
        assert_eq!(falling.chars().last(), Some('▁'));
    }

    #[test]
    fn sparkline_flat_and_empty_series() {
        let mut set =
            MetricSet::enabled(MetricsConfig { sample_interval_ns: 10, ..Default::default() });
        {
            let mut m = set.sampler(10);
            m.gauge("engine.inflight_packets", 5);
            m.gauge("transport.inflight", 0);
        }
        assert_eq!(sparkline(set.series(0), 10), "▄", "flat nonzero sits mid-scale");
        assert_eq!(sparkline(set.series(1), 10), "▁", "flat zero sits on the floor");
    }

    #[test]
    fn text_table_aligns_and_summarizes() {
        let t = text_table(&sample_set(), "test");
        assert!(t.starts_with("== metrics — test ==\n"));
        assert!(t.contains("interval 1000 ns, 8 ticks, 2 series, 0 violations"));
        assert!(t.contains("link.queue_bytes.l0"));
        let a = text_table(&sample_set(), "test");
        assert_eq!(t, a, "byte-identical across runs");
    }
}
