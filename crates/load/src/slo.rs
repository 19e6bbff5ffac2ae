//! SLO series: windowed latency quantiles and goodput over sim time.
//!
//! Latency SLOs are stated as nearest-rank quantiles (p50/p99/p999) of
//! the completion latencies inside each sample window, alongside the
//! offered and achieved (goodput) rates. The series are plain data and
//! can be emitted into the rdv-metrics gauge plane (`load.*` gauges,
//! D3-validated against the name table), so `figures --metrics` renders
//! them with the same exporters as every engine gauge.

use rdv_metrics::MetricSet;

/// Nearest-rank quantile of an ascending-sorted sample set.
///
/// `permille` is the quantile in permille (500 = p50, 999 = p999). The
/// nearest-rank definition: rank `⌈permille·n/1000⌉`, 1-based, clamped
/// to `[1, n]`; an empty sample set yields 0. With a single sample every
/// quantile is that sample; with all-equal samples every quantile is the
/// common value — the oracle cases the SLO correctness test pins down.
pub fn nearest_rank(sorted: &[u64], permille: u64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// One SLO sample window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPoint {
    /// Window end (ns); the window covers `(at - interval, at]`.
    pub at_ns: u64,
    /// Offered arrivals in the window, scaled to per-second.
    pub offered_per_s: u64,
    /// Completions in the window, scaled to per-second (goodput).
    pub goodput_per_s: u64,
    /// p50 completion latency in the window, microseconds (0 if empty).
    pub p50_us: u64,
    /// p99 completion latency in the window, microseconds (0 if empty).
    pub p99_us: u64,
    /// p999 completion latency in the window, microseconds (0 if empty).
    pub p999_us: u64,
}

/// A windowed SLO series over one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSeries {
    /// Window length, nanoseconds.
    pub interval_ns: u64,
    /// One point per window, time-ascending.
    pub points: Vec<SloPoint>,
}

impl SloSeries {
    /// Compute the windowed series.
    ///
    /// `arrivals_ns` are scheduled arrival times; `completions` are
    /// `(completed_at_ns, latency_ns)` pairs. Windows are
    /// `(k·interval, (k+1)·interval]` for `k·interval < until_ns`,
    /// matching the rdv-metrics tick convention (first tick at one
    /// interval, covering the window since 0). Neither input needs to be
    /// sorted; windowing buckets by timestamp.
    pub fn compute(
        arrivals_ns: &[u64],
        completions: &[(u64, u64)],
        interval_ns: u64,
        until_ns: u64,
    ) -> SloSeries {
        assert!(interval_ns > 0, "interval must be positive");
        let windows = until_ns.div_ceil(interval_ns).max(1) as usize;
        let mut offered = vec![0u64; windows];
        let mut lats: Vec<Vec<u64>> = vec![Vec::new(); windows];
        let bucket = |at_ns: u64| -> usize {
            // Window k covers (k·I, (k+1)·I]; time 0 lands in window 0.
            (at_ns.saturating_sub(1) / interval_ns).min(windows as u64 - 1) as usize
        };
        for &a in arrivals_ns {
            offered[bucket(a)] += 1;
        }
        for &(done, lat) in completions {
            lats[bucket(done)].push(lat);
        }
        let points = (0..windows)
            .map(|k| {
                let mut l = std::mem::take(&mut lats[k]);
                l.sort_unstable();
                let scale =
                    |count: u64| (count as u128 * 1_000_000_000 / interval_ns as u128) as u64;
                SloPoint {
                    at_ns: (k as u64 + 1) * interval_ns,
                    offered_per_s: scale(offered[k]),
                    goodput_per_s: scale(l.len() as u64),
                    p50_us: nearest_rank(&l, 500) / 1000,
                    p99_us: nearest_rank(&l, 990) / 1000,
                    p999_us: nearest_rank(&l, 999) / 1000,
                }
            })
            .collect();
        SloSeries { interval_ns, points }
    }

    /// Emit the series into a [`MetricSet`] as the five `load.*` gauges.
    pub fn emit(&self, set: &mut MetricSet) {
        for p in &self.points {
            let mut s = set.sampler(p.at_ns);
            s.gauge("load.offered_per_s", p.offered_per_s);
            s.gauge("load.goodput_per_s", p.goodput_per_s);
            s.gauge("load.p50_us", p.p50_us);
            s.gauge("load.p99_us", p.p99_us);
            s.gauge("load.p999_us", p.p999_us);
        }
    }

    /// Mean goodput (per-second) over windows ending in `(from, to]`.
    pub fn mean_goodput(&self, from_ns: u64, to_ns: u64) -> u64 {
        let vals: Vec<u64> = self
            .points
            .iter()
            .filter(|p| p.at_ns > from_ns && p.at_ns <= to_ns)
            .map(|p| p.goodput_per_s)
            .collect();
        if vals.is_empty() {
            0
        } else {
            vals.iter().sum::<u64>() / vals.len() as u64
        }
    }

    /// First window ending after `after_ns` whose goodput is at or above
    /// `floor_per_s`; returns its end time. `None` if goodput never
    /// recovers. The F6 recovery-time column is
    /// `recovery_ns(blip_end, 90% of pre-blip mean) - blip_end`.
    pub fn recovery_ns(&self, after_ns: u64, floor_per_s: u64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.at_ns > after_ns && p.goodput_per_s >= floor_per_s)
            .map(|p| p.at_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(nearest_rank(&[], 500), 0);
        assert_eq!(nearest_rank(&[], 999), 0);
        assert_eq!(nearest_rank(&[7], 500), 7);
        assert_eq!(nearest_rank(&[7], 999), 7);
        assert_eq!(nearest_rank(&[5, 5, 5, 5], 500), 5);
        assert_eq!(nearest_rank(&[5, 5, 5, 5], 999), 5);
    }

    #[test]
    fn nearest_rank_textbook_values() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 500), 50);
        assert_eq!(nearest_rank(&s, 990), 99);
        assert_eq!(nearest_rank(&s, 999), 100);
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&s, 500), 5);
        assert_eq!(nearest_rank(&s, 990), 10);
    }

    #[test]
    fn windows_bucket_and_scale() {
        // interval 1000 ns: window 0 = (0,1000], window 1 = (1000,2000].
        let arrivals = [1, 500, 1000, 1001, 1500];
        let completions = [(900, 3000), (1999, 7000), (2000, 9000)];
        let s = SloSeries::compute(&arrivals, &completions, 1000, 2000);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].offered_per_s, 3_000_000);
        assert_eq!(s.points[1].offered_per_s, 2_000_000);
        assert_eq!(s.points[0].goodput_per_s, 1_000_000);
        assert_eq!(s.points[1].goodput_per_s, 2_000_000);
        assert_eq!(s.points[0].p50_us, 3);
        assert_eq!(s.points[1].p50_us, 7);
        assert_eq!(s.points[1].p999_us, 9);
    }

    #[test]
    fn empty_window_reports_zeroes() {
        let s = SloSeries::compute(&[], &[], 1000, 3000);
        assert_eq!(s.points.len(), 3);
        for p in &s.points {
            assert_eq!(
                (p.offered_per_s, p.goodput_per_s, p.p50_us, p.p99_us, p.p999_us),
                (0, 0, 0, 0, 0)
            );
        }
    }

    #[test]
    fn recovery_and_mean_goodput() {
        let completions: Vec<(u64, u64)> = (0..10)
            .flat_map(|w| {
                // Dip in windows 4 and 5.
                let n = if w == 4 || w == 5 { 1 } else { 10 };
                (0..n).map(move |i| (w * 1000 + 100 + i, 2000u64))
            })
            .collect();
        let s = SloSeries::compute(&[], &completions, 1000, 10_000);
        let before = s.mean_goodput(0, 4000);
        assert_eq!(before, 10_000_000);
        assert!(s.mean_goodput(4000, 6000) < before / 5);
        // Recovers at the window ending 7000 (covering (6000,7000]).
        assert_eq!(s.recovery_ns(6000, before * 9 / 10), Some(7000));
        assert_eq!(s.recovery_ns(60_000, 1), None);
    }
}
