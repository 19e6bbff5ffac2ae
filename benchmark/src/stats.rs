//! Order statistics and host-side measurements shared by every workload.

/// Nearest-rank quantile (`permille` = 500 for the median) of `samples`,
/// which are reordered in place. Rank `⌈permille·n/1000⌉`, 1-based — the
/// definition `rdv_load::nearest_rank` uses, without needing a full sort.
pub fn quantile(samples: &mut [u64], permille: u64) -> u64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let n = samples.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable((rank - 1) as usize);
    *v
}

/// Median of a small set of floating-point measurements.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// splitmix64: the seed-splitting hash every generator here derives its
/// sub-streams and per-item pseudo-random values from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_nearest_rank_on_a_sorted_copy() {
        let base: Vec<u64> = (0..1000).map(|i| splitmix64(i) % 10_000).collect();
        let mut sorted = base.clone();
        sorted.sort_unstable();
        for permille in [1, 500, 990, 999, 1000] {
            let mut work = base.clone();
            assert_eq!(
                quantile(&mut work, permille),
                rdv_load::nearest_rank(&sorted, permille),
                "permille {permille}"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
