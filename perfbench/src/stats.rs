//! Order statistics and process measurements.

/// Median of `values` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The nearest-rank `q` quantile (0 < q ≤ 1) of `values`; `NaN` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Percentiles the tail rule considers, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PCTS`] that leaves at least `min_beyond`
/// samples beyond its nearest rank, so a tail figure never rests on a
/// handful of samples. `None` when even the median leaves fewer.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PCTS.iter().find_map(|&pct| {
        // Nearest rank, 1-based: the smallest rank covering pct % of n.
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= min_beyond).then(|| Tail {
            pct,
            value: v[rank - 1],
            beyond,
            n,
        })
    })
}

/// Peak resident-set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 3.0);
        assert_eq!(quantile(&v[..5], 0.1), 1.0);
        assert_eq!(quantile(&v, 1.0), 30.0);
        assert!(quantile(&[], 0.1).is_nan());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 sample beyond; p99 leaves exactly 10.
        let t = tail(&v, 10).expect("1000 samples support p99");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

        // 999 samples: p99 rank 990 leaves 9, so the rule drops to p95.
        let t = tail(&v[..999], 10).expect("999 samples support p95");
        assert_eq!((t.pct, t.beyond), (95.0, 49));

        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&v[..20], 10).expect("20 samples support p50");
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));

        // Fewer than 20 samples: no percentile qualifies.
        assert_eq!(tail(&v[..19], 10), None);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let sorted_tail = {
            v.sort_by(f64::total_cmp);
            tail(&v, 10)
        };
        v.reverse();
        assert_eq!(tail(&v, 10), sorted_tail);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
