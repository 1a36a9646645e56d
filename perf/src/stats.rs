//! Order statistics over rounds and runs.
//!
//! Every timing the benchmark reports is an order statistic over many
//! identical rounds of one long run (see `README.md`, "Measured noise"):
//! a round yields one throughput and one p50, a run reports the median
//! of those. Nothing here reads a clock.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64)
}

/// Nearest-rank p50 of one round's op latencies (microseconds): the
/// same rule as `swim_obs` histograms, so a client-side p50 and a
/// server-side one can never disagree about what "p50" means.
pub fn round_p50_us(latencies_us: &[u64]) -> Option<u64> {
    let mut sorted = latencies_us.to_vec();
    sorted.sort_unstable();
    swim_obs::quantile_of_sorted(&sorted, 0.5)
}

/// The quartiles `(q1, median, q3)` by the exclusive method — what
/// Python's `statistics.quantiles(values, n=4)` returns, which is how
/// the acceptance driver computes a metric's spread. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Cut point k sits at position k*(n+1)/4 (1-based); the clamp
        // makes the ends extrapolate, exactly as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// `(q3 - q1) / median`: the relative spread the driver bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, mid, q3) = quartiles(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// `(max - min) / median`: how far single runs stray within a set.
pub fn range_over_median(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (mid != 0.0).then(|| (max - min) / mid)
}

/// The 1-based rank of the highest percentile, capped at `cap`, that
/// still has at least ten samples beyond it: rank `ceil(cap * n)` once
/// that leaves ten, else rank `n - 10`. `None` below eleven samples,
/// where no tail is supported.
pub fn tail_rank(n: usize, cap: f64) -> Option<usize> {
    if n < 11 {
        return None;
    }
    let cap_rank = ((cap * n as f64).ceil() as usize).clamp(1, n);
    Some(cap_rank.min(n - 10))
}

/// The pooled latency (microseconds) at [`tail_rank`], with the
/// percentile that rank stands for.
pub fn tail_us(latencies_us: &[u64], cap: f64) -> Option<(f64, u64)> {
    let n = latencies_us.len();
    let rank = tail_rank(n, cap)?;
    let mut sorted = latencies_us.to_vec();
    sorted.sort_unstable();
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_takes_the_middle() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow round does not move the run's figure.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 55.0]), Some(10.0));
        assert_eq!(median_u64(&[7, 1, 3]), Some(3.0));
    }

    #[test]
    fn round_p50_is_nearest_rank() {
        assert_eq!(round_p50_us(&[]), None);
        assert_eq!(round_p50_us(&[40]), Some(40));
        // Nearest rank never interpolates: the p50 is a latency some
        // request really had.
        assert_eq!(round_p50_us(&[10, 20, 30, 40]), Some(20));
        assert_eq!(round_p50_us(&[50, 10, 30, 20, 40]), Some(30));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, mid, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((mid - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, mid, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert_eq!((q1, mid, q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, mid, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, mid, q3), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten).unwrap() - 1.0).abs() < 1e-12);
        assert!((range_over_median(&ten).unwrap() - 9.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(10, 0.99), None);
        // 600 samples: p99 (rank 594) would leave only 6 beyond it.
        assert_eq!(tail_rank(600, 0.99), Some(590));
        // From 1000 samples on, p99 is supported and is the cap.
        assert_eq!(tail_rank(1000, 0.99), Some(990));
        assert_eq!(tail_rank(50_000, 0.99), Some(49_500));

        let sample: Vec<u64> = (1..=600).rev().collect();
        let (p, value) = tail_us(&sample, 0.99).unwrap();
        assert_eq!(sample.iter().filter(|&&v| v > value).count(), 10);
        assert!((p - 590.0 / 600.0).abs() < 1e-12);
        let sample: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_us(&sample, 0.99), Some((0.99, 1980)));
    }
}
