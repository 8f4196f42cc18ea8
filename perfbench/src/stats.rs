//! Order statistics over timing samples and over the telemetry crate's
//! log2-bucketed histograms.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (`p` in `(0, 100]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile of a log2-bucketed histogram (bucket `k` holds observations
/// in `[2^k, 2^(k+1))`, bucket 0 also holds 0), interpolated linearly
/// inside the bucket that holds the nearest-rank sample and clamped to the
/// observed `[min, max]`. `None` when the histogram is empty.
pub fn histogram_percentile(buckets: &[(u8, u64)], min: u64, max: u64, p: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for &(k, n) in buckets {
        if below + n >= rank {
            let lo = if k == 0 { 0.0 } else { (1u64 << k) as f64 };
            let hi = (1u64 << (k + 1)) as f64;
            let within = (rank - below) as f64 - 0.5;
            let v = lo + (hi - lo) * within / n as f64;
            return Some(v.clamp(min as f64, max as f64));
        }
        below += n;
    }
    Some(max as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_rejects_empty() {
        let _ = median(&[]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        // Few samples: p99 is the maximum, p50 the lower middle.
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 99.0), 9.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0, 7.0], 50.0), 4.0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let v = [0.3, 7.0, 1.5, 1.5, 9.25, 4.0, 0.0];
        let mut last = f64::NEG_INFINITY;
        for p in 1..=100 {
            let x = percentile(&v, f64::from(p));
            assert!(x >= last, "p{p}: {x} < {last}");
            last = x;
        }
    }

    #[test]
    fn histogram_percentile_interpolates_within_bucket() {
        // 10 observations in [16, 32): the median sits mid-bucket.
        let p50 = histogram_percentile(&[(4, 10)], 16, 31, 50.0).unwrap();
        assert!((p50 - (16.0 + 16.0 * 4.5 / 10.0)).abs() < 1e-12, "{p50}");
        // The rank crosses into the second bucket.
        let p90 = histogram_percentile(&[(2, 5), (5, 5)], 4, 60, 90.0).unwrap();
        assert!((32.0..64.0).contains(&p90), "{p90}");
        // Clamped to the observed range, and empty histograms give None.
        assert_eq!(histogram_percentile(&[(3, 1)], 9, 9, 50.0), Some(9.0));
        assert_eq!(histogram_percentile(&[], 0, 0, 50.0), None);
        // Bucket 0 spans [0, 2).
        let z = histogram_percentile(&[(0, 4)], 0, 1, 50.0).unwrap();
        assert!((0.0..2.0).contains(&z));
    }
}
