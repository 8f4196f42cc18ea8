//! Property-based tests for the numerics substrate.

use omcf_numerics::{Cdf, NeumaierSum, Rng64, SplitMix64, Xf64, Xoshiro256pp};
use proptest::prelude::*;

proptest! {
    /// Xf64 roundtrips every positive finite f64 exactly (to 1 ulp).
    #[test]
    fn xf64_roundtrip(v in 1e-300f64..1e300) {
        let x = Xf64::from_f64(v);
        let back = x.to_f64();
        prop_assert!((back - v).abs() <= v * 1e-15, "{v} -> {back}");
    }

    /// Multiplication in Xf64 equals addition of logs.
    #[test]
    fn xf64_mul_is_log_add(a in 1e-200f64..1e200, b in 1e-200f64..1e200) {
        let p = Xf64::from_f64(a) * Xf64::from_f64(b);
        prop_assert!((p.ln() - (a.ln() + b.ln())).abs() < 1e-9);
    }

    /// Ordering of Xf64 matches ordering of logs.
    #[test]
    fn xf64_order_matches_ln(a in -2000.0f64..2000.0, b in -2000.0f64..2000.0) {
        let (xa, xb) = (Xf64::exp(a), Xf64::exp(b));
        prop_assert_eq!(xa < xb, a < b);
    }

    /// Division undoes multiplication.
    #[test]
    fn xf64_div_inverse(a in 1e-100f64..1e100, b in 1e-100f64..1e100) {
        let q = (Xf64::from_f64(a) * Xf64::from_f64(b)) / Xf64::from_f64(b);
        prop_assert!((q.to_f64() - a).abs() <= a * 1e-12);
    }

    /// Compensated sums match exact rational arithmetic on small integers.
    #[test]
    fn compensated_sums_exact_on_integers(vals in prop::collection::vec(-1000i32..1000, 0..200)) {
        let exact: i64 = vals.iter().map(|v| *v as i64).sum();
        let neumaier: NeumaierSum = vals.iter().map(|v| *v as f64).collect();
        prop_assert_eq!(neumaier.value(), exact as f64);
    }

    /// CDF accumulative share is monotone and normalized for any sample.
    #[test]
    fn cdf_share_monotone(vals in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let total: f64 = vals.iter().sum();
        let cdf = Cdf::new(vals);
        let curve = cdf.accumulative_share();
        for w in curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        if total > 0.0 {
            prop_assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_monotone(vals in prop::collection::vec(0.0f64..1e3, 2..50), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let cdf = Cdf::new(vals.clone());
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi) + 1e-12);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(cdf.quantile(0.0) >= min - 1e-12 && cdf.quantile(1.0) <= max + 1e-12);
    }

    /// Gini is in [0, 1) and zero for constant samples.
    #[test]
    fn gini_bounded(vals in prop::collection::vec(0.0f64..100.0, 1..80)) {
        let g = Cdf::new(vals).gini();
        prop_assert!((0.0 - 1e-9..1.0).contains(&g), "gini {g}");
    }

    /// `next_below` stays in range for arbitrary bounds.
    #[test]
    fn next_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256pp::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// `sample_indices` always yields distinct in-range indices.
    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = SplitMix64::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Weighted index never picks a zero-weight entry.
    #[test]
    fn weighted_index_avoids_zeros(seed in any::<u64>(), n in 2usize..20) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut weights = vec![0.0f64; n];
        // Make half the entries positive.
        for (i, w) in weights.iter_mut().enumerate() {
            if i % 2 == 0 {
                *w = 1.0 + i as f64;
            }
        }
        for _ in 0..30 {
            let pick = rng.weighted_index(&weights);
            prop_assert!(weights[pick] > 0.0);
        }
    }
}
