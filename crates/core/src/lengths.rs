//! Statically rescaled edge lengths for the exponential-length FPTAS.
//!
//! All algorithms maintain per-edge lengths that start at a tiny `δ`
//! (possibly below `f64` range) and grow multiplicatively to `O(|S_max|)`.
//! Two facts make a *single static power-of-two rescale* sufficient:
//!
//! 1. minimum-spanning-tree / shortest-path selection is invariant under
//!    multiplying every length by a common constant;
//! 2. the only absolute tests — "normalized tree length ≥ 1" (M1) and
//!    "Σ c_e d_e ≥ 1" (M2) — compare against the constant 1, whose scaled
//!    image we precompute.
//!
//! We store `stored_e = true_e · 2^k` with `k` fixed at construction such
//! that `δ · 2^k = 2^{-960}` (comfortably above the subnormal cliff while
//! leaving ~10^{590} of headroom). Construction panics when a requested
//! δ/top pair cannot fit — that happens only beyond ratio ≈ 0.993 on
//! paper-scale instances, outside anything evaluated.
//!
//! Correctness of the rescaling is cross-checked against the exact
//! extended-range [`omcf_numerics::Xf64`] arithmetic in the tests below.

/// Scaled image of true 0 exposed for tests.
const STORED_DELTA_LOG2: f64 = -960.0;
/// Highest stored magnitude we allow before declaring the ratio infeasible.
const STORED_TOP_LIMIT_LOG2: f64 = 990.0;

/// Per-edge lengths under a static power-of-two rescale.
#[derive(Clone, Debug)]
pub struct ScaledLengths {
    stored: Vec<f64>,
    /// `stored = true · 2^log2_scale`.
    log2_scale: f64,
    /// Scaled image of the constant 1 (`2^log2_scale`), used by stop tests.
    stored_one: f64,
}

impl ScaledLengths {
    /// Initializes every edge to true length `exp(ln_delta) · weight_e`,
    /// where `weights` allows the M2-style `δ/c_e` initialization
    /// (pass `1/c_e`) and M1's uniform `δ` (pass `1`).
    ///
    /// `ln_top_estimate` must upper-bound the natural log of the largest
    /// true length any edge will reach; the constructor verifies the whole
    /// range fits the rescaled `f64` domain.
    #[must_use]
    pub fn new(weights: &[f64], ln_delta: f64, ln_top_estimate: f64) -> Self {
        assert!(!weights.is_empty(), "no edges");
        assert!(weights.iter().all(|w| *w > 0.0 && w.is_finite()), "weights must be positive");
        // Smallest initial true length: δ · min weight.
        let min_w = weights.iter().copied().fold(f64::INFINITY, f64::min);
        let ln2 = std::f64::consts::LN_2;
        let log2_delta = (ln_delta + min_w.ln()) / ln2;
        let log2_scale = STORED_DELTA_LOG2 - log2_delta;
        let log2_top_stored = ln_top_estimate / ln2 + log2_scale;
        assert!(
            log2_top_stored <= STORED_TOP_LIMIT_LOG2,
            "approximation ratio too tight: length dynamic range 2^{:.0} exceeds f64; \
             use a coarser ratio",
            log2_top_stored - STORED_DELTA_LOG2,
        );
        let delta_stored_base = (STORED_DELTA_LOG2 * ln2).exp() / min_w;
        let stored = weights.iter().map(|w| delta_stored_base * w).collect();
        let stored_one = (log2_scale * ln2).exp();
        Self { stored, log2_scale, stored_one }
    }

    /// Identity-scale store: lengths start at exactly `weights` and the
    /// stop-test constant is exactly `1.0`. Used by the online algorithm,
    /// whose `δ = 1` initialization (`d_e = 1/c_e`) needs no rescaling —
    /// every stored value is the true value, bit for bit.
    #[must_use]
    pub fn raw(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no edges");
        assert!(weights.iter().all(|w| *w > 0.0 && w.is_finite()), "weights must be positive");
        Self { stored: weights.to_vec(), log2_scale: 0.0, stored_one: 1.0 }
    }

    /// The stored (rescaled) lengths — pass directly to the tree oracle.
    #[must_use]
    pub fn stored(&self) -> &[f64] {
        &self.stored
    }

    /// Scaled image of true 1.0: compare stored tree lengths against this
    /// for the paper's "length ≥ 1" tests. May be `inf` only if
    /// construction allowed it, which it does not.
    #[must_use]
    pub fn stored_one(&self) -> f64 {
        self.stored_one
    }

    /// Multiplies edge `e`'s length by `factor ≥ 1` (the exponential
    /// update `d_e ← d_e(1 + ε·…)`).
    pub fn scale_edge(&mut self, e: usize, factor: f64) {
        debug_assert!(factor >= 1.0 && factor.is_finite(), "length updates only grow");
        self.stored[e] *= factor;
        debug_assert!(self.stored[e].is_finite(), "length overflow on edge {e}");
    }

    /// Overwrites edge `e`'s stored length — the rollback hook. Unlike
    /// [`Self::scale_edge`] this may *shrink* a length (a departing
    /// session's contribution is replayed out), which voids the
    /// monotone-growth reasoning behind epoch-based oracle caching: the
    /// caller owns invalidating any epoch clock covering this store
    /// (`EdgeEpochs::invalidate_all`).
    pub fn set_edge(&mut self, e: usize, stored: f64) {
        assert!(stored > 0.0 && stored.is_finite(), "lengths must stay positive and finite");
        self.stored[e] = stored;
    }

    /// True natural log of edge `e`'s length.
    #[must_use]
    pub fn ln_true(&self, e: usize) -> f64 {
        self.stored[e].ln() - self.log2_scale * std::f64::consts::LN_2
    }

    /// Σ `coeff_e · d_e` in stored scale (e.g. the D2 objective with
    /// `coeff = c_e`). Compare against [`Self::stored_one`].
    #[must_use]
    pub fn weighted_sum_stored(&self, coeffs: &[f64]) -> f64 {
        debug_assert_eq!(coeffs.len(), self.stored.len());
        self.stored
            .iter()
            .zip(coeffs)
            .map(|(d, c)| d * c)
            .collect::<omcf_numerics::NeumaierSum>()
            .value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::Xf64;

    #[test]
    fn uniform_init_at_delta() {
        let ln_delta = -500.0; // e^-500 ≈ 10^-217, below f64::MIN_POSITIVE? no, representable
        let s = ScaledLengths::new(&[1.0, 1.0, 1.0], ln_delta, 5.0);
        // All stored equal; true value recovered through ln_true.
        assert!((s.ln_true(0) - ln_delta).abs() < 1e-9);
        assert_eq!(s.stored()[0], s.stored()[2]);
    }

    #[test]
    fn per_capacity_init() {
        // M2 style: weights = 1/c_e.
        let caps = [100.0f64, 50.0];
        let weights: Vec<f64> = caps.iter().map(|c| 1.0 / c).collect();
        let s = ScaledLengths::new(&weights, -30.0, 1.0);
        assert!((s.ln_true(0) - (-30.0 - 100.0f64.ln())).abs() < 1e-9);
        assert!((s.ln_true(1) - (-30.0 - 50.0f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn handles_delta_below_f64_range() {
        // ln δ = -900 ⇒ δ ≈ 10^-391, unrepresentable directly.
        let s = ScaledLengths::new(&[1.0, 1.0], -900.0, 3.0);
        assert!(s.stored()[0] > 0.0 && s.stored()[0].is_finite());
        assert!((s.ln_true(0) + 900.0).abs() < 1e-6);
        assert!(s.stored_one().is_finite());
    }

    #[test]
    fn growth_tracks_xf64_reference() {
        // Simulate the multiplicative trajectory with both representations
        // and compare the true logs at the end.
        let ln_delta = -800.0;
        let mut s = ScaledLengths::new(&[1.0], ln_delta, 5.0);
        let mut exact = Xf64::exp(ln_delta);
        let factors = [1.05, 1.1, 1.02, 1.3, 1.000001, 1.25];
        for _ in 0..200 {
            for &f in &factors {
                s.scale_edge(0, f);
                exact *= Xf64::from_f64(f);
            }
        }
        assert!(
            (s.ln_true(0) - exact.ln()).abs() < 1e-6,
            "scaled {} vs exact {}",
            s.ln_true(0),
            exact.ln()
        );
    }

    #[test]
    fn stop_test_against_stored_one() {
        let mut s = ScaledLengths::new(&[1.0], -50.0, 60.0);
        assert!(s.stored()[0] < s.stored_one());
        // Grow past true 1.0: multiply by e^51.
        let factor = (51.0f64 / 64.0).exp();
        for _ in 0..64 {
            s.scale_edge(0, factor);
        }
        assert!(s.stored()[0] > s.stored_one());
        assert!(s.ln_true(0) > 0.0);
    }

    #[test]
    fn raw_store_is_identity_scaled() {
        let mut s = ScaledLengths::raw(&[0.5, 0.25]);
        assert_eq!(s.stored(), &[0.5, 0.25]);
        assert_eq!(s.stored_one(), 1.0);
        assert!((s.ln_true(0) - 0.5f64.ln()).abs() < 1e-15);
        s.scale_edge(1, 3.0);
        assert_eq!(s.stored()[1], 0.75);
    }

    #[test]
    fn weighted_sum_in_stored_scale() {
        let s = ScaledLengths::new(&[1.0, 1.0], -10.0, 2.0);
        let sum = s.weighted_sum_stored(&[2.0, 3.0]);
        assert!((sum / s.stored()[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ratio too tight")]
    fn rejects_unrepresentable_range() {
        // δ = e^-5000: range way beyond f64 even after rescaling.
        let _ = ScaledLengths::new(&[1.0], -5000.0, 5.0);
    }

    #[test]
    fn paper_worst_case_fits() {
        // Table II's hardest column: r = 0.99 ⇒ ε ≈ 0.005, |S_max|−1 = 6,
        // U ≈ 10 ⇒ ln δ ≈ −817. Top estimate ln((1+ε)(|S_max|−1)) ≈ 1.8.
        let eps = 1.0 - 0.99f64.sqrt();
        let ln_delta = crate::ratio::ln_delta_m1(eps, 7, 10);
        assert!(ln_delta < -780.0, "expected extreme delta, got {ln_delta}");
        let s = ScaledLengths::new(&[1.0; 10], ln_delta, 2.0);
        assert!(s.stored_one().is_finite());
    }
}
