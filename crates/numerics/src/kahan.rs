//! Compensated summation.
//!
//! Edge-length and flow accumulations in the FPTAS sum thousands of terms
//! spanning many orders of magnitude (lengths grow multiplicatively from δ
//! to ~1). Plain `f64` accumulation loses the small terms; Kahan/Neumaier
//! compensation keeps the running error at a few ulps independent of the
//! number of terms.

/// Neumaier's improvement to Kahan: robust when the incoming term is larger
/// than the running sum (common when a few saturated links dominate).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeumaierSum {
    sum: f64,
    comp: f64,
}

impl NeumaierSum {
    /// New accumulator at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated total (sum + correction).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

impl FromIterator<f64> for NeumaierSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

/// Convenience: compensated sum of a slice.
#[must_use]
pub fn sum_compensated(values: &[f64]) -> f64 {
    values.iter().copied().collect::<NeumaierSum>().value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_pathological_series() {
        // 1 followed by 1e8 copies of 1e-16 sums to ~1 + 1e-8 exactly under
        // compensation; naive summation drops every small term. Use a
        // smaller count to keep the test fast but the effect visible.
        let n = 1_000_000usize;
        let mut naive = 1.0f64;
        let mut compensated = NeumaierSum::new();
        compensated.add(1.0);
        for _ in 0..n {
            naive += 1e-16;
            compensated.add(1e-16);
        }
        let expected = 1.0 + n as f64 * 1e-16;
        assert_eq!(naive, 1.0, "naive must lose the tail for this test to mean anything");
        assert!((compensated.value() - expected).abs() < 1e-18);
    }

    #[test]
    fn neumaier_handles_large_term_after_small() {
        let mut s = NeumaierSum::new();
        s.add(1.0);
        s.add(1e100);
        s.add(1.0);
        s.add(-1e100);
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn from_iterator_matches_manual() {
        let vals = [0.1, 0.2, 0.3, 0.4];
        let a: NeumaierSum = vals.iter().copied().collect();
        let mut b = NeumaierSum::new();
        for v in vals {
            b.add(v);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn sum_compensated_empty_is_zero() {
        assert_eq!(sum_compensated(&[]), 0.0);
    }

    #[test]
    fn sum_compensated_matches_exact_small_case() {
        assert_eq!(sum_compensated(&[1.5, 2.5, -1.0]), 3.0);
    }
}
