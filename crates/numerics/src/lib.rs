//! Numerical substrate for the overlay multicommodity-flow workspace.
//!
//! The Garg–Könemann-style FPTAS at the heart of the paper initializes every
//! edge length to
//! `δ = (1+ε)^{1-1/ε} / ((|S_max|-1)·U)^{1/ε}`,
//! which underflows an `f64` once the approximation ratio is pushed past
//! roughly 0.99 (ε ≲ 0.005 ⇒ exponents of several hundred). This crate
//! provides:
//!
//! * [`Xf64`] — an extended-range float (f64 mantissa, `i64` binary
//!   exponent) with the handful of arithmetic operations the solvers need.
//!   Solvers normally run on renormalized `f64` lengths; `Xf64` is the
//!   independent oracle used by tests to prove the renormalization exact.
//! * [`NeumaierSum`] — the compensated accumulator used when summing
//!   per-edge contributions of widely varying magnitude.
//! * [`rng`] — deterministic, seedable PRNG ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) so every experiment in the paper reproduction is
//!   replayable from a single `u64` seed.
//! * [`stats`] — empirical CDFs, quantiles and the normalized-rank
//!   distributions that the paper's figures plot.
//! * [`jsonfmt`] — sorted-key JSON emission for the `BENCH_*.json` /
//!   `sweep.json` artifacts (regeneration produces minimal diffs).
//! * [`parallel`] — the [`Parallelism`] execution policy shared by every
//!   parallel region (sweep driver, replay checkpoints, fleet drives). It
//!   lives in this bottom-of-the-stack crate so every crate can accept it
//!   without a dependency cycle; `omcf-core` re-exports it.

pub mod jsonfmt;
pub mod kahan;
pub mod parallel;
pub mod rng;
pub mod simplex;
pub mod stats;
pub mod xf64;

pub use kahan::NeumaierSum;
pub use parallel::Parallelism;
pub use rng::{Rng64, SplitMix64, Xoshiro256pp};
pub use stats::{Cdf, Summary};
pub use xf64::Xf64;

/// Relative-tolerance comparison used throughout the workspace for flow
/// feasibility checks (capacities, demands, conservation).
///
/// Returns `true` when `a` and `b` agree to within `rel` relative to the
/// larger magnitude, with an absolute floor of `rel` for values near zero.
#[must_use]
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel * scale
}

/// `a <= b` up to the workspace relative tolerance.
#[must_use]
pub fn approx_le(a: f64, b: f64, rel: f64) -> bool {
    a <= b + rel * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0, 1e-12));
    }

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-10, 1e-9));
        assert!(!approx_eq(1.0, 1.0 + 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_near_zero_uses_absolute_floor() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_le_permits_tiny_overshoot() {
        assert!(approx_le(100.0 + 1e-8, 100.0, 1e-9));
        assert!(!approx_le(100.0 + 1e-5, 100.0, 1e-9));
        assert!(approx_le(99.0, 100.0, 1e-9));
    }
}
