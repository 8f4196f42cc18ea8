//! `MaxConcurrentFlow` — the Table III FPTAS for the maximum concurrent
//! overlay flow problem M2 (weighted max-min fairness).
//!
//! The algorithm proceeds in *phases*; in phase `t`, iteration `i` routes
//! `dem(i)` units for session `i` in bottleneck-sized *steps*, each step
//! using the current minimum overlay spanning tree and growing its edge
//! lengths. Everything stops once the dual objective `D = Σ c_e·d_e`
//! reaches 1. Scaling the accumulated flow by `log_{1+ε}(1/δ)` is feasible
//! (Lemma 4) and within `(1−ε)³` of optimal provided `1 ≤ OPT` (Lemma 5) —
//! which a pre-pass arranges by computing each session's standalone maximum
//! flow `λ_i` (one single-session `MaxFlow` run each, the second running
//! time component of Table IV) and rescaling all demands by a common
//! factor. If the algorithm overruns the expected phase budget, demands are
//! doubled (halving OPT) and the run continues, as in Garg–Könemann and
//! Fleischer.

use crate::engine::{Engine, LengthGrowth};
use crate::lengths::ScaledLengths;
use crate::m1::max_flow_subset;
use crate::ratio::{ln_delta_m2, m2_scale_divisor, ApproxParams};
use crate::solution::{summarize, FlowSummary};
use omcf_overlay::{TreeOracle, TreeStore};
use omcf_topology::Graph;

/// Result of a `MaxConcurrentFlow` run.
#[derive(Clone, Debug)]
pub struct McfOutcome {
    /// Scaled, feasible flow.
    pub store: TreeStore,
    /// Rates, throughput, tree counts, congestion.
    pub summary: FlowSummary,
    /// The concurrent throughput `f* = min_i rate_i / dem(i)` (against the
    /// *original* demands) — the M2 objective.
    pub throughput: f64,
    /// MST operations in the main loop (first running-time component of
    /// Table IV).
    pub mst_ops_main: u64,
    /// MST operations spent computing the λ_i pre-pass (second component).
    pub mst_ops_prepass: u64,
    /// Phases executed.
    pub phases: u64,
    /// Demand-doubling events.
    pub doublings: u32,
    /// The per-session standalone maximum flows λ_i from the pre-pass.
    pub lambda: Vec<f64>,
    /// The ε actually used.
    pub eps: f64,
}

/// Table III policy over the [`Engine`]: proceed in phases routing every
/// session's (scaled) demand in bottleneck-sized steps, stop once the dual
/// objective `D = Σ c_e·d_e` reaches 1, and double demands whenever the
/// phase budget `T = 2⌈(1/ε)·log_{1+ε}(|E|/(1−ε))⌉` is exhausted (§III-C).
struct DemandPhaseSchedule {
    k: usize,
    eps: f64,
    dem: Vec<f64>,
}

impl DemandPhaseSchedule {
    /// Runs to completion; returns `(phases, doublings)`.
    fn drive<O: TreeOracle + ?Sized>(
        mut self,
        g: &Graph,
        engine: &mut Engine<'_, O>,
    ) -> (u64, u32) {
        let mut phases = 0u64;
        let mut doublings = 0u32;
        let t_budget = {
            let log = (g.edge_count() as f64 / (1.0 - self.eps)).ln() / (1.0 + self.eps).ln();
            (2.0 * (log / self.eps).ceil()).max(2.0) as u64
        };

        'outer: loop {
            phases += 1;
            #[allow(clippy::needless_range_loop)] // i indexes sessions and dem in lockstep
            for i in 0..self.k {
                let mut dem_rem = self.dem[i];
                while dem_rem > 0.0 {
                    if engine.dual_reached_one() {
                        break 'outer;
                    }
                    let tree = engine.min_tree(i);
                    let c = dem_rem.min(tree.bottleneck(g));
                    debug_assert!(c > 0.0 && c.is_finite());
                    dem_rem -= c;
                    engine.augment(tree, c);
                }
            }
            if engine.dual_reached_one() {
                break;
            }
            if phases.is_multiple_of(t_budget) {
                // OPT > 2: double demands to halve it and keep phase counts
                // polynomial (§III-C).
                for d in &mut self.dem {
                    *d *= 2.0;
                }
                doublings += 1;
                assert!(doublings < 64, "demand doubling ran away — OPT estimate broken");
            }
        }
        (phases, doublings)
    }
}

/// Runs `MaxConcurrentFlow` over all sessions of the oracle.
///
/// `params` should come from [`ApproxParams::for_m2`].
///
/// ```
/// use omcf_core::{max_concurrent_flow, ApproxParams};
/// use omcf_overlay::{FixedIpOracle, Session, SessionSet};
/// use omcf_topology::{canned, NodeId};
///
/// // Two symmetric sessions sharing a ring: fair split.
/// let g = canned::ring(8, 12.0);
/// let sessions = SessionSet::new(vec![
///     Session::new(vec![NodeId(0), NodeId(4)], 1.0),
///     Session::new(vec![NodeId(2), NodeId(6)], 1.0),
/// ]);
/// let oracle = FixedIpOracle::new(&g, &sessions);
/// let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.9));
/// let r = &out.summary.session_rates;
/// assert!((r[0] - r[1]).abs() < 0.15 * r[0].max(r[1]));
/// ```
#[must_use]
pub fn max_concurrent_flow<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    params: ApproxParams,
) -> McfOutcome {
    let sessions = oracle.sessions();
    let k = sessions.len();
    let eps = params.eps;

    // Pre-pass: λ_i = standalone maximum flow of session i, at the same ε
    // as the main run (the paper's Table IV reports this second component
    // growing with the ratio exactly like a MaxFlow run). Its accuracy
    // only influences where OPT lands inside [1, k], not correctness.
    let prepass_params = ApproxParams::from_eps(eps);
    let mut lambda = Vec::with_capacity(k);
    let mut mst_ops_prepass = 0u64;
    for i in 0..k {
        let out = max_flow_subset(g, oracle, &[i], prepass_params);
        mst_ops_prepass += out.mst_ops;
        lambda.push(out.summary.session_rates[i].max(f64::MIN_POSITIVE));
    }

    // Scale demands so OPT ∈ [1, k]: with dem'(i) = dem(i)·prescale and
    // prescale = λ/k, the scaled instance has min_i λ_i/dem'(i) = k.
    let original_dem: Vec<f64> = sessions.sessions().iter().map(|s| s.demand).collect();
    let lambda_ratio =
        lambda.iter().zip(&original_dem).map(|(l, d)| l / d).fold(f64::INFINITY, f64::min);
    let prescale = lambda_ratio / k as f64;
    let dem: Vec<f64> = original_dem.iter().map(|d| d * prescale).collect();

    let ln_delta = ln_delta_m2(eps, g.edge_count());
    // Final true length of any edge is < (1+ε)/c_e (Lemma 4); top estimate
    // over min capacity with margin.
    let ln_top = ((1.0 + eps) / g.min_capacity()).ln() + 2.0;
    let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let lengths = ScaledLengths::new(&inv_caps, ln_delta, ln_top);

    let mut engine = Engine::new(g, oracle, lengths, LengthGrowth::Fptas { eps });
    let schedule = DemandPhaseSchedule { k, eps, dem };
    let (phases, doublings) = schedule.drive(g, &mut engine);
    let run = engine.finish();
    let mst_ops_main = run.mst_ops;

    // Lemma 4: scale by log_{1+ε}(1/δ) for feasibility.
    let divisor = m2_scale_divisor(eps, ln_delta);
    let mut store = run.store;
    store.scale_all(1.0 / divisor);
    store.assert_feasible(g, 1e-9);

    let summary = summarize(&store, sessions, g);
    let throughput = summary
        .session_rates
        .iter()
        .zip(&original_dem)
        .map(|(r, d)| r / d)
        .fold(f64::INFINITY, f64::min);
    McfOutcome {
        store,
        summary,
        throughput,
        mst_ops_main,
        mst_ops_prepass,
        phases,
        doublings,
        lambda,
        eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{DynamicOracle, FixedIpOracle, Session, SessionSet};
    use omcf_topology::{canned, NodeId};

    #[test]
    fn single_session_matches_max_flow() {
        let g = canned::theta(5.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.9));
        // Standalone optimum is 15 (3 paths × 5); M2 with one session is
        // the same problem.
        assert!(
            out.summary.session_rates[0] >= 0.9 * 15.0,
            "rate {}",
            out.summary.session_rates[0]
        );
        assert!(out.summary.session_rates[0] <= 15.0 + 1e-9);
        assert!((out.throughput - out.summary.session_rates[0]).abs() < 1e-9);
    }

    #[test]
    fn enforces_fairness_between_symmetric_sessions() {
        // Ring: two 2-member sessions with identical geometry must end up
        // with (nearly) identical rates.
        let g = canned::ring(8, 12.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(4)], 1.0),
            Session::new(vec![NodeId(2), NodeId(6)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.93));
        let (a, b) = (out.summary.session_rates[0], out.summary.session_rates[1]);
        assert!((a - b).abs() <= 0.12 * a.max(b), "unfair: {a} vs {b}");
        out.store.assert_feasible(&g, 1e-9);
    }

    #[test]
    fn respects_demand_weights() {
        // Same geometry, demand 2:1 ⇒ rates must track demands (weighted
        // max-min fairness).
        let g = canned::ring(8, 12.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(4)], 2.0),
            Session::new(vec![NodeId(2), NodeId(6)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.93));
        let ratio = out.summary.session_rates[0] / out.summary.session_rates[1];
        assert!((ratio - 2.0).abs() < 0.3, "rate ratio {ratio} should be ≈ 2");
    }

    #[test]
    fn throughput_is_min_normalized_rate() {
        let g = canned::grid(4, 4, 25.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(15), NodeId(3)], 1.0),
            Session::new(vec![NodeId(12), NodeId(2)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.9));
        let manual = out
            .summary
            .session_rates
            .iter()
            .zip(sessions.sessions())
            .map(|(r, s)| r / s.demand)
            .fold(f64::INFINITY, f64::min);
        assert!((out.throughput - manual).abs() < 1e-12);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn lambda_prepass_reports_standalone_maxima() {
        let g = canned::theta(4.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.9));
        assert!(out.lambda[0] >= 0.8 * 12.0, "λ should approach 12, got {}", out.lambda[0]);
        assert!(out.mst_ops_prepass > 0);
        assert!(out.mst_ops_main > 0);
    }

    #[test]
    fn mcf_throughput_not_above_maxflow_objective() {
        // MaxFlow maximizes total; MCF's total throughput can only be
        // lower or equal (paper: Table IV vs Table II), modulo ε slack.
        let g = canned::grid(4, 4, 20.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mf = crate::m1::max_flow(&g, &oracle, ApproxParams::for_m1(0.93));
        let mcf = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.93));
        assert!(
            mcf.summary.overall_throughput <= mf.summary.overall_throughput * 1.08,
            "mcf {} should not exceed maxflow {} (mod ε slack)",
            mcf.summary.overall_throughput,
            mf.summary.overall_throughput
        );
    }

    #[test]
    fn feasible_and_reports_phases() {
        let g = canned::ring(6, 8.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(2), NodeId(4)], 1.0),
            Session::new(vec![NodeId(1), NodeId(5)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_concurrent_flow(&g, &oracle, ApproxParams::for_m2(0.9));
        assert!(out.phases >= 1);
        assert!(out.summary.max_congestion <= 1.0 + 1e-9);
    }
}
