//! `MaxFlow` — the Table I FPTAS for the maximum (receiver-weighted)
//! multicommodity overlay flow problem M1.
//!
//! Per iteration: compute the minimum overlay spanning tree of every
//! session under the current lengths, pick the one of minimum *normalized*
//! length (length · (|S_max|−1)/(|S_i|−1)), stop if that is ≥ 1, otherwise
//! route its bottleneck capacity `min_e c_e/n_e(t)` and grow the lengths of
//! its edges by `(1 + ε·n_e(t)·c/c_e)`. The accumulated flow divided by
//! `log_{1+ε}((1+ε)/δ)` is primal-feasible (Lemma 2) and within the target
//! ratio of optimal (Lemma 3).

use crate::engine::{Engine, LengthGrowth};
use crate::lengths::ScaledLengths;
use crate::ratio::{ln_delta_m1, m1_scale_divisor, ApproxParams};
use crate::solution::{summarize, FlowSummary};
use omcf_overlay::{TreeOracle, TreeStore};
use omcf_topology::Graph;

/// Result of a `MaxFlow` run.
#[derive(Clone, Debug)]
pub struct MaxFlowOutcome {
    /// The scaled, feasible flow (deduplicated trees with rates).
    pub store: TreeStore,
    /// Rates, throughput, tree counts, congestion.
    pub summary: FlowSummary,
    /// Primal objective `Σ_i (|S_i|−1)/(|S_max|−1) · rate_i` (the paper's
    /// M1 objective; the ratio guarantee applies to this).
    pub objective: f64,
    /// Best dual bound observed: `OPT ≤ dual_bound` by weak duality.
    /// `f64::INFINITY` from [`max_flow_subset`], which does not track it.
    pub dual_bound: f64,
    /// Minimum-overlay-spanning-tree computations performed (the paper's
    /// "running time" unit in Tables II/VII).
    pub mst_ops: u64,
    /// Length-update iterations (augmentations).
    pub iterations: u64,
    /// The ε actually used.
    pub eps: f64,
}

/// Runs `MaxFlow` over all sessions of the oracle.
///
/// ```
/// use omcf_core::{max_flow, ApproxParams};
/// use omcf_overlay::{DynamicOracle, Session, SessionSet};
/// use omcf_topology::{canned, NodeId};
///
/// // Three disjoint 2-hop paths of capacity 10 between nodes 0 and 4.
/// let g = canned::theta(10.0);
/// let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
/// let oracle = DynamicOracle::new(&g, &sessions);
/// let out = max_flow(&g, &oracle, ApproxParams::for_m1(0.9));
/// assert!(out.summary.session_rates[0] >= 0.9 * 30.0);
/// assert!(out.summary.max_congestion <= 1.0 + 1e-9);
/// ```
#[must_use]
pub fn max_flow<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    params: ApproxParams,
) -> MaxFlowOutcome {
    let all: Vec<usize> = (0..oracle.sessions().len()).collect();
    run_max_flow(g, oracle, &all, params, true)
}

/// Table I policy over the [`Engine`]: every iteration recomputes all
/// selected sessions' trees, picks the globally minimum *normalized* one,
/// and augments its bottleneck capacity until that minimum reaches 1.
struct GlobalMinSchedule<'s> {
    session_ids: &'s [usize],
    smax: usize,
    /// Whether to track the weak-duality bound, an `O(|E|)` dual sum per
    /// iteration. Only runs whose caller reads `dual_bound` pay for it.
    track_bound: bool,
}

impl GlobalMinSchedule<'_> {
    fn norm(&self, receivers: usize) -> f64 {
        (self.smax as f64 - 1.0) / (receivers as f64)
    }

    fn drive<O: TreeOracle + ?Sized>(&self, g: &Graph, engine: &mut Engine<'_, O>) {
        let sessions = engine.sessions();
        loop {
            // Minimum overlay spanning tree per selected session; keep the
            // one of minimum normalized length.
            let (minlen_stored, tree) = engine.best_normalized_tree(self.session_ids, |i| {
                self.norm(sessions.session(i).receivers())
            });

            // Dual objective D1 = Σ c_e d_e; scale cancels in the ratio, so
            // the weak-duality bound OPT ≤ D1/α is computed in stored scale.
            if self.track_bound {
                engine.observe_alpha(minlen_stored);
            }

            if minlen_stored >= engine.stored_one() {
                break;
            }
            let c = tree.bottleneck(g);
            debug_assert!(c.is_finite() && c > 0.0);
            engine.augment(tree, c);
        }
    }
}

/// Runs `MaxFlow` restricted to a subset of sessions (used by M2's
/// pre-pass to obtain per-session maximum flows λ_i, and by its residual
/// max-min completion over all sessions). M2 reads only the primal flow,
/// so this run skips the weak-duality bound and reports
/// `dual_bound = f64::INFINITY`; flow, objective and counters are
/// bit-identical to [`max_flow`] over the same sessions.
#[must_use]
pub fn max_flow_subset<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    session_ids: &[usize],
    params: ApproxParams,
) -> MaxFlowOutcome {
    run_max_flow(g, oracle, session_ids, params, false)
}

/// Table I over `session_ids`; `track_bound` decides whether the run
/// computes [`MaxFlowOutcome::dual_bound`].
fn run_max_flow<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    session_ids: &[usize],
    params: ApproxParams,
    track_bound: bool,
) -> MaxFlowOutcome {
    assert!(!session_ids.is_empty(), "no sessions selected");
    let sessions = oracle.sessions();
    let eps = params.eps;
    let smax = session_ids.iter().map(|&i| sessions.session(i).size()).max().unwrap();
    assert!(smax >= 2);
    let u = oracle.max_route_hops().max(1);
    let ln_delta = ln_delta_m1(eps, smax, u);
    // Largest true edge length over the run: (1+ε)·(|S_max|−1)·U slack
    // (Lemma 1/2 bound final lengths by (1+ε)(|S_max|−1); keep margin).
    let ln_top = ((1.0 + eps) * (smax as f64 - 1.0) * u as f64).ln() + 2.0;
    let lengths = ScaledLengths::new(&vec![1.0; g.edge_count()], ln_delta, ln_top);

    let mut engine = Engine::new(g, oracle, lengths, LengthGrowth::Fptas { eps });
    GlobalMinSchedule { session_ids, smax, track_bound }.drive(g, &mut engine);
    let run = engine.finish();

    // Lemma 2: scale by log_{1+ε}((1+ε)/δ) for primal feasibility.
    let divisor = m1_scale_divisor(eps, ln_delta);
    let mut store = run.store;
    store.scale_all(1.0 / divisor);
    store.assert_feasible(g, 1e-9);

    let summary = summarize(&store, sessions, g);
    let weight = |i: usize| sessions.session(i).receivers() as f64 / (smax as f64 - 1.0);
    let objective: f64 = session_ids.iter().map(|&i| weight(i) * summary.session_rates[i]).sum();
    MaxFlowOutcome {
        store,
        summary,
        objective,
        dual_bound: run.dual_bound,
        mst_ops: run.mst_ops,
        iterations: run.iterations,
        eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{DynamicOracle, FixedIpOracle, Session, SessionSet};
    use omcf_topology::{canned, NodeId};

    /// Two-member session on `k` parallel links of capacity `c`: optimum is
    /// `k·c` (each link is a spanning tree).
    #[test]
    fn saturates_parallel_links() {
        let g = canned::parallel_links(3, 10.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(1)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        // NOTE: fixed IP routing pins the pair to ONE link, so the fixed
        // oracle can only reach 10; the dynamic oracle reaches 30.
        let fixed = max_flow(&g, &oracle, ApproxParams::for_m1(0.9));
        assert!(fixed.summary.session_rates[0] <= 10.0 + 1e-9);
        assert!(fixed.summary.session_rates[0] >= 0.9 * 10.0);

        let dyn_oracle = DynamicOracle::new(&g, &sessions);
        let dynamic = max_flow(&g, &dyn_oracle, ApproxParams::for_m1(0.9));
        assert!(
            dynamic.summary.session_rates[0] >= 0.9 * 30.0,
            "dynamic rate {} should approach 30",
            dynamic.summary.session_rates[0]
        );
        dynamic.store.assert_feasible(&g, 1e-9);
    }

    /// On the theta graph the two-member max flow is 3 (three disjoint
    /// 2-hop paths); cross-check the FPTAS against the maxflow crate.
    #[test]
    fn matches_max_flow_on_theta_with_dynamic_routing() {
        let g = canned::theta(5.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let out = max_flow(&g, &oracle, ApproxParams::for_m1(0.92));
        let exact = 15.0; // 3 paths × capacity 5
        assert!(out.summary.session_rates[0] >= 0.92 * exact);
        assert!(out.summary.session_rates[0] <= exact + 1e-9);
    }

    #[test]
    fn respects_ratio_guarantee_via_duality_gap() {
        let g = canned::grid(4, 4, 50.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let params = ApproxParams::for_m1(0.9);
        let out = max_flow(&g, &oracle, params);
        // Weak duality sandwich: primal ≤ OPT ≤ dual bound; the FPTAS
        // guarantee says primal ≥ ratio · OPT ≥ ratio · primal…, so check
        // primal ≥ ratio · dual_bound which implies the guarantee.
        assert!(out.objective <= out.dual_bound + 1e-9);
        assert!(
            out.objective >= params.ratio * out.dual_bound * 0.999,
            "objective {} vs dual {}",
            out.objective,
            out.dual_bound
        );
    }

    #[test]
    fn tighter_ratio_does_not_decrease_objective_much() {
        let g = canned::grid(4, 4, 20.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(10), NodeId(15)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let loose = max_flow(&g, &oracle, ApproxParams::for_m1(0.9));
        let tight = max_flow(&g, &oracle, ApproxParams::for_m1(0.97));
        assert!(tight.objective >= loose.objective * 0.99);
        assert!(tight.mst_ops > loose.mst_ops, "tighter ratio must work harder");
    }

    #[test]
    fn multi_session_throughput_counts_receivers() {
        let g = canned::grid(3, 3, 30.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(2), NodeId(6), NodeId(8)], 1.0),
            Session::new(vec![NodeId(1), NodeId(7)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_flow(&g, &oracle, ApproxParams::for_m1(0.9));
        let expect = 3.0 * out.summary.session_rates[0] + 1.0 * out.summary.session_rates[1];
        assert!((out.summary.overall_throughput - expect).abs() < 1e-9);
        out.store.assert_feasible(&g, 1e-9);
    }

    #[test]
    fn subset_run_ignores_other_sessions() {
        let g = canned::grid(3, 3, 30.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(8)], 1.0),
            Session::new(vec![NodeId(2), NodeId(6)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_flow_subset(&g, &oracle, &[1], ApproxParams::for_m1(0.9));
        assert_eq!(out.summary.session_rates[0], 0.0);
        assert!(out.summary.session_rates[1] > 0.0);
    }

    #[test]
    fn solution_is_strictly_feasible() {
        let g = canned::ring(8, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(3), NodeId(5)], 1.0),
            Session::new(vec![NodeId(1), NodeId(6)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = max_flow(&g, &oracle, ApproxParams::for_m1(0.93));
        assert!(out.summary.max_congestion <= 1.0 + 1e-9);
        assert!(out.iterations > 0);
        assert_eq!(out.mst_ops % 2, 0, "k=2 oracle calls per iteration incl. final");
    }
}
