//! `Online-MinCongestion` — the Table VI online algorithm.
//!
//! Sessions arrive one at a time; each is routed, unsplit, along the
//! minimum overlay spanning tree under exponential edge lengths
//! `d_e = (1/c_e)·Π(1 + ρ·n_e(t)·dem/c_e)` accumulated over past arrivals.
//! After all arrivals, each session `i` is assigned its maximum observed
//! congestion `l_max^i = max_{e ∈ t_i} l_e`; dividing session `i`'s demand
//! by `l_max^i` yields a feasible solution (if `l_max^i ≥ l_e` for every
//! `e ∈ t_i`, then `Σ_i contribution_e,i / l_max^i ≤ l_e/l_e = 1`).
//!
//! The step size ρ (the paper's experiments sweep ρ ∈ {10, …, 200}) trades
//! off how aggressively loaded links are avoided; Theorem 4 proves an
//! `O(log |E|)`-competitive congestion bound for ρ below the optimum
//! throughput, and the paper observes experimentally that larger ρ does
//! not hurt.
//!
//! To model a *tree-limited* session (at most `n` trees), the caller
//! replicates the session `n` times with demand `dem/n` each — exactly the
//! paper's §IV-D experiment — and aggregates the replicas afterwards
//! ([`OnlineOutcome::aggregate_rates`]).

use crate::engine::{Engine, LengthGrowth};
use crate::lengths::ScaledLengths;
use crate::solution::session_rates as rates_of;
use omcf_overlay::{TreeOracle, TreeStore};
use omcf_topology::Graph;

/// Result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// Feasible flow: each session's single tree at its scaled rate.
    pub store: TreeStore,
    /// Per-session scaled rate `dem(i) / l_max^i`.
    pub session_rates: Vec<f64>,
    /// Per-session maximum congestion indicator `l_max^i` (pre-scaling).
    pub l_max: Vec<f64>,
    /// Global maximum congestion before scaling (`l_max` of the paper).
    pub l_max_global: f64,
    /// MST oracle invocations (= number of arrivals).
    pub mst_ops: u64,
}

impl OnlineOutcome {
    /// Sums the rates of replica groups: `groups[j]` lists the session
    /// indices belonging to original session `j` (the §IV-D replication
    /// protocol).
    #[must_use]
    pub fn aggregate_rates(&self, groups: &[Vec<usize>]) -> Vec<f64> {
        groups.iter().map(|g| g.iter().map(|&i| self.session_rates[i]).sum()).collect()
    }

    /// Distinct trees used by a replica group.
    #[must_use]
    pub fn aggregate_tree_count(&self, group: &[usize]) -> usize {
        let mut keys: Vec<Vec<u32>> = Vec::new();
        for &i in group {
            for t in self.store.trees(i) {
                // Canonical key ignoring the session index so replicas of
                // the same member set dedup together.
                keys.push(t.tree.canonical_key());
            }
        }
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

/// Runs the online algorithm over the oracle's sessions in index order
/// (callers control arrival order by constructing the `SessionSet`
/// accordingly).
///
/// ```
/// use omcf_core::online_min_congestion;
/// use omcf_overlay::{DynamicOracle, Session, SessionSet};
/// use omcf_topology::{canned, NodeId};
///
/// // Three arrivals on the theta graph spread over its three paths.
/// let g = canned::theta(6.0);
/// let s = Session::new(vec![NodeId(0), NodeId(4)], 1.0);
/// let sessions = SessionSet::new(vec![s.clone(), s.clone(), s]);
/// let oracle = DynamicOracle::new(&g, &sessions);
/// let out = online_min_congestion(&g, &oracle, 10.0);
/// let total: f64 = out.session_rates.iter().sum();
/// assert!(total >= 17.9, "three disjoint paths x capacity 6");
/// ```
#[must_use]
pub fn online_min_congestion<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    rho: f64,
) -> OnlineOutcome {
    assert!(rho > 0.0 && rho.is_finite(), "step size must be positive");
    let sessions = oracle.sessions();
    let k = sessions.len();
    // Arrival policy over the engine: one oracle query and one augmentation
    // per arriving session, routing its whole demand unsplit. d_e = δ/c_e
    // with δ = 1: only relative lengths drive tree selection, so the
    // paper's δ cancels here and the identity-scale store applies.
    let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let mut engine =
        Engine::new(g, oracle, ScaledLengths::raw(&inv_caps), LengthGrowth::Online { rho });
    let mut chosen_edges: Vec<Vec<(usize, u32)>> = Vec::with_capacity(k);
    for i in 0..k {
        let dem = sessions.session(i).demand;
        let tree = engine.min_tree(i);
        let mults = engine.augment(tree, dem);
        chosen_edges.push(mults.into_iter().map(|(e, n)| (e.idx(), n)).collect());
    }
    let run = engine.finish();

    // Post-pass: l_max per session from the FINAL loads (Table VI lines
    // 8–10), then scale each session by its own l_max.
    let mut l_max = Vec::with_capacity(k);
    for edges in &chosen_edges {
        let lm = edges.iter().map(|&(e, _)| run.load[e]).fold(0.0f64, f64::max);
        l_max.push(lm);
    }
    let l_max_global = l_max.iter().copied().fold(0.0, f64::max);
    let mut store = run.store;
    for (i, &lm) in l_max.iter().enumerate() {
        let scale = if lm > 0.0 { 1.0 / lm } else { 0.0 };
        store.scale_session(i, scale);
    }
    store.assert_feasible(g, 1e-9);

    let session_rates = rates_of(&store);
    OnlineOutcome { store, session_rates, l_max, l_max_global, mst_ops: run.mst_ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{DynamicOracle, FixedIpOracle, Session, SessionSet};
    use omcf_topology::{canned, NodeId};

    #[test]
    fn single_session_uses_full_bottleneck() {
        // One 2-member session on a path: tree = the path; l_max =
        // dem/cap; scaled rate = cap.
        let g = canned::path(3, 10.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(2)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = online_min_congestion(&g, &oracle, 10.0);
        assert!((out.session_rates[0] - 10.0).abs() < 1e-9);
        out.store.assert_feasible(&g, 1e-9);
    }

    #[test]
    fn spreads_replicas_across_parallel_paths() {
        // Theta graph with dynamic routing: three replicas of a 2-member
        // session should land on three distinct paths thanks to the
        // exponential penalty, tripling aggregate rate.
        let g = canned::theta(6.0);
        let base = Session::new(vec![NodeId(0), NodeId(4)], 1.0);
        let sessions = SessionSet::new(vec![base.clone(), base.clone(), base]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let out = online_min_congestion(&g, &oracle, 10.0);
        let groups = vec![vec![0, 1, 2]];
        let agg = out.aggregate_rates(&groups);
        assert!(agg[0] >= 0.99 * 18.0, "three disjoint paths × cap 6 = 18, got {}", agg[0]);
        assert_eq!(out.aggregate_tree_count(&[0, 1, 2]), 3);
    }

    #[test]
    fn fixed_routing_cannot_spread() {
        // Same setup but fixed IP routes: every replica takes the same
        // path; aggregate stays at one path's capacity.
        let g = canned::theta(6.0);
        let base = Session::new(vec![NodeId(0), NodeId(4)], 1.0);
        let sessions = SessionSet::new(vec![base.clone(), base.clone(), base]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = online_min_congestion(&g, &oracle, 10.0);
        let agg: f64 = out.session_rates.iter().sum();
        assert!(agg <= 6.0 + 1e-9, "fixed routes pin all replicas, got {agg}");
        assert_eq!(out.aggregate_tree_count(&[0, 1, 2]), 1);
    }

    #[test]
    fn scaled_solution_is_feasible_under_contention() {
        let g = canned::grid(4, 4, 8.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
            Session::new(vec![NodeId(1), NodeId(14), NodeId(7)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let out = online_min_congestion(&g, &oracle, 40.0);
        out.store.assert_feasible(&g, 1e-9);
        assert_eq!(out.mst_ops, 3);
        assert!(out.l_max_global >= out.l_max[0]);
    }

    #[test]
    fn rho_zero_rejected() {
        let g = canned::path(3, 1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(2)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            online_min_congestion(&g, &oracle, 0.0)
        }));
        assert!(result.is_err());
    }
}
