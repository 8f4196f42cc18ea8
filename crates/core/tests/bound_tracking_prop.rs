//! `max_flow_subset` over every session is `max_flow` without the
//! weak-duality bound.
//!
//! M2's λ pre-pass and its residual max-min completion run `MaxFlow`
//! through `max_flow_subset`, which skips `Engine::observe_alpha`, an
//! `O(|E|)` dual sum per iteration, because M2 reads only the primal
//! flow. Skipping it may move no flow bit: the sum writes only the bound
//! and reads the lengths without changing them. These tests check that on random instances, and check the
//! bound on both sides: `max_flow` tracks a finite bound that is at least
//! its objective, and `max_flow_subset` reports `f64::INFINITY`, the
//! engine's "never observed".

use omcf_core::{max_flow, max_flow_subset, ApproxParams, MaxFlowOutcome};
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{DynamicOracle, FixedIpOracle, Session, SessionSet, TreeOracle};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;

mod common;
use common::random_grid;

/// 1–3 sessions of 2–4 distinct members each, unit demand.
fn random_session_set(g: &Graph, rng: &mut Xoshiro256pp) -> SessionSet {
    let count = 1 + rng.index(3);
    let sessions = (0..count)
        .map(|_| {
            let size = 2 + rng.index(3);
            let members = rng.sample_indices(g.node_count(), size);
            Session::new(members.into_iter().map(|i| NodeId(i as u32)).collect(), 1.0)
        })
        .collect();
    SessionSet::new(sessions)
}

/// Every session's stored trees as `(canonical key, flow bits)`, in key
/// order.
fn stored_trees(out: &MaxFlowOutcome) -> Vec<Vec<(Vec<u32>, u64)>> {
    (0..out.store.session_count())
        .map(|i| out.store.trees(i).map(|s| (s.tree.canonical_key(), s.flow.to_bits())).collect())
        .collect()
}

fn rate_bits(out: &MaxFlowOutcome) -> Vec<u64> {
    out.summary.session_rates.iter().map(|r| r.to_bits()).collect()
}

/// Runs `max_flow` and `max_flow_subset` over all sessions, each on a
/// fresh oracle from `oracle`, and checks they differ only in the bound.
fn assert_same_flow_without_bound<O: TreeOracle>(
    g: &Graph,
    oracle: impl Fn() -> O,
    params: ApproxParams,
    label: &str,
) {
    let tracked = max_flow(g, &oracle(), params);
    let subset = oracle();
    let all: Vec<usize> = (0..subset.sessions().len()).collect();
    let untracked = max_flow_subset(g, &subset, &all, params);

    assert_eq!(tracked.objective.to_bits(), untracked.objective.to_bits(), "{label}: objective");
    assert_eq!(rate_bits(&tracked), rate_bits(&untracked), "{label}: session rates");
    assert_eq!(tracked.mst_ops, untracked.mst_ops, "{label}: mst_ops");
    assert_eq!(tracked.iterations, untracked.iterations, "{label}: iterations");
    assert_eq!(stored_trees(&tracked), stored_trees(&untracked), "{label}: stored trees");

    assert!(tracked.dual_bound.is_finite(), "{label}: max_flow bound {}", tracked.dual_bound);
    assert!(
        tracked.dual_bound >= tracked.objective,
        "{label}: bound {} below objective {}",
        tracked.dual_bound,
        tracked.objective
    );
    assert_eq!(untracked.dual_bound, f64::INFINITY, "{label}: max_flow_subset tracked a bound");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random grids and sessions, both oracles, ε from 0.05 to 0.9.
    #[test]
    fn subset_over_all_sessions_is_max_flow_without_the_bound(
        seed in any::<u64>(),
        eps in 0.05f64..0.9,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = random_grid(&mut rng);
        let sessions = random_session_set(&g, &mut rng);
        let params = ApproxParams::from_eps(eps);
        let label = format!("seed {seed}, ε = {eps}");
        assert_same_flow_without_bound(
            &g,
            || FixedIpOracle::new(&g, &sessions),
            params,
            &format!("{label}, fixed IP"),
        );
        assert_same_flow_without_bound(
            &g,
            || DynamicOracle::new(&g, &sessions),
            params,
            &format!("{label}, dynamic"),
        );
    }
}
