//! Property-based tests for tree packing and strength.

use omcf_core::{max_flow, ApproxParams};
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{FixedIpOracle, Session, SessionSet};
use omcf_topology::{Graph, GraphBuilder, NodeId};
use omcf_treepack::{pack_greedy, strength_exact};
use proptest::prelude::*;

/// Random simple connected weighted graph on `n ≤ 8` nodes: a spanning
/// cycle plus random chords, skipping a chord whose pair is already linked
/// (fixed routing pins a node pair to one of its parallel links).
fn random_graph(seed: u64, n: usize, chords: usize) -> Graph {
    let mut rng = Xoshiro256pp::new(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32), rng.range_f64(0.5, 4.0));
    }
    for _ in 0..chords {
        let u = rng.index(n);
        let mut v = rng.index(n);
        while v == u {
            v = rng.index(n);
        }
        let (u, v) = (NodeId(u as u32), NodeId(v as u32));
        if !b.has_edge(u, v) {
            b.add_edge(u, v, rng.range_f64(0.5, 4.0));
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tutte/Nash-Williams: every packing value is bounded by the exact
    /// strength, and `MaxFlow` on one all-node fixed-IP session (problem
    /// S) lands within its ratio of it, below its own dual bound.
    #[test]
    fn packing_sandwich(seed in any::<u64>(), n in 4usize..8, chords in 0usize..4) {
        let g = random_graph(seed, n, chords);
        let opt = strength_exact(&g);
        let greedy = pack_greedy(&g);
        greedy.validate(&g, 1e-9);
        prop_assert!(greedy.value() <= opt + 1e-6);

        let sessions = SessionSet::new(vec![Session::new(g.nodes().collect(), 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let params = ApproxParams::from_eps(0.08);
        let out = max_flow(&g, &oracle, params);
        let tol = 1e-9 * opt;
        prop_assert!(out.summary.max_congestion <= 1.0 + 1e-9);
        prop_assert!(
            out.objective >= params.ratio * opt - tol,
            "objective {} vs opt {opt}",
            out.objective
        );
        prop_assert!(out.objective <= opt + tol, "objective {} vs opt {opt}", out.objective);
        prop_assert!(opt <= out.dual_bound + tol, "dual {} vs opt {opt}", out.dual_bound);
    }

    /// Strength scales linearly with uniform weight scaling.
    #[test]
    fn strength_scales(seed in any::<u64>(), factor in 0.25f64..4.0) {
        let g = random_graph(seed, 6, 2);
        let s1 = strength_exact(&g);
        let s2 = strength_exact(&g.scaled_capacities(factor));
        prop_assert!((s2 - factor * s1).abs() <= 1e-6 * s2.max(1.0));
    }

    /// Greedy packing uses at most |E| trees (each iteration saturates an
    /// edge).
    #[test]
    fn greedy_tree_count_bounded(seed in any::<u64>(), n in 4usize..8, chords in 0usize..5) {
        let g = random_graph(seed, n, chords);
        let p = pack_greedy(&g);
        prop_assert!(p.tree_count() <= g.edge_count());
    }
}
