//! Property-based tests for the routing substrate.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_routing::dijkstra::{dijkstra, dijkstra_hops};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{DijkstraWorkspace, FixedRoutes};
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// Tie-heavy or smooth random lengths, depending on `round` (integer-ish
/// lengths provoke equal-distance pop ties; fractional ones rarely tie).
fn random_lengths(g: &Graph, rng: &mut Xoshiro256pp, round: u32) -> Vec<f64> {
    (0..g.edge_count())
        .map(|_| {
            if round.is_multiple_of(2) {
                rng.index(3) as f64 + 1.0
            } else {
                rng.range_f64(0.1, 3.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Triangle inequality of the shortest-path metric: for random
    /// lengths, d(a,c) ≤ d(a,b) + d(b,c).
    #[test]
    fn triangle_inequality(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 1);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|_| rng.range_f64(0.1, 3.0)).collect();
        let a = NodeId(rng.index(n) as u32);
        let b = NodeId(rng.index(n) as u32);
        let c = NodeId(rng.index(n) as u32);
        let from_a = dijkstra(&g, a, &lengths);
        let from_b = dijkstra(&g, b, &lengths);
        prop_assert!(from_a.dist(c) <= from_a.dist(b) + from_b.dist(c) + 1e-9);
    }

    /// Path extraction reconstructs exactly the reported distance.
    #[test]
    fn path_length_matches_distance(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 2);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|_| rng.range_f64(0.1, 3.0)).collect();
        let src = NodeId(rng.index(n) as u32);
        let spt = dijkstra(&g, src, &lengths);
        for dst in g.nodes() {
            let p = spt.path_to(dst).unwrap();
            p.validate(&g);
            prop_assert!((p.length(&lengths) - spt.dist(dst)).abs() < 1e-9);
        }
    }

    /// Hop-count distances are symmetric.
    #[test]
    fn hop_distance_symmetric(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 3);
        let a = NodeId(rng.index(n) as u32);
        let b = NodeId(rng.index(n) as u32);
        let d_ab = dijkstra_hops(&g, a).dist(b);
        let d_ba = dijkstra_hops(&g, b).dist(a);
        prop_assert_eq!(d_ab, d_ba);
    }

    /// Fixed routes are shortest in hops: no shorter path exists.
    #[test]
    fn fixed_routes_are_shortest(seed in any::<u64>(), n in 10usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 4);
        let members: Vec<NodeId> =
            rng.sample_indices(n, 4).into_iter().map(|i| NodeId(i as u32)).collect();
        let routes = FixedRoutes::new(&g, &members);
        for &a in &members {
            let spt = dijkstra_hops(&g, a);
            for &b in &members {
                prop_assert_eq!(routes.route(a, b).hops() as f64, spt.dist(b));
            }
        }
        prop_assert!(routes.max_route_hops() < n);
    }

    /// The reusable workspace is bit-identical to fresh-allocation
    /// Dijkstra: equal distances and equal deterministic tie-broken paths
    /// from every source, across reuses of the same workspace and random
    /// length perturbations.
    #[test]
    fn workspace_matches_fresh_dijkstra(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 5);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for round in 0..3u32 {
            // Integer-ish lengths provoke ties; fractional ones don't.
            let lengths: Vec<f64> = (0..g.edge_count())
                .map(|_| if round % 2 == 0 { rng.index(3) as f64 + 1.0 } else { rng.range_f64(0.1, 3.0) })
                .collect();
            for src in g.nodes() {
                ws.run(&g, src, &lengths);
                let fresh = dijkstra(&g, src, &lengths);
                for v in g.nodes() {
                    prop_assert_eq!(ws.dist(v), fresh.dist(v));
                    prop_assert_eq!(ws.path_to(v), fresh.path_to(v));
                }
            }
        }
    }

    /// Multi-target early exit settles the requested targets with exactly
    /// the distances and paths of a full run.
    #[test]
    fn workspace_early_exit_matches_full_run(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 6);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|_| rng.index(4) as f64 + 0.5).collect();
        let targets: Vec<NodeId> =
            rng.sample_indices(n, 4.min(n)).into_iter().map(|i| NodeId(i as u32)).collect();
        let src = targets[0];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run_targets(&g, src, &lengths, &targets);
        let fresh = dijkstra(&g, src, &lengths);
        for &t in &targets {
            prop_assert_eq!(ws.dist(t), fresh.dist(t));
            prop_assert_eq!(ws.path_to(t), fresh.path_to(t));
        }
    }

    /// The CSR-backed workspace is **bit-identical** to the frozen
    /// pre-refactor adjacency-list Dijkstra across randomized graphs,
    /// seeds and length profiles: equal distance bits (`to_bits`, not
    /// epsilon) and equal deterministic tie-broken paths from every
    /// source.
    #[test]
    fn csr_bit_identical_to_adjacency_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 7);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for round in 0..2u32 {
            let lengths = random_lengths(&g, &mut rng, round);
            for src in g.nodes() {
                ws.run(&g, src, &lengths);
                let reference = dijkstra_adjacency(&g, src, &lengths);
                for v in g.nodes() {
                    prop_assert_eq!(
                        ws.dist(v).to_bits(),
                        reference.dist(v).to_bits(),
                        "distance bits diverged (src {:?}, node {:?})",
                        src, v
                    );
                    prop_assert_eq!(ws.path_to(v), reference.path_to(v));
                }
            }
        }
    }

    /// Early-exit runs are bit-identical to the adjacency reference on
    /// the settled targets.
    #[test]
    fn csr_early_exit_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 8);
        let lengths = random_lengths(&g, &mut rng, 0);
        let targets: Vec<NodeId> =
            rng.sample_indices(n, 4.min(n)).into_iter().map(|i| NodeId(i as u32)).collect();
        let src = targets[0];
        let reference = dijkstra_adjacency(&g, src, &lengths);
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run_targets(&g, src, &lengths, &targets);
        for &t in &targets {
            prop_assert_eq!(ws.dist(t).to_bits(), reference.dist(t).to_bits());
            prop_assert_eq!(ws.path_to(t), reference.path_to(t));
        }
    }

    /// Under uniform lengths scaled by any constant, the chosen routes'
    /// hop counts are identical (scale invariance of shortest paths).
    #[test]
    fn dijkstra_scale_invariant(seed in any::<u64>(), scale in 1e-6f64..1e6) {
        let g = graph(seed, 20);
        let base = vec![1.0; g.edge_count()];
        let scaled: Vec<f64> = base.iter().map(|v| v * scale).collect();
        let a = dijkstra(&g, NodeId(0), &base);
        let b = dijkstra(&g, NodeId(0), &scaled);
        for v in g.nodes() {
            prop_assert_eq!(
                a.path_to(v).unwrap().hops(),
                b.path_to(v).unwrap().hops()
            );
        }
    }
}
