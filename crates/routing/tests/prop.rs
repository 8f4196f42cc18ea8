//! Property-based tests for the routing substrate.

use omcf_numerics::{Parallelism, Rng64, Xoshiro256pp};
use omcf_routing::dijkstra::{dijkstra, dijkstra_hops};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{
    run_fan_chunks_with, DijkstraWorkspace, FixedRoutes, ShortestPathTree, WorkspacePool,
};
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

/// One round of `jobs` through the fan driver under `policy`, each
/// job's workspace snapshotted whole (settled and tentative values
/// alike, so the comparison covers every byte the run left behind) and
/// handed back to `pool`.
fn fan_round(
    g: &Graph,
    jobs: &[(NodeId, &[NodeId])],
    lengths: &[f64],
    pool: &WorkspacePool,
    policy: Parallelism,
) -> Vec<ShortestPathTree> {
    run_fan_chunks_with(g, jobs, lengths, pool, policy)
        .into_iter()
        .map(|ws| {
            let tree = ws.to_tree();
            pool.give_back(ws);
            tree
        })
        .collect()
}

/// More than eight `(source, targets)` jobs — enough that a threaded
/// round splits across workers — each fanning to its own few targets.
fn random_jobs(rng: &mut Xoshiro256pp, n: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..9 + rng.index(8))
        .map(|_| {
            let src = NodeId(rng.index(n) as u32);
            let targets = (0..1 + rng.index(4)).map(|_| NodeId(rng.index(n) as u32)).collect();
            (src, targets)
        })
        .collect()
}

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(std::num::NonZeroUsize::new(n).expect("nonzero"))
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

    /// A fan round of more than eight jobs is byte-identical to the
    /// serial loop — same workspaces, same order, at every tested thread
    /// count (real worker pools with genuine stealing) — and each job's
    /// targets match the adjacency reference bit-for-bit.
    #[test]
    fn parallel_fanout_byte_identical_to_serial(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 9);
        let lengths = random_lengths(&g, &mut rng, 1);
        let owned = random_jobs(&mut rng, n);
        let jobs: Vec<(NodeId, &[NodeId])> = owned.iter().map(|(s, t)| (*s, &t[..])).collect();
        let pool = WorkspacePool::new();
        let ser = fan_round(&g, &jobs, &lengths, &pool, Parallelism::Serial);
        prop_assert_eq!(ser.len(), jobs.len());
        for threads_n in [1usize, 2, 4, 8] {
            let counted = fan_round(&g, &jobs, &lengths, &pool, threads(threads_n));
            prop_assert_eq!(&counted, &ser, "fan round diverged at {} threads", threads_n);
        }
        for (tree, (src, targets)) in ser.iter().zip(&owned) {
            let reference = dijkstra_adjacency(&g, *src, &lengths);
            for &t in targets {
                prop_assert_eq!(tree.dist(t).to_bits(), reference.dist(t).to_bits());
                prop_assert_eq!(tree.path_to(t), reference.path_to(t));
            }
        }
    }

    /// Repeated fan rounds at the same thread count are stable: stealing
    /// order varies run to run, output must not.
    #[test]
    fn repeated_fanout_at_same_thread_count_is_stable(seed in any::<u64>(), n in 8usize..32) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 31);
        let lengths = random_lengths(&g, &mut rng, 0);
        let owned = random_jobs(&mut rng, n);
        let jobs: Vec<(NodeId, &[NodeId])> = owned.iter().map(|(s, t)| (*s, &t[..])).collect();
        let pool = WorkspacePool::new().with_parallelism(threads(4));
        let first = fan_round(&g, &jobs, &lengths, &pool, pool.parallelism());
        let second = fan_round(&g, &jobs, &lengths, &pool, pool.parallelism());
        prop_assert_eq!(&first, &second, "repeated fan round at 4 threads is unstable");
        let serial = fan_round(&g, &jobs, &lengths, &pool, Parallelism::Serial);
        prop_assert_eq!(&first, &serial, "fan round at 4 threads diverged from serial");
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
