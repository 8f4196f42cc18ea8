//! Property-based tests pinning the packed-slot relaxation state and the
//! arc-mirrored weight path to the frozen adjacency-list reference.
//!
//! Since the packed-state refactor, `DijkstraWorkspace` and every
//! `BatchDijkstra` lane keep their per-node relaxation state (distance,
//! parent edge, parent node, generation word) in one cache-line-friendly
//! SoA-of-structs slab, and the parallel fan entry points gather the live
//! lengths into arc order once per fan so the relax loop streams a
//! contiguous weight array. Neither change may move a single bit: every
//! test below compares `to_bits` on distances and exact path equality
//! against `reference::dijkstra_adjacency` — the pre-refactor
//! adjacency-list implementation kept frozen precisely to pin layouts
//! like this one — across random graphs, tie-heavy and smooth length
//! profiles, every queue discipline, and real multi-threaded pools.

use omcf_numerics::{Parallelism, Rng64, Xoshiro256pp};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{
    fan_width, fanout_trees_batched_with, fanout_trees_with, run_fan_chunks_with, QueueKind,
    WorkspacePool,
};
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// Tie-heavy or smooth random lengths (same profile split as
/// `tests/prop.rs`): integer-ish lengths provoke equal-distance pop
/// ties — the case where a packed-slot tie-break bug would surface as a
/// different parent — while fractional ones exercise the Dial queue's
/// non-uniform buckets.
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

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(std::num::NonZeroUsize::new(n).expect("nonzero"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-source parallel fan-out — which mirrors the lengths into
    /// arc order once and streams it from every worker — is bit-identical
    /// to the adjacency reference for every queue discipline, on both
    /// length profiles, at multiple thread counts.
    #[test]
    fn mirrored_fanout_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA1);
        let members: Vec<NodeId> =
            (0..6.min(n)).map(|_| NodeId(rng.index(n) as u32)).collect();
        let pool = WorkspacePool::new();
        for round in 0..2u32 {
            let lengths = random_lengths(&g, &mut rng, round);
            for kind in QueueKind::ALL {
                for t in [2usize, 4] {
                    let trees =
                        fanout_trees_with(&g, &members, &lengths, &pool, kind, threads(t));
                    for (i, &src) in members.iter().enumerate() {
                        let reference = dijkstra_adjacency(&g, src, &lengths);
                        for v in g.nodes() {
                            prop_assert_eq!(
                                trees[i].dist(v).to_bits(),
                                reference.dist(v).to_bits(),
                                "mirrored fan-out distance bits diverged ({:?}, {} threads)",
                                kind, t
                            );
                            prop_assert_eq!(trees[i].path_to(v), reference.path_to(v));
                        }
                    }
                }
            }
        }
    }

    /// The lane-batched fan-out (packed multi-lane slots + arc mirror) is
    /// bit-identical to the adjacency reference for every queue
    /// discipline, serial and threaded.
    #[test]
    fn mirrored_batched_fanout_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA2);
        let members: Vec<NodeId> =
            (0..7.min(n)).map(|_| NodeId(rng.index(n) as u32)).collect();
        let lengths = random_lengths(&g, &mut rng, 0);
        let pool = WorkspacePool::new();
        for kind in QueueKind::ALL {
            for policy in [Parallelism::Serial, threads(4)] {
                let trees =
                    fanout_trees_batched_with(&g, &members, &lengths, &pool, kind, policy);
                for (i, &src) in members.iter().enumerate() {
                    let reference = dijkstra_adjacency(&g, src, &lengths);
                    for v in g.nodes() {
                        prop_assert_eq!(
                            trees[i].dist(v).to_bits(),
                            reference.dist(v).to_bits(),
                            "batched fan-out distance bits diverged ({:?})",
                            kind
                        );
                        prop_assert_eq!(trees[i].path_to(v), reference.path_to(v));
                    }
                }
            }
        }
    }

    /// Early-exit fan engines (the oracle recompute shape): each job's
    /// settled targets carry exactly the reference's distance bits and
    /// paths, for every queue discipline, serial and threaded.
    #[test]
    fn mirrored_fan_chunks_bit_identical_on_targets(seed in any::<u64>(), n in 10usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA3);
        let lengths = random_lengths(&g, &mut rng, 0);
        let width = fan_width(g.node_count());
        // A handful of jobs, each fanning to its own small target set.
        let jobs_owned: Vec<(NodeId, Vec<NodeId>)> = (0..9)
            .map(|_| {
                let src = NodeId(rng.index(n) as u32);
                let tgts: Vec<NodeId> =
                    (0..3).map(|_| NodeId(rng.index(n) as u32)).collect();
                (src, tgts)
            })
            .collect();
        let jobs: Vec<(NodeId, &[NodeId])> =
            jobs_owned.iter().map(|(s, t)| (*s, t.as_slice())).collect();
        let pool = WorkspacePool::new();
        let mut arcs = Vec::new();
        g.csr().fill_arc_lengths(&lengths, &mut arcs);
        for kind in QueueKind::ALL {
            for policy in [Parallelism::Serial, threads(4)] {
                let engines = run_fan_chunks_with(&g, &jobs, &lengths, &arcs, &pool, kind, policy);
                for (i, (src, tgts)) in jobs_owned.iter().enumerate() {
                    let engine = &engines[i / width];
                    let lane = i % width;
                    let reference = dijkstra_adjacency(&g, *src, &lengths);
                    for &t in tgts {
                        prop_assert_eq!(
                            engine.dist(lane, t).to_bits(),
                            reference.dist(t).to_bits(),
                            "fan-chunk target distance bits diverged ({:?})",
                            kind
                        );
                        prop_assert_eq!(engine.path_to(lane, t), reference.path_to(t));
                    }
                }
                for engine in engines {
                    pool.give_back_batch(engine);
                }
            }
        }
    }
}
