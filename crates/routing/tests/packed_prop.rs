//! Property-based tests pinning the packed-slot relaxation state and the
//! fan driver to the frozen adjacency-list reference.
//!
//! `DijkstraWorkspace` keeps its per-node relaxation state (distance,
//! parent edge, parent node, generation word) in one cache-line-friendly
//! SoA-of-structs slab, and the fan driver runs one early-exit workspace
//! per job. Neither may move a single bit: every test below compares
//! `to_bits` on distances and exact path equality against
//! `reference::dijkstra_adjacency` — the pre-refactor adjacency-list
//! implementation kept frozen precisely to pin layouts like this one —
//! across random graphs and tie-heavy and smooth length profiles.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{run_fan_chunks_with, WorkspacePool};
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
/// different parent — while fractional ones rarely tie.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-tree fans: every job targets every node, so each run settles
    /// its whole reachable tree, and every node matches the adjacency
    /// reference bit for bit on both length profiles.
    #[test]
    fn fan_whole_trees_bit_identical_to_reference(seed in any::<u64>(), n in 8usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA1);
        let members: Vec<NodeId> =
            (0..6.min(n)).map(|_| NodeId(rng.index(n) as u32)).collect();
        let all: Vec<NodeId> = g.nodes().collect();
        let jobs: Vec<(NodeId, &[NodeId])> = members.iter().map(|&m| (m, &all[..])).collect();
        let pool = WorkspacePool::new();
        for round in 0..2u32 {
            let lengths = random_lengths(&g, &mut rng, round);
            let runs = run_fan_chunks_with(&g, &jobs, &lengths, &pool);
            for (ws, &src) in runs.iter().zip(&members) {
                let reference = dijkstra_adjacency(&g, src, &lengths);
                for v in g.nodes() {
                    prop_assert_eq!(
                        ws.dist(v).to_bits(),
                        reference.dist(v).to_bits(),
                        "fan distance bits diverged (round {})",
                        round
                    );
                    prop_assert_eq!(ws.path_to(v), reference.path_to(v));
                }
            }
            for ws in runs {
                pool.give_back(ws);
            }
        }
    }

    /// Early-exit fans (the oracle recompute shape): each job's settled
    /// targets carry exactly the reference's distance bits and paths. One
    /// job targets every node, so whole trees stay pinned next to the
    /// early exits.
    #[test]
    fn fan_chunks_bit_identical_on_targets(seed in any::<u64>(), n in 10usize..40) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xA3);
        let lengths = random_lengths(&g, &mut rng, 0);
        // Nine jobs, each fanning to its own small target set, plus one
        // whole-tree job.
        let mut jobs_owned: Vec<(NodeId, Vec<NodeId>)> = (0..9)
            .map(|_| {
                let src = NodeId(rng.index(n) as u32);
                let tgts: Vec<NodeId> =
                    (0..3).map(|_| NodeId(rng.index(n) as u32)).collect();
                (src, tgts)
            })
            .collect();
        jobs_owned.push((NodeId(rng.index(n) as u32), g.nodes().collect()));
        let jobs: Vec<(NodeId, &[NodeId])> =
            jobs_owned.iter().map(|(s, t)| (*s, t.as_slice())).collect();
        let pool = WorkspacePool::new();
        let runs = run_fan_chunks_with(&g, &jobs, &lengths, &pool);
        prop_assert_eq!(runs.len(), jobs.len());
        for (ws, (src, tgts)) in runs.iter().zip(&jobs_owned) {
            let reference = dijkstra_adjacency(&g, *src, &lengths);
            for &t in tgts {
                prop_assert_eq!(
                    ws.dist(t).to_bits(),
                    reference.dist(t).to_bits(),
                    "fan target distance bits diverged"
                );
                prop_assert_eq!(ws.path_to(t), reference.path_to(t));
            }
        }
    }
}
