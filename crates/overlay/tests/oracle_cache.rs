//! Property tests for the epoch-cached oracles: across randomized
//! monotone length-update sequences, a cached oracle must return exactly
//! the trees an uncached oracle computes from scratch. This pins the
//! caching contract the solver engine relies on (`docs/ENGINE.md`): under
//! grow-only updates, an untouched cached route stays the deterministic
//! shortest-path / minimum-spanning-tree winner.

use omcf_numerics::{Parallelism, Rng64, Xoshiro256pp};
use omcf_overlay::{
    random_sessions, CacheStats, DynamicOracle, EdgeEpochs, FixedIpOracle, LengthView, OverlayHop,
    OverlayTree, Session, SessionSet, TreeOracle,
};
use omcf_routing::{dijkstra, WorkspacePool};
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::{Graph, NodeId};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn graph(seed: u64, n: usize) -> Graph {
    let params = WaxmanParams { n, alpha: 0.3, ..WaxmanParams::default() };
    waxman::generate(&params, &mut Xoshiro256pp::new(seed))
}

/// Simulates the engine's interaction pattern: query every session, then
/// grow the edges of one returned tree (plus occasionally a few random
/// edges) through the epoch clock, and repeat.
fn drive<O: TreeOracle, R: TreeOracle>(
    g: &Graph,
    cached: &O,
    reference: &R,
    rounds: usize,
    rng: &mut Xoshiro256pp,
) {
    let k = cached.sessions().len();
    let mut lengths = vec![1.0f64; g.edge_count()];
    let mut epochs = EdgeEpochs::new(g.edge_count());
    for _ in 0..rounds {
        let mut grow_edges: Vec<usize> = Vec::new();
        for i in 0..k {
            let a = cached.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
            let b = reference.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(a, b, "cached and uncached oracles diverged on session {i}");
            if rng.next_f64() < 0.6 {
                grow_edges.extend(a.hops.iter().flat_map(|h| h.path.edges.iter().map(|e| e.idx())));
            }
        }
        // Occasionally touch unrelated edges too (a competing session's
        // augmentation from the solvers' perspective).
        for _ in 0..rng.index(4) {
            grow_edges.push(rng.index(g.edge_count()));
        }
        epochs.advance();
        for e in grow_edges {
            // Monotone growth only — the contract the cache relies on.
            lengths[e] *= 1.0 + rng.range_f64(0.01, 0.8);
            epochs.touch(e);
        }
    }
}

/// The minimum tree of `session`, computed independently of the oracle:
/// one full `dijkstra` per member, then a dense Prim over the
/// member-to-member distances that breaks ties to the lowest index, with
/// each hop's path taken from its parent's full tree.
fn full_fan_tree(g: &Graph, session: &Session, idx: usize, lengths: &[f64]) -> OverlayTree {
    let members = &session.members;
    let m = members.len();
    let fans: Vec<_> = members.iter().map(|&src| dijkstra(g, src, lengths)).collect();
    let w = |a: usize, b: usize| fans[a].dist(members[b]);
    let mut in_tree = vec![false; m];
    in_tree[0] = true;
    let mut best: Vec<f64> = (0..m).map(|j| w(0, j)).collect();
    let mut parent = vec![0usize; m];
    let mut hops = Vec::new();
    for _ in 1..m {
        let mut pick = None;
        for j in (0..m).filter(|&j| !in_tree[j]) {
            if pick.is_none_or(|p: usize| best[j] < best[p]) {
                pick = Some(j);
            }
        }
        let pick = pick.expect("a member outside the tree");
        in_tree[pick] = true;
        let a = parent[pick];
        let path = fans[a].path_to(members[pick]).expect("connected graph");
        hops.push(OverlayHop { a, b: pick, path });
        for j in (0..m).filter(|&j| !in_tree[j]) {
            if w(pick, j) < best[j] {
                best[j] = w(pick, j);
                parent[j] = pick;
            }
        }
    }
    OverlayTree { session: idx, hops }
}

/// `count` sessions of 2–6 distinct members each.
fn mixed_sessions(g: &Graph, count: usize, rng: &mut Xoshiro256pp) -> SessionSet {
    let sessions = (0..count)
        .map(|_| {
            let size = 2 + rng.index(5);
            let members = rng
                .sample_indices(g.node_count(), size)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            Session::new(members, 1.0)
        })
        .collect();
    SessionSet::new(sessions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The dynamic oracle ≡ a full-fan reference, on the cached path, the
    /// uncached path and a 4-worker pool. Every round queries all 9–12
    /// sessions in one call, so the cold round packs more than 8 fans into
    /// one parallel fan call, plus one repeated session id whose second
    /// occurrence reads its first occurrence's fans as hits.
    #[test]
    fn dynamic_oracle_matches_full_fan_reference(
        seed in any::<u64>(),
        n in 16usize..40,
        k in 9usize..13,
    ) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xF00D);
        let sessions = mixed_sessions(&g, k, &mut rng);
        let four = Parallelism::Threads(NonZeroUsize::new(4).expect("nonzero"));
        let pool = Arc::new(WorkspacePool::new().with_parallelism(four));
        let legs = [
            DynamicOracle::new(&g, &sessions),
            DynamicOracle::uncached(&g, &sessions),
            DynamicOracle::with_pool(&g, &sessions, pool),
        ];
        let repeated = rng.index(k);
        let ids: Vec<usize> = (0..k).chain([repeated]).collect();
        let fans_read = |i: usize| sessions.session(i).size() as u64 - 1;
        let cold: u64 = (0..k).map(fans_read).sum();
        let mut lengths = vec![1.0f64; g.edge_count()];
        let mut epochs = EdgeEpochs::new(g.edge_count());
        for round in 0..12 {
            let expected: Vec<OverlayTree> = ids
                .iter()
                .map(|&i| full_fan_tree(&g, sessions.session(i), i, &lengths))
                .collect();
            for (leg, oracle) in legs.iter().enumerate() {
                let trees = oracle.min_trees_view(&ids, LengthView::with_epochs(&lengths, &epochs));
                for (tree, want) in trees.iter().zip(&expected) {
                    prop_assert_eq!(tree, want, "leg {} round {}", leg, round);
                    prop_assert_eq!(tree.length(&lengths).to_bits(), want.length(&lengths).to_bits());
                }
            }
            if round == 0 {
                let repeat = fans_read(repeated);
                let cached = CacheStats { hits: repeat, misses: cold };
                prop_assert_eq!(legs[0].cache_stats(), cached);
                prop_assert_eq!(legs[1].cache_stats(), CacheStats { hits: 0, misses: cold + repeat });
                prop_assert_eq!(legs[2].cache_stats(), cached);
            }
            let mut grow_edges: Vec<usize> = Vec::new();
            for tree in &expected {
                if rng.next_f64() < 0.6 {
                    grow_edges.extend(tree.hops.iter().flat_map(|h| h.path.edges.iter().map(|e| e.idx())));
                }
            }
            for _ in 0..rng.index(4) {
                grow_edges.push(rng.index(g.edge_count()));
            }
            epochs.advance();
            for e in grow_edges {
                lengths[e] *= 1.0 + rng.range_f64(0.01, 0.8);
                epochs.touch(e);
            }
        }
        let per_round = cold + fans_read(repeated);
        for oracle in &legs {
            let stats = oracle.cache_stats();
            prop_assert_eq!(stats.hits + stats.misses, 12 * per_round,
                "every fan Prim reads is a hit or a miss");
        }
    }

    /// Epoch-cached dynamic oracle ≡ uncached dynamic oracle over random
    /// Waxman graphs and randomized grow-only length sequences.
    #[test]
    fn dynamic_cached_matches_uncached(seed in any::<u64>(), n in 12usize..32) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xCAFE);
        let sessions = random_sessions(&g, 2, 4.min(n), 1.0, &mut rng);
        let cached = DynamicOracle::new(&g, &sessions);
        let reference = DynamicOracle::uncached(&g, &sessions);
        drive(&g, &cached, &reference, 20, &mut rng);
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * 3 * 20,
            "every fan Prim reads is a hit or a miss");
    }

    /// Epoch-cached fixed-IP oracle ≡ fresh recomputation through the
    /// plain interface on the same length sequence.
    #[test]
    fn fixed_cached_matches_fresh(seed in any::<u64>(), n in 12usize..32) {
        let g = graph(seed, n);
        let mut rng = Xoshiro256pp::new(seed ^ 0xBEEF);
        let sessions = random_sessions(&g, 2, 5.min(n), 1.0, &mut rng);
        let cached = FixedIpOracle::new(&g, &sessions);
        // `Fresh` wrapper: same oracle type, but queried without epochs so
        // every call recomputes.
        struct Fresh(FixedIpOracle);
        impl TreeOracle for Fresh {
            fn min_tree(&self, i: usize, lengths: &[f64]) -> omcf_overlay::OverlayTree {
                self.0.min_tree(i, lengths)
            }
            fn min_tree_view(
                &self,
                i: usize,
                view: LengthView<'_>,
            ) -> omcf_overlay::OverlayTree {
                self.0.min_tree(i, view.lengths)
            }
            fn sessions(&self) -> &omcf_overlay::SessionSet {
                self.0.sessions()
            }
            fn max_route_hops(&self) -> usize {
                self.0.max_route_hops()
            }
        }
        let reference = Fresh(FixedIpOracle::new(&g, &sessions));
        drive(&g, &cached, &reference, 20, &mut rng);
    }
}
