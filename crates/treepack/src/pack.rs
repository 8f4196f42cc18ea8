//! Spanning-tree packings: the greedy integral packing.

use omcf_numerics::NeumaierSum;
use omcf_topology::{EdgeId, Graph};

const TOL: f64 = 1e-12;

/// A spanning tree of the session graph, by edge ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    /// `n − 1` edge ids forming a spanning tree.
    pub edges: Vec<EdgeId>,
}

/// A feasible fractional packing: trees with rates whose per-edge usage
/// respects the edge weights.
#[derive(Clone, Debug, Default)]
pub struct Packing {
    /// `(tree, rate)` pairs with positive rates.
    pub trees: Vec<(SpanningTree, f64)>,
}

impl Packing {
    /// Aggregate packing value `Σ_j f_j`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.trees.iter().map(|(_, r)| *r).collect::<NeumaierSum>().value()
    }

    /// Number of trees with positive rate.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Per-edge usage `Σ_{j: e ∈ t_j} f_j`.
    #[must_use]
    pub fn edge_usage(&self, g: &Graph) -> Vec<f64> {
        let mut usage = vec![0.0; g.edge_count()];
        for (t, r) in &self.trees {
            for e in &t.edges {
                usage[e.idx()] += r;
            }
        }
        usage
    }

    /// Asserts feasibility (usage ≤ weight) and that each tree spans.
    pub fn validate(&self, g: &Graph, rtol: f64) {
        let n = g.node_count();
        for (t, r) in &self.trees {
            assert!(*r >= 0.0, "negative rate");
            assert_eq!(t.edges.len(), n - 1, "tree edge count");
            assert!(spans(g, &t.edges), "tree does not span");
        }
        for (e, u) in g.edge_ids().zip(self.edge_usage(g)) {
            assert!(
                omcf_numerics::approx_le(u, g.capacity(e), rtol),
                "edge {e:?} over-packed: {u} > {}",
                g.capacity(e)
            );
        }
    }
}

/// Whether `edges` form a spanning tree of `g` (assuming `|edges| = n−1`).
fn spans(g: &Graph, edges: &[EdgeId]) -> bool {
    let n = g.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    let mut merged = 0;
    for &e in edges {
        let edge = g.edge(e);
        let (a, b) = (find(&mut parent, edge.u.idx()), find(&mut parent, edge.v.idx()));
        if a == b {
            return false;
        }
        parent[a] = b;
        merged += 1;
    }
    merged == n - 1
}

/// Maximum-bottleneck spanning tree over edges with `residual > TOL`.
/// Returns `None` if those edges do not connect the graph. Prim variant
/// maximizing the minimum residual along the tree.
fn max_bottleneck_tree(g: &Graph, residual: &[f64]) -> Option<SpanningTree> {
    let n = g.node_count();
    let mut in_tree = vec![false; n];
    let mut best = vec![0.0f64; n]; // best bottleneck to reach node
    let mut via = vec![EdgeId(0); n];
    in_tree[0] = true;
    for (e, v) in g.neighbors(omcf_topology::NodeId(0)) {
        if residual[e.idx()] > best[v.idx()] {
            best[v.idx()] = residual[e.idx()];
            via[v.idx()] = e;
        }
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut pick = usize::MAX;
        for j in 0..n {
            if !in_tree[j] && best[j] > TOL && (pick == usize::MAX || best[j] > best[pick]) {
                pick = j;
            }
        }
        if pick == usize::MAX {
            return None;
        }
        in_tree[pick] = true;
        edges.push(via[pick]);
        for (e, v) in g.neighbors(omcf_topology::NodeId(pick as u32)) {
            let r = residual[e.idx()];
            if !in_tree[v.idx()] && r > best[v.idx()] {
                best[v.idx()] = r;
                via[v.idx()] = e;
            }
        }
    }
    Some(SpanningTree { edges })
}

/// Greedy packing: repeatedly take the maximum-bottleneck spanning tree of
/// the residual graph and route its bottleneck rate. Each iteration
/// saturates at least one edge, so there are at most `|E|` trees. Not
/// optimal in general but a strong baseline; on the paper's Fig. 1 example
/// it attains the integral optimum 5.
///
/// ```
/// use omcf_topology::canned;
/// use omcf_treepack::pack_greedy;
///
/// let g = canned::fig1_session_graph();
/// let packing = pack_greedy(&g);
/// packing.validate(&g, 1e-9);
/// assert!(packing.value() >= 5.0 - 1e-9); // the paper's Fig. 1 value
/// ```
#[must_use]
pub fn pack_greedy(g: &Graph) -> Packing {
    let mut residual: Vec<f64> = g.edge_ids().map(|e| g.capacity(e)).collect();
    let mut packing = Packing::default();
    while let Some(tree) = max_bottleneck_tree(g, &residual) {
        let rate = tree.edges.iter().map(|e| residual[e.idx()]).fold(f64::INFINITY, f64::min);
        if rate <= TOL {
            break;
        }
        for e in &tree.edges {
            residual[e.idx()] -= rate;
        }
        packing.trees.push((tree, rate));
    }
    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strength::strength_exact;
    use omcf_topology::canned;

    #[test]
    fn greedy_on_fig1_reaches_integral_optimum() {
        let g = canned::fig1_session_graph();
        let p = pack_greedy(&g);
        p.validate(&g, 1e-9);
        assert!(p.value() >= 5.0 - 1e-9, "greedy value {}", p.value());
    }

    #[test]
    fn packing_never_exceeds_strength_on_random_small_graphs() {
        use omcf_numerics::{Rng64, Xoshiro256pp};
        let mut rng = Xoshiro256pp::new(123);
        for _ in 0..10 {
            // Random connected graph on 6 nodes: ring + chords, random
            // weights.
            let mut b = omcf_topology::GraphBuilder::new(6);
            for i in 0..6u32 {
                b.add_edge(
                    omcf_topology::NodeId(i),
                    omcf_topology::NodeId((i + 1) % 6),
                    rng.range_f64(0.5, 5.0),
                );
            }
            for _ in 0..3 {
                let u = rng.index(6) as u32;
                let mut v = rng.index(6) as u32;
                while v == u {
                    v = rng.index(6) as u32;
                }
                b.add_edge(
                    omcf_topology::NodeId(u),
                    omcf_topology::NodeId(v),
                    rng.range_f64(0.5, 5.0),
                );
            }
            let g = b.finish();
            let opt = strength_exact(&g);
            let p = pack_greedy(&g);
            p.validate(&g, 1e-9);
            assert!(p.value() <= opt + 1e-6, "packing {} > strength {opt}", p.value());
        }
    }

    #[test]
    fn greedy_on_tree_routes_min_weight() {
        let g = canned::path(4, 7.0);
        let p = pack_greedy(&g);
        p.validate(&g, 1e-9);
        assert_eq!(p.tree_count(), 1);
        assert!((p.value() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_pack_each_link() {
        let g = canned::parallel_links(3, 2.0);
        let p = pack_greedy(&g);
        p.validate(&g, 1e-9);
        assert!((p.value() - 6.0).abs() < 1e-9);
        assert_eq!(p.tree_count(), 3);
    }

    #[test]
    fn fig1_greedy_decomposition_matches_paper_shape() {
        // The paper's Fig. 1 decomposes into 3 trees with rates 3, 1, 1.
        // Greedy finds an equivalent-value decomposition (value 5); the
        // count may differ but rates must sum to ≥ 5 with ≤ |E| trees.
        let g = canned::fig1_session_graph();
        let p = pack_greedy(&g);
        assert!(p.tree_count() <= g.edge_count());
        assert!(p.value() >= 5.0 - 1e-9);
    }
}
