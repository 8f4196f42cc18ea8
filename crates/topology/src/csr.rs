//! Compressed-sparse-row arc view of a [`Graph`](crate::Graph) — the
//! routing hot path's memory layout.
//!
//! The solvers' throughput ceiling is Dijkstra, and Dijkstra's inner loop
//! is "for every arc out of `u`: read its edge id, its head and its
//! length". The edge-record representation answers that with a pointer
//! chase per arc (`incident(u)` → `EdgeId` → `edges[e]` → `other(u)`);
//! [`CsrGraph`] answers it with three contiguous struct-of-arrays reads:
//!
//! ```text
//! offsets : n + 1     arcs of node i live at offsets[i] .. offsets[i+1]
//! heads   : 2m        arc target node
//! arc_edges: 2m       undirected EdgeId of the arc (lengths are indexed
//!                     by EdgeId, so the FPTAS's per-iteration length
//!                     mutation needs no CSR rebuild)
//! weights : 2m        static arc weight (the edge capacity)
//! ```
//!
//! Every undirected edge `{u, v}` appears as two arcs (`u→v` and `v→u`).
//! The CSR is built **once** when the graph is frozen and the arc order
//! per node is exactly the [`Graph::incident`](crate::Graph::incident)
//! order, so an algorithm
//! that walks `arcs(u)` relaxes edges in precisely the order the
//! adjacency-list `neighbors(u)` walk did — the foundation of the
//! bit-exactness contract pinned by `omcf-routing`'s property tests.

use crate::graph::{Edge, EdgeId, NodeId};

/// Struct-of-arrays compressed-sparse-row adjacency. Immutable; owned by
/// the [`Graph`](crate::Graph) it was built from.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `n + 1` arc-range bounds.
    offsets: Vec<u32>,
    /// Arc target per arc slot.
    heads: Vec<NodeId>,
    /// Undirected edge id per arc slot.
    arc_edges: Vec<EdgeId>,
    /// Capacity of the arc's edge per arc slot.
    weights: Vec<f64>,
}

impl CsrGraph {
    /// Builds the CSR from the frozen edge list. `adj_start`/`adj_edges`
    /// are the graph's edge-id CSR; arc order is preserved verbatim.
    pub(crate) fn from_adjacency(edges: &[Edge], adj_start: &[u32], adj_edges: &[EdgeId]) -> Self {
        let n = adj_start.len() - 1;
        let mut heads = Vec::with_capacity(adj_edges.len());
        let mut weights = Vec::with_capacity(adj_edges.len());
        for node in 0..n {
            let lo = adj_start[node] as usize;
            let hi = adj_start[node + 1] as usize;
            for &e in &adj_edges[lo..hi] {
                let rec = &edges[e.idx()];
                heads.push(rec.other(NodeId(node as u32)));
                weights.push(rec.capacity);
            }
        }
        Self { offsets: adj_start.to_vec(), heads, arc_edges: adj_edges.to_vec(), weights }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs (`2 × edge_count`).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.heads.len()
    }

    /// Arc slot range of node `n` (indexes the heads/edge-id/weight
    /// arrays, e.g. through [`Self::weight`]).
    #[inline]
    #[must_use]
    pub fn arc_range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.offsets[n.idx()] as usize..self.offsets[n.idx() + 1] as usize
    }

    /// The out-arcs of `n` as parallel slices `(edge ids, heads)` — the
    /// shape the Dijkstra inner loop consumes.
    #[inline]
    #[must_use]
    pub fn arc_slices(&self, n: NodeId) -> (&[EdgeId], &[NodeId]) {
        let r = self.arc_range(n);
        (&self.arc_edges[r.clone()], &self.heads[r])
    }

    /// Iterator over `(edge, head)` pairs of `n`, in [`Graph::incident`]
    /// order (identical to `Graph::neighbors`).
    ///
    /// [`Graph::incident`]: crate::Graph::incident
    pub fn arcs(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let (edges, heads) = self.arc_slices(n);
        edges.iter().copied().zip(heads.iter().copied())
    }

    /// Static weight (capacity) of arc slot `slot`.
    #[inline]
    #[must_use]
    pub fn weight(&self, slot: usize) -> f64 {
        self.weights[slot]
    }

    /// Out-degree of `n` (parallel edges counted separately).
    #[must_use]
    pub fn degree(&self, n: NodeId) -> usize {
        self.arc_range(n).len()
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{GraphBuilder, NodeId};

    #[test]
    fn arcs_match_neighbors_order_exactly() {
        // Multigraph with parallel edges and a skewed degree sequence.
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 10.0);
        b.add_edge(NodeId(0), NodeId(2), 20.0);
        b.add_edge(NodeId(0), NodeId(1), 30.0); // parallel
        b.add_edge(NodeId(2), NodeId(3), 40.0);
        b.add_edge(NodeId(1), NodeId(3), 50.0);
        let g = b.finish();
        let csr = g.csr();
        assert_eq!(csr.node_count(), 5);
        assert_eq!(csr.arc_count(), 2 * g.edge_count());
        for n in g.nodes() {
            let via_adj: Vec<_> = g.neighbors(n).collect();
            let via_csr: Vec<_> = csr.arcs(n).collect();
            assert_eq!(via_adj, via_csr, "arc order diverges at {n:?}");
            assert_eq!(csr.degree(n), g.degree(n));
        }
        // Node 4 is isolated.
        assert_eq!(csr.degree(NodeId(4)), 0);
    }

    #[test]
    fn weights_carry_capacities() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 7.0);
        b.add_edge(NodeId(1), NodeId(2), 9.0);
        let g = b.finish();
        let csr = g.csr();
        for n in g.nodes() {
            let r = csr.arc_range(n);
            let (edges, _) = csr.arc_slices(n);
            for (slot, e) in r.zip(edges.iter()) {
                assert_eq!(csr.weight(slot), g.capacity(*e));
            }
        }
    }

    #[test]
    fn slices_and_iterator_agree() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        b.add_edge(NodeId(0), NodeId(3), 1.0);
        let g = b.finish();
        let csr = g.csr();
        let (edges, heads) = csr.arc_slices(NodeId(0));
        assert_eq!(edges.len(), 3);
        assert_eq!(heads.len(), 3);
        let paired: Vec<_> = edges.iter().copied().zip(heads.iter().copied()).collect();
        assert_eq!(paired, csr.arcs(NodeId(0)).collect::<Vec<_>>());
    }
}
