//! Frozen adjacency-list Dijkstra — the pre-CSR reference implementation.
//!
//! This is, verbatim, the algorithm the repo shipped before the routing
//! core moved to the [`CsrGraph`](omcf_topology::CsrGraph) layout: a
//! fresh-allocation binary-heap Dijkstra whose inner loop walks
//! [`Graph::neighbors`] (edge-id indirection through the edge records —
//! one pointer chase per arc). It exists for two jobs and must **not** be
//! "optimized":
//!
//! * the bit-exactness oracle for `tests/prop.rs` — the CSR workspace
//!   is pinned to produce identical distance bits and identical paths;
//! * the baseline of the `routing_csr` bench, whose CSR-vs-adjacency
//!   speedup is recorded in `BENCH_routing.json`.

use crate::dijkstra::ShortestPathTree;
use omcf_topology::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, then on node id for determinism —
        // identical to the CSR workspace's queue order.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("no NaN lengths")
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra over the adjacency-list view, allocating its
/// dense state per call. Same deterministic tie-breaking as
/// [`crate::dijkstra::dijkstra`]; kept as the frozen baseline.
#[must_use]
pub fn dijkstra_adjacency(g: &Graph, src: NodeId, lengths: &[f64]) -> ShortestPathTree {
    assert_eq!(lengths.len(), g.edge_count(), "length table size mismatch");
    debug_assert!(lengths.iter().all(|l| *l >= 0.0 && l.is_finite()));
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(EdgeId, NodeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[src.idx()] = 0.0;
    heap.push(HeapItem { dist: 0.0, node: src });
    while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        for (e, v) in g.neighbors(u) {
            if done[v.idx()] {
                continue;
            }
            let nd = d + lengths[e.idx()];
            let cur = dist[v.idx()];
            let better = nd < cur
                // Deterministic tie-break: prefer the lower-id predecessor.
                || (nd == cur && parent[v.idx()].is_some_and(|(_, p)| u.0 < p.0));
            if better {
                dist[v.idx()] = nd;
                parent[v.idx()] = Some((e, u));
                heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
    ShortestPathTree::from_parts(src, dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use omcf_topology::canned;

    #[test]
    fn reference_agrees_with_csr_on_a_grid() {
        let g = canned::grid(5, 5, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 0.5 + (e % 4) as f64).collect();
        for src in g.nodes() {
            let a = dijkstra_adjacency(&g, src, &lengths);
            let b = dijkstra(&g, src, &lengths);
            for v in g.nodes() {
                assert_eq!(a.dist(v).to_bits(), b.dist(v).to_bits());
                assert_eq!(a.path_to(v), b.path_to(v));
            }
        }
    }
}
