//! Binary-heap Dijkstra with deterministic tie-breaking.
//!
//! Lengths are supplied externally (slice indexed by `EdgeId`) because the
//! FPTAS mutates them every iteration. Ties are broken toward the
//! lower-numbered predecessor node so that fixed IP routes are reproducible
//! across runs and platforms.
//!
//! The algorithm itself lives in [`crate::workspace::DijkstraWorkspace`];
//! the free functions here are convenience wrappers that allocate a
//! one-shot workspace and materialize an owned [`ShortestPathTree`]. Hot
//! paths (the dynamic tree oracle) hold a workspace and reuse it instead.

use crate::path::Path;
use crate::workspace::DijkstraWorkspace;
use omcf_topology::{EdgeId, Graph, NodeId};

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug, PartialEq)]
pub struct ShortestPathTree {
    src: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<(EdgeId, NodeId)>>,
}

impl ShortestPathTree {
    /// Assembles a tree from raw parts (used by the workspace to export an
    /// owned snapshot).
    pub(crate) fn from_parts(
        src: NodeId,
        dist: Vec<f64>,
        parent: Vec<Option<(EdgeId, NodeId)>>,
    ) -> Self {
        Self { src, dist, parent }
    }

    /// The source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// Distance from the source to `n` (`f64::INFINITY` if unreachable).
    #[must_use]
    pub fn dist(&self, n: NodeId) -> f64 {
        self.dist[n.idx()]
    }

    /// True if `n` is reachable from the source.
    #[must_use]
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist[n.idx()].is_finite()
    }

    /// Extracts the shortest path from the source to `dst`, or `None` if
    /// unreachable.
    #[must_use]
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if !self.reachable(dst) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != self.src {
            let (e, prev) = self.parent[cur.idx()].expect("reachable non-source has a parent");
            edges.push(e);
            cur = prev;
        }
        edges.reverse();
        Some(Path { src: self.src, dst, edges: edges.into_boxed_slice() })
    }
}

/// Single-source Dijkstra under the given non-negative edge lengths.
///
/// `lengths[e.idx()]` is the length of edge `e`; it must be finite and
/// non-negative. Runs in `O(E log V)`.
#[must_use]
pub fn dijkstra(g: &Graph, src: NodeId, lengths: &[f64]) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::new(g.node_count());
    ws.run(g, src, lengths);
    ws.into_tree()
}

/// Dijkstra with unit lengths — hop-count shortest paths (IP routing
/// metric).
#[must_use]
pub fn dijkstra_hops(g: &Graph, src: NodeId) -> ShortestPathTree {
    let ones = vec![1.0; g.edge_count()];
    dijkstra(g, src, &ones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::{canned, GraphBuilder};

    #[test]
    fn path_graph_distances() {
        let g = canned::path(5, 1.0);
        let spt = dijkstra_hops(&g, NodeId(0));
        for i in 0..5 {
            assert_eq!(spt.dist(NodeId(i)), i as f64);
        }
        let p = spt.path_to(NodeId(4)).unwrap();
        assert_eq!(p.hops(), 4);
        p.validate(&g);
    }

    #[test]
    fn respects_weights_over_hops() {
        // Triangle where the direct edge is longer than the two-hop detour.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        b.add_edge(NodeId(1), NodeId(2), 1.0); // e1
        b.add_edge(NodeId(0), NodeId(2), 1.0); // e2 direct
        let g = b.finish();
        let lengths = [1.0, 1.0, 5.0];
        let spt = dijkstra(&g, NodeId(0), &lengths);
        assert_eq!(spt.dist(NodeId(2)), 2.0);
        let p = spt.path_to(NodeId(2)).unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn unreachable_nodes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.finish();
        let spt = dijkstra_hops(&g, NodeId(0));
        assert!(!spt.reachable(NodeId(2)));
        assert!(spt.path_to(NodeId(2)).is_none());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-length routes 0→1→3 and 0→2→3; the tie-break must pick
        // predecessor 1 (lower id) every time.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        b.add_edge(NodeId(1), NodeId(3), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        let g = b.finish();
        for _ in 0..5 {
            let p = dijkstra_hops(&g, NodeId(0)).path_to(NodeId(3)).unwrap();
            assert_eq!(p.nodes(&g)[1], NodeId(1));
        }
    }

    #[test]
    fn zero_length_edges_allowed() {
        let g = canned::path(3, 1.0);
        let spt = dijkstra(&g, NodeId(0), &[0.0, 0.0]);
        assert_eq!(spt.dist(NodeId(2)), 0.0);
        assert_eq!(spt.path_to(NodeId(2)).unwrap().hops(), 2);
    }

    #[test]
    fn parallel_edges_pick_shorter() {
        let g = canned::parallel_links(2, 1.0);
        let spt = dijkstra(&g, NodeId(0), &[3.0, 1.0]);
        let p = spt.path_to(NodeId(1)).unwrap();
        assert_eq!(p.edges.as_ref(), &[EdgeId(1)]);
        assert_eq!(spt.dist(NodeId(1)), 1.0);
    }

    #[test]
    fn source_path_is_trivial() {
        let g = canned::ring(4, 1.0);
        let spt = dijkstra_hops(&g, NodeId(2));
        let p = spt.path_to(NodeId(2)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.src, p.dst);
    }
}
