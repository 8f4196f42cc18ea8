//! Fixed IP routing tables.
//!
//! "This route is determined by IP-level routing" (paper, footnote 1): the
//! route between two overlay nodes is the hop-count shortest path of the
//! physical topology, frozen at construction time. [`FixedRoutes`] stores
//! the pairwise routes for a set of *members* (the union of all session
//! vertices); the FPTAS then evaluates overlay edge lengths by summing its
//! live per-edge lengths over these frozen paths.

use crate::path::Path;
use crate::workspace::DijkstraWorkspace;
use omcf_topology::{EdgeId, Graph, NodeId};

/// Pairwise fixed routes among a member set.
#[derive(Clone, Debug)]
pub struct FixedRoutes {
    members: Vec<NodeId>,
    /// member index → position in `members` (dense over graph nodes).
    member_pos: Vec<Option<u32>>,
    /// Row-major `members.len() × members.len()`; diagonal holds trivial
    /// paths.
    paths: Vec<Path>,
}

impl FixedRoutes {
    /// Computes hop-count shortest routes between every pair of `members`.
    /// Panics if any pair is disconnected: overlay sessions require a
    /// connected substrate.
    #[must_use]
    pub fn new(g: &Graph, members: &[NodeId]) -> Self {
        let mut uniq = members.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), members.len(), "duplicate members");
        let m = members.len();
        let mut member_pos = vec![None; g.node_count()];
        for (i, &n) in members.iter().enumerate() {
            member_pos[n.idx()] = Some(i as u32);
        }
        // One hop-count Dijkstra per member, each early-exiting once all
        // members are settled: only member-pair paths are ever read, and
        // settled paths are bit-identical to a full run.
        let ones = vec![1.0; g.edge_count()];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        let mut paths = Vec::with_capacity(m * m);
        for &src in members {
            ws.run_targets(g, src, &ones, members);
            for &dst in members {
                let p = ws
                    .path_to(dst)
                    .unwrap_or_else(|| panic!("members {src:?} and {dst:?} are disconnected"));
                paths.push(p);
            }
        }
        Self { members: members.to_vec(), member_pos, paths }
    }

    /// The member set, in construction order.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The fixed route between two members.
    #[must_use]
    pub fn route(&self, src: NodeId, dst: NodeId) -> &Path {
        let i = self.member_pos[src.idx()].expect("src not a member") as usize;
        let j = self.member_pos[dst.idx()].expect("dst not a member") as usize;
        &self.paths[i * self.members.len() + j]
    }

    /// Maximum hop count over all member-pair routes — the paper's `U`
    /// ("length of the longest unicast route"), which parameterizes δ.
    #[must_use]
    pub fn max_route_hops(&self) -> usize {
        self.paths.iter().map(Path::hops).max().unwrap_or(0)
    }

    /// The set of physical edges used by at least one route (the paper's
    /// §III-E reports "all unicast paths of both overlay sessions cover 52
    /// physical links").
    #[must_use]
    pub fn covered_edges(&self) -> Vec<EdgeId> {
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.paths {
            seen.extend(p.edges.iter().copied());
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::{canned, GraphBuilder};

    #[test]
    fn routes_on_a_ring() {
        let g = canned::ring(6, 1.0);
        let members = [NodeId(0), NodeId(2), NodeId(3)];
        let routes = FixedRoutes::new(&g, &members);
        assert_eq!(routes.route(NodeId(0), NodeId(2)).hops(), 2);
        assert_eq!(routes.route(NodeId(0), NodeId(3)).hops(), 3);
        assert_eq!(routes.route(NodeId(3), NodeId(3)).hops(), 0);
        assert_eq!(routes.max_route_hops(), 3);
    }

    #[test]
    fn routes_are_symmetric_in_hops() {
        let g = canned::grid(4, 4, 1.0);
        let members: Vec<NodeId> = vec![NodeId(0), NodeId(5), NodeId(15)];
        let routes = FixedRoutes::new(&g, &members);
        for &a in &members {
            for &b in &members {
                assert_eq!(
                    routes.route(a, b).hops(),
                    routes.route(b, a).hops(),
                    "hop asymmetry {a:?}↔{b:?}"
                );
            }
        }
    }

    #[test]
    fn covered_edges_deduplicated() {
        let g = canned::path(4, 1.0);
        let routes = FixedRoutes::new(&g, &[NodeId(0), NodeId(2), NodeId(3)]);
        // Every edge of the path graph is on some route; each counted once.
        assert_eq!(routes.covered_edges().len(), 3);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_members_panic() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.finish();
        let _ = FixedRoutes::new(&g, &[NodeId(0), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn duplicate_members_panic() {
        let g = canned::path(3, 1.0);
        let _ = FixedRoutes::new(&g, &[NodeId(0), NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_lookup_panics() {
        let g = canned::path(3, 1.0);
        let routes = FixedRoutes::new(&g, &[NodeId(0), NodeId(1)]);
        let _ = routes.route(NodeId(0), NodeId(2));
    }
}
