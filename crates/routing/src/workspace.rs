//! Reusable Dijkstra workspace: the solver hot path.
//!
//! Every oracle call of the dynamic-routing FPTAS runs one Dijkstra per
//! session member, thousands of times per solve. A fresh [`dijkstra`]
//! allocates four `Vec`s per call; [`DijkstraWorkspace`] pre-allocates them
//! once and resets in O(1) via generation stamps, and its multi-target
//! entry point stops as soon as every requested target is settled. The
//! inner loop walks the graph's struct-of-arrays
//! [`CsrGraph`](omcf_topology::CsrGraph) (offsets/heads/edge-ids in
//! contiguous arrays) and pushes and pops one concrete
//! `std::collections::BinaryHeap`. This is the workspace's only engine:
//! the oracles, [`FixedRoutes`](crate::FixedRoutes) and the fan driver
//! [`run_fan_chunks_with`](crate::run_fan_chunks_with) all run it.
//!
//! Every entry point runs *exactly* the algorithm of the frozen
//! adjacency-list reference ([`crate::reference::dijkstra_adjacency`]) —
//! identical relaxation order (the CSR preserves `neighbors()` arc
//! order), identical `(dist, node)` pop order, identical deterministic
//! tie-breaking — so distances and extracted paths are bit-identical
//! across layouts (the property tests in `tests/prop.rs` pin this).
//! Early exit is safe for the same reason Dijkstra is correct: once a
//! node is settled its distance and parent are final, so any settled
//! target's path is the same whether or not the remaining nodes are
//! ever popped.
//!
//! [`dijkstra`]: crate::dijkstra::dijkstra

use crate::dijkstra::ShortestPathTree;
use crate::path::Path;
use crate::queue::HeapItem;
use crate::slots::{NodeSlot, NO_PARENT};
use omcf_telemetry::stats;
use omcf_topology::{Graph, NodeId};
use std::collections::BinaryHeap;

/// Pre-allocated single-source shortest-path state, reusable across runs.
///
/// A run fills the workspace in place; [`Self::dist`] and [`Self::path_to`]
/// then read the result without copying. After an early-exited
/// [`Self::run_targets`] only the requested targets (and any other settled
/// node) carry final values — query those only.
#[derive(Debug)]
pub struct DijkstraWorkspace {
    src: NodeId,
    /// Per-node packed relaxation record (`NodeSlot`): distance,
    /// parent link and the state word in one 24-byte struct, so the
    /// relax loop touches one location per node where three parallel
    /// arrays (`dist`/`parent`/`state`) used to cost three cache lines.
    /// The state word holds the generation stamp and two flag bits:
    ///
    /// ```text
    /// state <  gen        untouched this run (O(1) reset: gen += 4)
    /// state == gen | 1    marked as an early-exit target (bit 0);
    ///                     dist/parent pre-set to the unreached
    ///                     defaults so `tentative` stays uniform
    /// state >= gen        seen: dist/parent are valid
    /// state >= gen + 2    settled (bit 1)
    /// ```
    slots: Vec<NodeSlot>,
    /// Always a multiple of 4, advancing by 4 per run so the two flag
    /// bits can never collide with a stamp comparison.
    gen: u32,
    /// Reused across runs (cleared at the start of each).
    heap: BinaryHeap<HeapItem>,
}

/// `state[v]` bit 0: node is an early-exit target of the current run.
const STATE_TARGET: u32 = 1;
/// `state[v]` bit 1: node is settled (popped) in the current run.
const STATE_DONE: u32 = 2;
/// Per-run generation stride (leaves the two flag bits clear).
const GEN_STRIDE: u32 = 4;

impl DijkstraWorkspace {
    /// Creates a workspace for graphs of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            src: NodeId(0),
            slots: vec![NodeSlot::UNREACHED; n],
            gen: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Number of nodes the workspace is sized for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    fn begin(&mut self, src: NodeId) {
        debug_assert!(src.idx() < self.slots.len(), "source outside workspace");
        if self.gen > u32::MAX - GEN_STRIDE {
            // Stamp wrap: hard-reset so stale stamps can never alias.
            for s in &mut self.slots {
                s.state = 0;
            }
            self.gen = 0;
        }
        self.gen += GEN_STRIDE;
        self.src = src;
        let s = &mut self.slots[src.idx()];
        s.dist = 0.0;
        s.clear_parent();
        s.state = self.gen;
    }

    #[inline]
    fn tentative(&self, v: usize) -> f64 {
        // Target-marked nodes pre-set dist to ∞, so "state stamped this
        // run" always means "slot.dist is the tentative distance".
        let s = &self.slots[v];
        if s.state >= self.gen {
            s.dist
        } else {
            f64::INFINITY
        }
    }

    /// Runs single-source Dijkstra from `src`, settling every reachable
    /// node. Equivalent to [`crate::dijkstra::dijkstra`] with the state
    /// left in the workspace.
    pub fn run(&mut self, g: &Graph, src: NodeId, lengths: &[f64]) {
        self.run_inner(g, src, lengths, &[]);
    }

    /// Runs Dijkstra from `src` but stops as soon as every node in
    /// `targets` is settled. Distances, parents and paths of the targets
    /// are identical to a full run; unlisted nodes may be left unsettled.
    pub fn run_targets(&mut self, g: &Graph, src: NodeId, lengths: &[f64], targets: &[NodeId]) {
        debug_assert!(!targets.is_empty(), "run_targets needs at least one target");
        self.run_inner(g, src, lengths, targets);
    }

    fn run_inner(&mut self, g: &Graph, src: NodeId, lengths: &[f64], targets: &[NodeId]) {
        assert_eq!(lengths.len(), g.edge_count(), "length table size mismatch");
        assert_eq!(self.slots.len(), g.node_count(), "workspace sized for a different graph");
        debug_assert!(lengths.iter().all(|l| *l >= 0.0 && l.is_finite()));
        self.begin(src);
        // Captured once per run: queue/relaxation events are batched in
        // locals and flushed after the loop, so the inner loop carries no
        // atomics and the disabled cost is this one load.
        let telemetry = omcf_telemetry::enabled();
        let mut pops = 0u64;
        let mut pushes = 0u64;
        let mut scans = 0u64;
        let gen = self.gen;
        let mut pending = 0usize;
        for &t in targets {
            let slot = &mut self.slots[t.idx()];
            let s = slot.state;
            if s < gen {
                // Stamp as target; pre-set the unreached defaults so the
                // stamp alone makes dist/parent readable (identical
                // relaxation outcomes to an unstamped node).
                slot.state = gen | STATE_TARGET;
                slot.dist = f64::INFINITY;
                slot.clear_parent();
                pending += 1;
            } else if s & STATE_TARGET == 0 {
                // Already seen this run (the source): flag only.
                slot.state = s | STATE_TARGET;
                pending += 1;
            }
        }
        let heap = &mut self.heap;
        heap.clear();
        heap.push(HeapItem::new(0.0, src));
        pushes += 1;
        // Hot loop over the struct-of-arrays CSR: per arc, one contiguous
        // read of (edge id, head) instead of the edge-record pointer
        // chase, and one packed slot holding the target node's whole
        // relaxation record. Arc order equals `neighbors()` order and the
        // heap pops in `(dist, node)` order, so relaxations — and
        // therefore results — are bit-identical to the adjacency-list
        // reference (`crate::reference`, pinned by `tests/prop.rs`).
        let csr = g.csr();
        while let Some(item) = heap.pop() {
            let (d, u) = item.get();
            pops += 1;
            let su = self.slots[u.idx()].state;
            if su >= gen + STATE_DONE {
                continue;
            }
            self.slots[u.idx()].state = su | STATE_DONE;
            if !targets.is_empty() && su & STATE_TARGET != 0 {
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            let (arc_edges, heads) = csr.arc_slices(u);
            scans += arc_edges.len() as u64;
            for (&e, &v) in arc_edges.iter().zip(heads) {
                let nd = d + lengths[e.idx()];
                // One slot load answers "already settled?", "is dist
                // valid?" and the tie-break parent in a single line fill.
                let slot = &mut self.slots[v.idx()];
                let sv = slot.state;
                if sv >= gen + STATE_DONE {
                    continue;
                }
                let cur = if sv >= gen { slot.dist } else { f64::INFINITY };
                let better = nd < cur
                    // Deterministic tie-break: prefer the lower-id
                    // predecessor (identical rule to `dijkstra`; the
                    // sentinel check keeps "no parent yet" a non-tie).
                    || (nd == cur && slot.parent_node != NO_PARENT && u.0 < slot.parent_node);
                if better {
                    slot.dist = nd;
                    slot.parent_edge = e.0;
                    slot.parent_node = u.0;
                    if sv < gen {
                        // First touch this run; preserves the target bit
                        // on re-touches.
                        slot.state = gen;
                    }
                    heap.push(HeapItem::new(nd, v));
                    pushes += 1;
                }
            }
        }
        if telemetry {
            stats::ROUTING_DIJKSTRA_RUNS.record(1);
            stats::ROUTING_HEAP_PUSHES.record(pushes);
            stats::ROUTING_HEAP_POPS.record(pops);
            stats::ROUTING_RELAXATIONS.record(scans);
        }
    }

    /// The source of the last run.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// Distance from the source to `n` (`f64::INFINITY` if unreached).
    /// After an early-exited run, only settled nodes carry final values.
    #[must_use]
    pub fn dist(&self, n: NodeId) -> f64 {
        self.tentative(n.idx())
    }

    /// Extracts the shortest path to `dst`, or `None` if unreached.
    /// After an early-exited run, query settled targets only.
    #[must_use]
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if !self.dist(dst).is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != self.src {
            let (e, prev) =
                self.slots[cur.idx()].parent().expect("reachable non-source has a parent");
            edges.push(e);
            cur = prev;
        }
        edges.reverse();
        Some(Path { src: self.src, dst, edges: edges.into_boxed_slice() })
    }

    /// Materializes the full run as an owned [`ShortestPathTree`],
    /// unpacking the slot array into the tree's `dist`/`parent` columns
    /// (stale slots from earlier runs read as unreached). Only meaningful
    /// after [`Self::run`] (a full run); an early-exited run holds
    /// tentative values for unsettled nodes.
    #[must_use]
    pub fn to_tree(&self) -> ShortestPathTree {
        let n = self.slots.len();
        let dist = (0..n).map(|v| self.tentative(v)).collect();
        let parent = self
            .slots
            .iter()
            .map(|s| if s.state >= self.gen { s.parent() } else { None })
            .collect();
        ShortestPathTree::from_parts(self.src, dist, parent)
    }

    /// [`Self::to_tree`] for the one-shot [`crate::dijkstra::dijkstra`]
    /// path, consuming the workspace. (With the packed slot layout the
    /// owned tree's columnar `dist`/`parent` arrays are built fresh
    /// either way; the generation stamps already scrub slots untouched
    /// since the last run.)
    #[must_use]
    pub fn into_tree(self) -> ShortestPathTree {
        self.to_tree()
    }
}

/// A shared pool of [`DijkstraWorkspace`]s for drivers that run many solver
/// instances over same-sized graphs (the sweep driver): instead of every
/// oracle allocating its per-member workspaces from scratch, it leases them
/// here and hands them back after every query, so the dense slot buffers
/// are recycled across cells. Lock contention is a non-issue: the
/// pool is touched once per lease/return, not per Dijkstra run — workspaces
/// are private to their holder between the two.
///
/// Workspaces are pooled per node count; a lease for a size the pool has
/// never seen simply allocates. The pool never shrinks on its own; callers
/// that finish a sweep drop the pool (or call [`Self::clear`]).
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: std::sync::Mutex<Vec<DijkstraWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `self`: fans run serially whatever the policy. Kept only
    /// because `perfbench/src/solve.rs` calls it, and `perfbench/` changes
    /// only in a benchmark change; drop that call there, then this method.
    #[doc(hidden)]
    #[must_use]
    pub fn with_parallelism(self, _parallelism: omcf_numerics::Parallelism) -> Self {
        self
    }

    /// Leases a workspace sized for `n` nodes: recycles a pooled one of the
    /// exact size if available, otherwise allocates fresh.
    #[must_use]
    pub fn lease(&self, n: usize) -> DijkstraWorkspace {
        stats::ROUTING_POOL_LEASES.inc();
        let mut free = self.free.lock().expect("workspace pool poisoned");
        if let Some(pos) = free.iter().position(|ws| ws.node_count() == n) {
            free.swap_remove(pos)
        } else {
            // Cache-miss allocation: whether the free list was empty here
            // depends on thread interleaving, hence the Wall-class counter.
            stats::ROUTING_POOL_ALLOCS.inc();
            DijkstraWorkspace::new(n)
        }
    }

    /// Returns a workspace to the pool for future leases. The workspace's
    /// generation stamps make any prior contents unreadable to the next
    /// holder — no reset pass is needed.
    pub fn give_back(&self, ws: DijkstraWorkspace) {
        self.free.lock().expect("workspace pool poisoned").push(ws);
    }

    /// Number of idle pooled workspaces.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }

    /// Drops all pooled workspaces.
    pub fn clear(&self) {
        self.free.lock().expect("workspace pool poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use omcf_topology::{canned, GraphBuilder};

    #[test]
    fn matches_fresh_dijkstra_on_a_grid() {
        let g = canned::grid(4, 4, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 1.0 + (e % 5) as f64).collect();
        let mut ws = DijkstraWorkspace::new(g.node_count());
        for src in g.nodes() {
            ws.run(&g, src, &lengths);
            let fresh = dijkstra(&g, src, &lengths);
            for n in g.nodes() {
                assert_eq!(ws.dist(n), fresh.dist(n));
                assert_eq!(ws.path_to(n), fresh.path_to(n));
            }
        }
    }

    #[test]
    fn reuse_does_not_leak_state_between_runs() {
        let g = canned::ring(8, 1.0);
        let unit = vec![1.0; g.edge_count()];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run(&g, NodeId(0), &unit);
        let d03 = ws.dist(NodeId(3));
        ws.run(&g, NodeId(4), &unit);
        assert_eq!(ws.source(), NodeId(4));
        assert_eq!(ws.dist(NodeId(4)), 0.0);
        // Rerun from 0: identical to the first run.
        ws.run(&g, NodeId(0), &unit);
        assert_eq!(ws.dist(NodeId(3)), d03);
    }

    #[test]
    fn early_exit_settles_all_targets_identically() {
        let g = canned::grid(5, 5, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 0.5 + (e % 3) as f64).collect();
        let targets = [NodeId(0), NodeId(12), NodeId(24)];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run_targets(&g, NodeId(0), &lengths, &targets);
        let fresh = dijkstra(&g, NodeId(0), &lengths);
        for &t in &targets {
            assert_eq!(ws.dist(t), fresh.dist(t));
            assert_eq!(ws.path_to(t), fresh.path_to(t));
        }
    }

    #[test]
    fn early_exit_with_source_as_only_target_is_trivial() {
        let g = canned::path(6, 1.0);
        let unit = vec![1.0; g.edge_count()];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run_targets(&g, NodeId(2), &unit, &[NodeId(2)]);
        assert_eq!(ws.dist(NodeId(2)), 0.0);
        assert_eq!(ws.path_to(NodeId(2)).unwrap().hops(), 0);
    }

    #[test]
    fn unreachable_node_reported_unreached() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.finish();
        let mut ws = DijkstraWorkspace::new(3);
        ws.run(&g, NodeId(0), &[1.0]);
        assert!(!ws.dist(NodeId(2)).is_finite());
        assert!(ws.path_to(NodeId(2)).is_none());
        let tree = ws.to_tree();
        assert!(!tree.reachable(NodeId(2)));
    }

    #[test]
    fn into_tree_scrubs_stale_slots_from_earlier_runs() {
        // Two components: nodes {0,1} and {2,3}. A run from 0 reaches 1,
        // a later run from 2 reaches 3 — node 1's slot is stale there and
        // must come back unreached, not with run-1 leftovers.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        let g = b.finish();
        let unit = vec![1.0; g.edge_count()];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run(&g, NodeId(0), &unit);
        ws.run(&g, NodeId(2), &unit);
        let owned = ws.into_tree();
        let fresh = dijkstra(&g, NodeId(2), &unit);
        for n in g.nodes() {
            assert_eq!(owned.dist(n), fresh.dist(n));
            assert_eq!(owned.path_to(n), fresh.path_to(n));
        }
        assert!(!owned.reachable(NodeId(1)));
    }

    #[test]
    fn pool_recycles_matching_sizes_only() {
        let pool = WorkspacePool::new();
        let a = pool.lease(10);
        assert_eq!(a.node_count(), 10);
        pool.give_back(a);
        assert_eq!(pool.idle(), 1);
        // Mismatched size: fresh allocation, pooled one stays idle.
        let b = pool.lease(20);
        assert_eq!(b.node_count(), 20);
        assert_eq!(pool.idle(), 1);
        // Matching size: recycled.
        let c = pool.lease(10);
        assert_eq!(c.node_count(), 10);
        assert_eq!(pool.idle(), 0);
        pool.give_back(b);
        pool.give_back(c);
        assert_eq!(pool.idle(), 2);
        pool.clear();
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn recycled_workspace_computes_identically() {
        let g = canned::grid(4, 4, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 1.0 + (e % 4) as f64).collect();
        let pool = WorkspacePool::new();
        let mut first = pool.lease(g.node_count());
        first.run(&g, NodeId(3), &lengths);
        pool.give_back(first);
        let mut again = pool.lease(g.node_count());
        again.run(&g, NodeId(0), &lengths);
        let fresh = dijkstra(&g, NodeId(0), &lengths);
        for n in g.nodes() {
            assert_eq!(again.dist(n), fresh.dist(n));
            assert_eq!(again.path_to(n), fresh.path_to(n));
        }
    }

    #[test]
    fn to_tree_round_trips() {
        let g = canned::theta(1.0);
        let lengths = [1.0, 1.0, 2.0, 2.0, 3.0, 0.5];
        let mut ws = DijkstraWorkspace::new(g.node_count());
        ws.run(&g, NodeId(0), &lengths);
        let owned = ws.to_tree();
        let fresh = dijkstra(&g, NodeId(0), &lengths);
        for n in g.nodes() {
            assert_eq!(owned.dist(n), fresh.dist(n));
            assert_eq!(owned.path_to(n), fresh.path_to(n));
        }
    }
}
