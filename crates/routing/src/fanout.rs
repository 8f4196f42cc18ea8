//! Batched parallel member fan-out: all of one session's shortest-path
//! trees at once.
//!
//! The §V dynamic-routing oracle needs one tree per session member under
//! the same length assignment — `|S_i|` independent Dijkstras. This
//! module computes them concurrently via rayon, each worker leasing its
//! own [`DijkstraWorkspace`](crate::DijkstraWorkspace) from a shared
//! [`WorkspacePool`] (no shared
//! mutable state between workers), and returns the trees **in member
//! order** regardless of completion order: results are merged by input
//! index, so the output is deterministic and byte-identical to the
//! serial loop (pinned by `tests/prop.rs`) at any thread count,
//! including under work stealing.
//!
//! Which threads run the fan-out is governed by the
//! [`Parallelism`] policy: [`fanout_trees`] takes it from the pool
//! (default [`Parallelism::Auto`], which joins the ambient worker pool
//! when the fan-out happens inside an already-parallel sweep cell),
//! [`fanout_trees_with`] accepts it explicitly.

use crate::dijkstra::ShortestPathTree;
use crate::queue::QueueKind;
use crate::workspace::WorkspacePool;
use omcf_numerics::Parallelism;
use omcf_telemetry::stats;
use omcf_topology::{Graph, NodeId};
use rayon::prelude::*;

/// Computes the full shortest-path tree of every source in `sources`
/// under `lengths`, returning trees in `sources` order, under the
/// execution policy carried by `pool`
/// ([`WorkspacePool::parallelism`]). Workspaces come from (and return
/// to) `pool`; `kind` selects the queue discipline (results are
/// identical for every kind).
#[must_use]
pub fn fanout_trees(
    g: &Graph,
    sources: &[NodeId],
    lengths: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
) -> Vec<ShortestPathTree> {
    fanout_trees_with(g, sources, lengths, pool, kind, pool.parallelism())
}

/// [`fanout_trees`] with an explicit [`Parallelism`] policy (overriding
/// whatever the pool carries). Output is byte-identical regardless of
/// policy; only wall-clock time changes.
#[must_use]
pub fn fanout_trees_with(
    g: &Graph,
    sources: &[NodeId],
    lengths: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
    parallelism: Parallelism,
) -> Vec<ShortestPathTree> {
    if parallelism.is_serial() || sources.len() <= 1 {
        return fanout_trees_serial(g, sources, lengths, pool, kind);
    }
    // Gather the lengths into arc order once for the whole fan: every
    // worker's relax loop then streams one contiguous array instead of
    // gathering per arc through the edge-id table. Same weight values,
    // so the trees stay bit-identical to the per-edge path.
    let mut mirror = pool.lease_mirror();
    g.csr().fill_arc_lengths(lengths, &mut mirror);
    stats::ROUTING_MIRROR_GATHERS.inc();
    stats::ROUTING_MIRROR_ARCS.add(mirror.len() as u64);
    let mirror = mirror;
    let trees = parallelism.install(|| {
        sources
            .par_iter()
            .map(|&src| {
                let mut ws = pool.lease_with(g.node_count(), kind);
                ws.run_arcs(g, src, lengths, &mirror);
                let tree = ws.to_tree();
                pool.give_back(ws);
                tree
            })
            .collect()
    });
    pool.give_back_mirror(mirror);
    trees
}

/// Batched member fan-out: the same trees as [`fanout_trees`], computed
/// through [`BatchDijkstra`](crate::BatchDijkstra) engines in lane
/// chunks of [`fan_width`](crate::fan_width) sources per run — the
/// *calibrated* production width, which the measurements in
/// [`crate::batch`]'s module docs currently put at per-source (lane
/// sharing loses at every scale tried). Output is **bit-identical** to
/// the per-source loop at any chunk width (each lane replays its
/// single-source relaxation order exactly; pinned by
/// `tests/batch_prop.rs`); only wall-clock time changes. A single
/// source falls back to the per-source workspace loop directly.
#[must_use]
pub fn fanout_trees_batched(
    g: &Graph,
    sources: &[NodeId],
    lengths: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
) -> Vec<ShortestPathTree> {
    fanout_trees_batched_with(g, sources, lengths, pool, kind, pool.parallelism())
}

/// [`fanout_trees_batched`] with an explicit [`Parallelism`] policy: the
/// lane chunks are the parallel work units, split across the policy's
/// workers. Results are byte-identical regardless of policy or chunking.
#[must_use]
pub fn fanout_trees_batched_with(
    g: &Graph,
    sources: &[NodeId],
    lengths: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
    parallelism: Parallelism,
) -> Vec<ShortestPathTree> {
    if sources.len() <= 1 {
        return fanout_trees_serial(g, sources, lengths, pool, kind);
    }
    let width = crate::batch::fan_width(g.node_count());
    // One arc-order gather serves every chunk of the fan (shared by
    // reference across workers); see `fanout_trees_with`.
    let mut mirror = pool.lease_mirror();
    g.csr().fill_arc_lengths(lengths, &mut mirror);
    stats::ROUTING_MIRROR_GATHERS.inc();
    stats::ROUTING_MIRROR_ARCS.add(mirror.len() as u64);
    let mirror = mirror;
    let run_chunk = |chunk: &[NodeId]| -> Vec<ShortestPathTree> {
        let mut batch = pool.lease_batch(g.node_count(), kind);
        batch.run_arcs(g, chunk, lengths, &mirror);
        let trees = (0..chunk.len()).map(|lane| batch.to_tree(lane)).collect();
        pool.give_back_batch(batch);
        trees
    };
    // LANE_CHUNK-sized slices are the parallel work units; each worker
    // sub-chunks its slice to the calibrated width. Index-ordered
    // flattening keeps the output identical to the serial order.
    let per_chunk: Vec<Vec<ShortestPathTree>> = if parallelism.is_serial() {
        sources.chunks(width).map(run_chunk).collect()
    } else {
        let per_task: Vec<Vec<Vec<ShortestPathTree>>> = parallelism.install(|| {
            sources
                .par_chunks(crate::batch::LANE_CHUNK)
                .map(|task| task.chunks(width).map(run_chunk).collect())
                .collect()
        });
        per_task.into_iter().flatten().collect()
    };
    let trees = per_chunk.into_iter().flatten().collect();
    pool.give_back_mirror(mirror);
    trees
}

/// Early-exit fan engines for arbitrary `(source, targets)` jobs: a
/// lane per job, each computing its job's shortest-path fan and
/// stopping once every node of that job's target set is settled. Jobs
/// are packed into engine runs of [`fan_width`](crate::fan_width)
/// lanes — the calibrated production width — so job `i` lands in
/// engine `i / fan_width(n)`, lane `i % fan_width(n)`, in order;
/// callers must index with the same function. The engine runs are
/// split across `parallelism`'s workers in
/// [`LANE_CHUNK`](crate::LANE_CHUNK)-job slices. This is the shape of
/// one round of the dynamic oracle's Prim: each job is one member's fan
/// to its session's members, possibly mixing sessions in one run.
/// `arcs` is `lengths` gathered into arc order
/// ([`CsrGraph::fill_arc_lengths`]); workers share it by reference, and
/// a caller that runs several rounds under one length assignment
/// gathers it once for all of them. Settled distances, parents and
/// paths are identical to per-source full runs at any width. Callers
/// read the lanes they need and hand each engine back via
/// [`WorkspacePool::give_back_batch`].
///
/// [`CsrGraph::fill_arc_lengths`]: omcf_topology::CsrGraph::fill_arc_lengths
#[must_use]
pub fn run_fan_chunks_with(
    g: &Graph,
    jobs: &[(NodeId, &[NodeId])],
    lengths: &[f64],
    arcs: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
    parallelism: Parallelism,
) -> Vec<crate::batch::BatchDijkstra> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let width = crate::batch::fan_width(g.node_count());
    debug_assert!(width <= crate::batch::LANE_CHUNK, "fan width capped by the tested lane count");
    // The parallel leg slices jobs at LANE_CHUNK boundaries and
    // sub-chunks each slice by `width`; the flattened engine order
    // equals the serial `jobs.chunks(width)` order only when slice
    // boundaries fall on width boundaries.
    debug_assert_eq!(crate::batch::LANE_CHUNK % width, 0, "parallel split must align with width");
    let run_chunk = |chunk: &[(NodeId, &[NodeId])]| -> crate::batch::BatchDijkstra {
        let mut batch = pool.lease_batch(g.node_count(), kind);
        // Gather on the stack: chunks never exceed LANE_CHUNK lanes.
        let mut sources = [NodeId(0); crate::batch::LANE_CHUNK];
        let mut targets: [&[NodeId]; crate::batch::LANE_CHUNK] = [&[]; crate::batch::LANE_CHUNK];
        for (slot, &(src, tgts)) in chunk.iter().enumerate() {
            sources[slot] = src;
            targets[slot] = tgts;
        }
        batch.run_lane_targets_arcs(
            g,
            &sources[..chunk.len()],
            lengths,
            arcs,
            &targets[..chunk.len()],
        );
        batch
    };
    if parallelism.is_serial() || jobs.len() <= crate::batch::LANE_CHUNK {
        jobs.chunks(width).map(run_chunk).collect()
    } else {
        let per_task: Vec<Vec<crate::batch::BatchDijkstra>> = parallelism.install(|| {
            jobs.par_chunks(crate::batch::LANE_CHUNK)
                .map(|task| task.chunks(width).map(run_chunk).collect())
                .collect()
        });
        per_task.into_iter().flatten().collect()
    }
}

/// The serial twin of [`fanout_trees`]: one worker, same workspaces,
/// same deterministic output. The determinism property test diffs the
/// two; callers use it when single-threaded behaviour is wanted
/// explicitly.
#[must_use]
pub fn fanout_trees_serial(
    g: &Graph,
    sources: &[NodeId],
    lengths: &[f64],
    pool: &WorkspacePool,
    kind: QueueKind,
) -> Vec<ShortestPathTree> {
    sources
        .iter()
        .map(|&src| {
            let mut ws = pool.lease_with(g.node_count(), kind);
            ws.run(g, src, lengths);
            let tree = ws.to_tree();
            pool.give_back(ws);
            tree
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use omcf_topology::canned;

    #[test]
    fn fanout_matches_one_shot_dijkstra_per_source() {
        let g = canned::grid(5, 5, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 1.0 + (e % 3) as f64).collect();
        let sources = [NodeId(0), NodeId(7), NodeId(24), NodeId(7)];
        let pool = WorkspacePool::new();
        let trees = fanout_trees(&g, &sources, &lengths, &pool, QueueKind::Binary);
        assert_eq!(trees.len(), sources.len());
        for (i, &src) in sources.iter().enumerate() {
            let fresh = dijkstra(&g, src, &lengths);
            assert_eq!(trees[i].source(), src);
            for v in g.nodes() {
                assert_eq!(trees[i].dist(v).to_bits(), fresh.dist(v).to_bits());
                assert_eq!(trees[i].path_to(v), fresh.path_to(v));
            }
        }
        assert!(pool.idle() >= 1, "workspaces returned to the pool");
    }

    #[test]
    fn serial_twin_is_identical() {
        let g = canned::ring(12, 1.0);
        let lengths: Vec<f64> = (0..g.edge_count()).map(|e| 0.5 + (e % 5) as f64).collect();
        let sources: Vec<NodeId> = (0..12).step_by(3).map(NodeId).collect();
        let pool = WorkspacePool::new();
        for kind in QueueKind::ALL {
            let par = fanout_trees(&g, &sources, &lengths, &pool, kind);
            let ser = fanout_trees_serial(&g, &sources, &lengths, &pool, kind);
            assert_eq!(par, ser, "{kind:?}");
        }
    }
}
