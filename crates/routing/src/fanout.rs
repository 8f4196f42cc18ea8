//! The fan driver: a round of `(source, targets)` Dijkstras at once.
//!
//! The §V dynamic-routing oracle needs one shortest-path fan per session
//! member under the same length assignment. [`run_fan_chunks_with`] runs
//! a round of such fans on the calling thread, one [`DijkstraWorkspace`]
//! per job, leased from a shared [`WorkspacePool`], and returns the
//! workspaces in job order.
//!
//! Rounds run serially. Splitting them across threads measured ~1.0×
//! (docs/PERF.md, "Negative results"): the parallelism that pays is
//! coarser, across sweep cells, shards and checkpoints.

use crate::workspace::{DijkstraWorkspace, WorkspacePool};
use omcf_topology::{Graph, NodeId};

/// Runs one early-exit Dijkstra per `(source, targets)` job, each
/// stopping once every node of its target set is settled, and returns
/// one workspace per job, in job order. This is the shape of one round
/// of the dynamic oracle's Prim: each job is one member's fan to its
/// session's members, possibly mixing sessions in one round. Settled
/// distances, parents and paths are identical to full per-source runs.
/// Callers read the workspaces they need and hand each back via
/// [`WorkspacePool::give_back`].
#[must_use]
pub fn run_fan_chunks_with(
    g: &Graph,
    jobs: &[(NodeId, &[NodeId])],
    lengths: &[f64],
    pool: &WorkspacePool,
) -> Vec<DijkstraWorkspace> {
    jobs.iter()
        .map(|&(src, targets)| {
            let mut ws = pool.lease(g.node_count());
            ws.run_targets(g, src, lengths, targets);
            ws
        })
        .collect()
}
