//! The fan driver: a round of `(source, targets)` Dijkstras at once.
//!
//! The §V dynamic-routing oracle needs one shortest-path fan per session
//! member under the same length assignment. [`run_fan_chunks_with`] runs
//! a round of such fans, one [`DijkstraWorkspace`] per job, leased from a
//! shared [`WorkspacePool`] (no shared mutable state between workers),
//! and returns the workspaces **in job order** regardless of completion
//! order: results are merged by input index, so the output is
//! deterministic and byte-identical to the serial loop (pinned by
//! `tests/prop.rs`) at any thread count, including under work stealing.
//!
//! Which threads run a round is governed by the [`Parallelism`] policy
//! the caller passes (usually [`WorkspacePool::parallelism`], default
//! [`Parallelism::Auto`], which joins the ambient worker pool when the
//! fan runs inside an already-parallel sweep cell).

use crate::workspace::{DijkstraWorkspace, WorkspacePool};
use omcf_numerics::Parallelism;
use omcf_topology::{Graph, NodeId};
use rayon::prelude::*;

/// Jobs per parallel task: rounds of at most this many jobs run on the
/// calling thread, larger ones are split across the policy's workers in
/// slices of this size.
const FAN_TASK: usize = 8;

/// Runs one early-exit Dijkstra per `(source, targets)` job, each
/// stopping once every node of its target set is settled, and returns
/// one workspace per job, in job order. This is the shape of one round
/// of the dynamic oracle's Prim: each job is one member's fan to its
/// session's members, possibly mixing sessions in one round. Rounds of
/// more than eight jobs are split across `parallelism`'s workers in
/// eight-job slices. Settled distances, parents and paths are identical
/// to full per-source runs. Callers read the workspaces they need and
/// hand each back via [`WorkspacePool::give_back`].
#[must_use]
pub fn run_fan_chunks_with(
    g: &Graph,
    jobs: &[(NodeId, &[NodeId])],
    lengths: &[f64],
    pool: &WorkspacePool,
    parallelism: Parallelism,
) -> Vec<DijkstraWorkspace> {
    let run_job = |&(src, targets): &(NodeId, &[NodeId])| -> DijkstraWorkspace {
        let mut ws = pool.lease(g.node_count());
        ws.run_targets(g, src, lengths, targets);
        ws
    };
    if parallelism.is_serial() || jobs.len() <= FAN_TASK {
        jobs.iter().map(run_job).collect()
    } else {
        let per_task: Vec<Vec<DijkstraWorkspace>> = parallelism.install(|| {
            jobs.par_chunks(FAN_TASK).map(|task| task.iter().map(run_job).collect()).collect()
        });
        per_task.into_iter().flatten().collect()
    }
}
