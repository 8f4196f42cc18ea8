//! Periodic offline re-optimization and the drift time series.
//!
//! An online runtime pays a path-dependent price: every arrival routed
//! greedily under the lengths *of its moment* stays pinned to that tree,
//! while an omniscient batch solver would re-balance the whole surviving
//! population. The [`Reoptimizer`] quantifies that price: for each
//! population [`Checkpoint`] the runtime emitted, it runs one of the
//! paper's offline solvers (via the `omcf-core`
//! [`Solver`](omcf_core::solver::Solver) trait) on the
//! *same* population and graph, and reports
//!
//! ```text
//! drift = runtime congestion / batch-optimal congestion
//! ```
//!
//! where both congestions are measured at full demands: the runtime's is
//! `max_e load_e`, the batch solver's is `1 / min_i(rate_i / dem(i))`
//! (routing full demands through a solution with min demand-normalized
//! rate `f` congests the worst link by `1/f`). A drift of 1 means the
//! incremental state is as good as a cold re-solve; it grows as pinned
//! trees age out of optimality.
//!
//! Checkpoint evaluations are independent, so [`Reoptimizer::evaluate`]
//! may fan them out under any [`Parallelism`] policy — output is
//! byte-identical at every thread count (each cell builds its own
//! oracle; samples are collected in checkpoint order), pinned by
//! `crates/sim/tests/replay.rs`.

use crate::runtime::Checkpoint;
use omcf_core::solver::{Instance, RoutingMode, SolverKind};
use omcf_core::Parallelism;
use omcf_overlay::SessionSet;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

/// One point of the drift time series.
#[derive(Clone, Copy, Debug)]
pub struct DriftSample {
    /// 1-based index of the checkpoint event within the stream.
    pub event_index: u64,
    /// Live sessions at the checkpoint.
    pub live_sessions: usize,
    /// Runtime congestion at full demands (`max_e load_e`).
    pub runtime_congestion: f64,
    /// Congestion of the batch re-solve at full demands.
    pub batch_congestion: f64,
    /// `runtime_congestion / batch_congestion` (1.0 for an empty
    /// population, where both sides are idle).
    pub drift: f64,
}

/// Batch re-solver for population checkpoints.
#[derive(Clone, Copy, Debug)]
pub struct Reoptimizer {
    /// Which offline algorithm answers for the batch optimum.
    pub solver: SolverKind,
    /// FPTAS ε handed to the batch solver (ignored by the online kind).
    pub eps: f64,
}

impl Default for Reoptimizer {
    /// M2 max-concurrent-flow at ε = 0.1 — the natural congestion
    /// benchmark (its objective *is* the optimal common throughput
    /// fraction).
    fn default() -> Self {
        Self { solver: SolverKind::M2, eps: 0.1 }
    }
}

impl Reoptimizer {
    /// A reoptimizer using `solver` at the default ε.
    #[must_use]
    pub fn new(solver: SolverKind) -> Self {
        Self { solver, ..Self::default() }
    }

    /// Evaluates every checkpoint, in order, fanning the independent
    /// batch solves out under `parallelism`. `routing` and `rho` come
    /// from the runtime that produced the checkpoints so the batch solver
    /// answers under the same regime. Samples come back in checkpoint
    /// order whatever the policy.
    #[must_use]
    pub fn evaluate(
        &self,
        checkpoints: &[Checkpoint],
        routing: RoutingMode,
        rho: f64,
        parallelism: Parallelism,
    ) -> Vec<DriftSample> {
        let eval = |cp: &Checkpoint| self.evaluate_one(cp, routing, rho);
        parallelism.install(|| checkpoints.par_iter().map(eval).collect())
    }

    /// Evaluates one checkpoint.
    #[must_use]
    pub fn evaluate_one(&self, cp: &Checkpoint, routing: RoutingMode, rho: f64) -> DriftSample {
        if cp.population.is_empty() {
            // Idle system: both sides carry nothing; no drift by
            // convention.
            return DriftSample {
                event_index: cp.event_index,
                live_sessions: 0,
                runtime_congestion: cp.runtime_congestion,
                batch_congestion: 0.0,
                drift: 1.0,
            };
        }
        let sessions = SessionSet::new(cp.population.iter().map(|(_, s)| s.clone()).collect());
        let inst = Instance::new(
            format!("reopt@{}", cp.event_index),
            Arc::clone(&cp.graph),
            sessions,
            routing,
        )
        .with_eps(self.eps)
        .with_rho(rho);
        let out = self.solver.solver().run(&inst);
        let min_normalized = out
            .summary
            .session_rates
            .iter()
            .zip(inst.sessions.sessions())
            .map(|(r, s)| r / s.demand)
            .fold(f64::INFINITY, f64::min);
        let batch_congestion =
            if min_normalized > 0.0 { 1.0 / min_normalized } else { f64::INFINITY };
        DriftSample {
            event_index: cp.event_index,
            live_sessions: cp.population.len(),
            runtime_congestion: cp.runtime_congestion,
            batch_congestion,
            drift: cp.runtime_congestion / batch_congestion,
        }
    }
}

/// Renders a drift series as deterministic CSV (shortest-roundtrip float
/// formatting: equal values give equal bytes, so serial and parallel
/// evaluation emit identical files).
#[must_use]
pub fn drift_csv(samples: &[DriftSample]) -> String {
    let mut out =
        String::from("event_index,live_sessions,runtime_congestion,batch_congestion,drift\n");
    for s in samples {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            s.event_index, s.live_sessions, s.runtime_congestion, s.batch_congestion, s.drift
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use omcf_overlay::Session;
    use omcf_topology::{canned, NodeId};

    #[test]
    fn drift_of_fresh_single_session_is_near_one() {
        // One session, just arrived: the greedy tree is the batch tree, so
        // runtime congestion equals (near-)optimal congestion.
        let g = canned::path(4, 10.0);
        let mut rt = Runtime::new(g, RuntimeConfig::new(25.0, RoutingMode::FixedIp));
        let _ = rt.join(Session::new(vec![NodeId(0), NodeId(3)], 1.0));
        let cp = rt.checkpoint();
        let sample = Reoptimizer::default().evaluate_one(&cp, rt.routing(), rt.rho());
        assert_eq!(sample.live_sessions, 1);
        assert!(sample.runtime_congestion > 0.0);
        assert!(
            sample.drift > 0.8 && sample.drift < 1.3,
            "single forced route should show ~no drift, got {}",
            sample.drift
        );
    }

    #[test]
    fn empty_population_has_unit_drift() {
        let g = canned::path(3, 1.0);
        let rt = Runtime::new(g, RuntimeConfig::new(10.0, RoutingMode::FixedIp));
        let sample = Reoptimizer::default().evaluate_one(&rt.checkpoint(), rt.routing(), 10.0);
        assert_eq!(sample.live_sessions, 0);
        assert_eq!(sample.drift, 1.0);
        let csv = drift_csv(&[sample]);
        assert!(csv.starts_with("event_index,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn parallel_evaluation_matches_serial_bytes() {
        let g = canned::grid(4, 4, 8.0);
        let mut rt = Runtime::new(g, RuntimeConfig::new(25.0, RoutingMode::FixedIp));
        let mut cps = Vec::new();
        for (a, b) in [(0u32, 15u32), (3, 12), (1, 14), (5, 10)] {
            let _ = rt.join(Session::new(vec![NodeId(a), NodeId(b)], 1.0));
            cps.push(rt.checkpoint());
        }
        let re = Reoptimizer::default();
        let serial = drift_csv(&re.evaluate(&cps, rt.routing(), rt.rho(), Parallelism::Serial));
        for threads in [2usize, 4, 8] {
            let n = std::num::NonZeroUsize::new(threads).unwrap();
            let parallel =
                drift_csv(&re.evaluate(&cps, rt.routing(), rt.rho(), Parallelism::Threads(n)));
            assert_eq!(
                serial, parallel,
                "drift collection must be order- and schedule-independent ({threads} threads)"
            );
        }
    }
}
