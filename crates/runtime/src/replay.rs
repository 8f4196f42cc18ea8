//! Deterministic trace replay through the runtime.
//!
//! [`replay_churn`] turns a [`ChurnSchedule`] into an event stream
//! (optionally interleaving [`Event::Reoptimize`] checkpoints), drives it
//! through a fresh [`Runtime`], evaluates the collected checkpoints with
//! a [`Reoptimizer`] — under any [`Parallelism`] policy, byte-identical
//! at every thread count — and reports the final rates plus the drift
//! time series.
//! [`resume_replay`] does the same from an existing runtime (restored
//! from a snapshot, typically), so long traces can be split across
//! processes without changing a single output byte.

use crate::event::Event;
use crate::reopt::{drift_csv, DriftSample, Reoptimizer};
use crate::runtime::{Checkpoint, Runtime, RuntimeConfig};
use omcf_core::solver::RoutingMode;
use omcf_core::Parallelism;
use omcf_overlay::ChurnSchedule;
use omcf_topology::Graph;
use std::sync::Arc;

/// What to replay and how to measure it.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Online step size ρ.
    pub rho: f64,
    /// Routing regime for arrivals.
    pub routing: RoutingMode,
    /// Insert a [`Event::Reoptimize`] checkpoint after every this many
    /// churn events (plus one at end of trace). 0 disables drift
    /// sampling.
    pub reopt_every: usize,
    /// Batch re-solver for the drift series.
    pub reoptimizer: Reoptimizer,
    /// Execution policy for checkpoint evaluation. Output bytes are
    /// identical to serial evaluation; only wall clock changes.
    pub parallelism: Parallelism,
}

impl ReplayConfig {
    /// Defaults: drift sampled every 4 events through the default
    /// (M2-based) reoptimizer, serial evaluation.
    #[must_use]
    pub fn new(rho: f64, routing: RoutingMode) -> Self {
        Self {
            rho,
            routing,
            reopt_every: 4,
            reoptimizer: Reoptimizer::default(),
            parallelism: Parallelism::Serial,
        }
    }

    /// Sets the checkpoint cadence (0 disables).
    #[must_use]
    pub fn with_reopt_every(mut self, n: usize) -> Self {
        self.reopt_every = n;
        self
    }

    /// Sets the batch re-solver.
    #[must_use]
    pub fn with_reoptimizer(mut self, r: Reoptimizer) -> Self {
        self.reoptimizer = r;
        self
    }

    /// Sets the execution policy for checkpoint evaluation.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Everything one replay produced. Contains no wall-clock fields: two
/// replays of the same trace render byte-identical reports (benches time
/// externally).
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Events processed (checkpoints included).
    pub events: usize,
    /// Join events.
    pub joins: usize,
    /// Leave events.
    pub leaves: usize,
    /// Final capacity-saturating rates of the surviving sessions, keyed
    /// by join index, in admission order.
    pub final_rates: Vec<(usize, f64)>,
    /// Drift samples, one per checkpoint, in stream order.
    pub drift: Vec<DriftSample>,
    /// Oracle calls spent (one per join).
    pub mst_ops: u64,
}

impl ReplayReport {
    /// The drift series as deterministic CSV.
    #[must_use]
    pub fn drift_csv(&self) -> String {
        drift_csv(&self.drift)
    }

    /// Smallest surviving rate (∞ if no survivors).
    #[must_use]
    pub fn min_rate(&self) -> f64 {
        self.final_rates.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min)
    }

    /// Sum of surviving rates.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.final_rates.iter().map(|&(_, r)| r).sum()
    }

    /// Largest drift observed (1.0 if no checkpoints ran).
    #[must_use]
    pub fn max_drift(&self) -> f64 {
        self.drift.iter().map(|s| s.drift).fold(1.0, f64::max)
    }
}

/// Replays a churn trace through a fresh runtime over `g`.
#[must_use]
pub fn replay_churn(
    g: impl Into<Arc<Graph>>,
    churn: &ChurnSchedule,
    cfg: &ReplayConfig,
) -> ReplayReport {
    let events = Event::schedule(churn, cfg.reopt_every);
    let rt = Runtime::new(g, RuntimeConfig::new(cfg.rho, cfg.routing));
    resume_replay(rt, &events, cfg).1
}

/// Replays an explicit event stream through a fresh runtime over `g`.
#[must_use]
pub fn replay(g: impl Into<Arc<Graph>>, events: &[Event], cfg: &ReplayConfig) -> ReplayReport {
    let rt = Runtime::new(g, RuntimeConfig::new(cfg.rho, cfg.routing));
    resume_replay(rt, events, cfg).1
}

/// Continues a replay on an existing runtime (fresh, or restored from a
/// snapshot) and returns it alongside the report for this segment. The
/// report's drift series covers only the checkpoints of `events`;
/// callers stitching a snapshotted run back together concatenate the
/// segment series.
#[must_use]
pub fn resume_replay(
    mut rt: Runtime,
    events: &[Event],
    cfg: &ReplayConfig,
) -> (Runtime, ReplayReport) {
    assert_eq!(rt.rho(), cfg.rho, "runtime/config step size mismatch");
    assert_eq!(rt.routing(), cfg.routing, "runtime/config routing mismatch");
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut joins = 0usize;
    let mut leaves = 0usize;
    for ev in events {
        match ev {
            Event::Join(_) => joins += 1,
            Event::Leave(_) => leaves += 1,
            _ => {}
        }
        if let Some(cp) = rt.apply(ev) {
            checkpoints.push(cp);
        }
    }
    let drift = cfg.reoptimizer.evaluate(&checkpoints, cfg.routing, cfg.rho, cfg.parallelism);
    let report = ReplayReport {
        events: events.len(),
        joins,
        leaves,
        final_rates: rt.saturating_rates(),
        drift,
        mst_ops: rt.mst_ops(),
    };
    (rt, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::Xoshiro256pp;
    use omcf_overlay::random_churn;
    use omcf_topology::canned;

    fn sample() -> (Graph, ChurnSchedule) {
        let g = canned::grid(5, 5, 10.0);
        let churn = random_churn(&g, 10, 3, 1.0, 0.4, &mut Xoshiro256pp::new(42));
        (g, churn)
    }

    #[test]
    fn replay_reports_survivors_and_drift() {
        let (g, churn) = sample();
        let survivors = churn.survivors().len();
        let cfg = ReplayConfig::new(25.0, RoutingMode::FixedIp).with_reopt_every(3);
        let report = replay_churn(g, &churn, &cfg);
        assert_eq!(report.joins, churn.join_count());
        assert_eq!(report.final_rates.len(), survivors);
        assert!(!report.drift.is_empty(), "cadence 3 must sample drift");
        assert!(report.min_rate() > 0.0);
        assert!(report.max_drift() >= 1.0 - 1e-9);
        let csv = report.drift_csv();
        assert_eq!(csv.lines().count(), report.drift.len() + 1);
    }

    #[test]
    fn reopt_checkpoints_do_not_perturb_final_state() {
        let (g, churn) = sample();
        let base = ReplayConfig::new(25.0, RoutingMode::FixedIp);
        let quiet = replay_churn(g.clone(), &churn, &base.with_reopt_every(0));
        let sampled = replay_churn(g, &churn, &base.with_reopt_every(2));
        assert!(quiet.drift.is_empty());
        assert_eq!(quiet.final_rates.len(), sampled.final_rates.len());
        for ((ia, ra), (ib, rb)) in quiet.final_rates.iter().zip(&sampled.final_rates) {
            assert_eq!(ia, ib);
            assert_eq!(ra.to_bits(), rb.to_bits(), "checkpoints must be pure observers");
        }
    }

    #[test]
    fn parallel_and_serial_replays_render_identical_reports() {
        let (g, churn) = sample();
        let base = ReplayConfig::new(25.0, RoutingMode::FixedIp).with_reopt_every(2);
        let serial = replay_churn(g.clone(), &churn, &base);
        let parallel = replay_churn(g, &churn, &base.with_parallelism(Parallelism::Auto));
        assert_eq!(serial.drift_csv(), parallel.drift_csv());
        assert_eq!(serial.final_rates.len(), parallel.final_rates.len());
        for ((ia, ra), (ib, rb)) in serial.final_rates.iter().zip(&parallel.final_rates) {
            assert_eq!(ia, ib);
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
    }

    #[test]
    fn snapshot_split_replay_matches_uninterrupted() {
        let (g, churn) = sample();
        let cfg = ReplayConfig::new(25.0, RoutingMode::FixedIp).with_reopt_every(2);
        let events = Event::schedule(&churn, cfg.reopt_every);
        let whole = replay(g.clone(), &events, &cfg);

        let mid = events.len() / 2;
        let rt = Runtime::new(g, RuntimeConfig::new(cfg.rho, cfg.routing));
        let (rt, first) = resume_replay(rt, &events[..mid], &cfg);
        let snap = rt.snapshot_v2();
        drop(rt);
        let restored = Runtime::restore_v2(&snap).expect("restore");
        let (_, second) = resume_replay(restored, &events[mid..], &cfg);

        let mut drift = first.drift.clone();
        drift.extend(second.drift.iter().copied());
        assert_eq!(drift_csv(&drift), whole.drift_csv(), "stitched drift series diverges");
        assert_eq!(second.final_rates.len(), whole.final_rates.len());
        for ((ia, ra), (ib, rb)) in second.final_rates.iter().zip(&whole.final_rates) {
            assert_eq!(ia, ib);
            assert_eq!(ra.to_bits(), rb.to_bits(), "resumed replay diverges");
        }
    }
}
