//! The long-running session runtime.
//!
//! [`Runtime`] is the event layer over [`OnlineSystem`], `omcf-core`'s
//! one join/leave core (the same core the batch
//! [`omcf_core::solver::SolverKind::Online`] solver replays churn traces
//! through). The core owns the live solver state — the engine's
//! `EngineState` at the Table VI initialization `d_e = 1/c_e` — and
//! mutates it **incrementally**: a join is one oracle call and one
//! augmentation, a leave an exact rollback, a capacity change an exact
//! re-derivation of the affected edges (see [`OnlineSystem`]). The
//! runtime adds what a service needs on top:
//!
//! * [`Runtime::apply`] dispatches an [`Event`] stream with per-kind
//!   telemetry (span, counter, latency histogram);
//! * [`Runtime::checkpoint`] detaches the live population for the
//!   [`Reoptimizer`](crate::Reoptimizer);
//! * [`Runtime::snapshot_v2`] / [`Runtime::restore_v2`] persist the whole
//!   state bit-exactly ([`crate::snapshot_v2`]).
//!
//! Everything else — join, leave, rescale, the rate, tree and state
//! reads — is [`OnlineSystem`]'s, reached through `Deref`. Because replay
//! and the batch solver drive one core, a full-trace replay's final rates
//! are bit-identical to the cold batch run — pinned by
//! `crates/sim/tests/replay.rs`.

use crate::event::Event;
use omcf_core::solver::RoutingMode;
use omcf_core::OnlineSystem;
use omcf_overlay::Session;
use omcf_telemetry::stats;
use omcf_topology::Graph;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Construction parameters of a [`Runtime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Online step size ρ (Table VI).
    pub rho: f64,
    /// Routing regime for arrivals.
    pub routing: RoutingMode,
}

impl RuntimeConfig {
    /// Config with explicit parameters.
    #[must_use]
    pub fn new(rho: f64, routing: RoutingMode) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "step size must be positive");
        Self { rho, routing }
    }
}

/// A population snapshot taken at a [`Event::Reoptimize`] checkpoint,
/// consumed by the [`Reoptimizer`](crate::Reoptimizer). Checkpoints are
/// deliberately detached from the runtime (they share the graph by `Arc`
/// and clone the live sessions), so batch re-solves can run later — and
/// in parallel — without blocking or perturbing the event loop.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// 1-based index of the checkpoint event within the processed stream.
    pub event_index: u64,
    /// The physical topology at checkpoint time (capacity changes swap
    /// the `Arc`, so a checkpoint pins the graph it was taken under).
    pub graph: Arc<Graph>,
    /// Live sessions in admission order, keyed by join index.
    pub population: Vec<(usize, Session)>,
    /// The runtime's congestion at full demands, `max_e load_e`.
    pub runtime_congestion: f64,
}

/// A continuously running overlay system processing an ordered event
/// stream against warm solver state: an [`OnlineSystem`] plus the event
/// count. See the module docs for the contract of each event.
#[derive(Debug)]
pub struct Runtime {
    pub(crate) sys: OnlineSystem,
    pub(crate) events_processed: u64,
}

impl Deref for Runtime {
    type Target = OnlineSystem;

    fn deref(&self) -> &OnlineSystem {
        &self.sys
    }
}

impl DerefMut for Runtime {
    fn deref_mut(&mut self) -> &mut OnlineSystem {
        &mut self.sys
    }
}

impl Runtime {
    /// An empty runtime over `g`.
    #[must_use]
    pub fn new(g: impl Into<Arc<Graph>>, cfg: RuntimeConfig) -> Self {
        Self { sys: OnlineSystem::new(g, cfg.rho, cfg.routing), events_processed: 0 }
    }

    /// Applies one event. Returns the population [`Checkpoint`] for
    /// [`Event::Reoptimize`], `None` for the state-mutating events.
    /// Panics on a `Leave` of an unknown or already-departed session and
    /// on non-positive capacity factors — an event stream is validated
    /// input, not user data.
    pub fn apply(&mut self, ev: &Event) -> Option<Checkpoint> {
        self.events_processed += 1;
        // Per-kind telemetry: one span + counter, and the apply latency
        // into that kind's wall-clock histogram. Timing is gated so the
        // disabled cost stays one relaxed load.
        let (span_name, counter, latency): (
            _,
            &'static omcf_telemetry::Counter,
            &'static omcf_telemetry::Histogram,
        ) = match ev {
            Event::Join(_) => {
                ("runtime.event.join", &stats::RUNTIME_EVENTS_JOIN, &stats::RUNTIME_EVENT_JOIN_US)
            }
            Event::Leave(_) => (
                "runtime.event.leave",
                &stats::RUNTIME_EVENTS_LEAVE,
                &stats::RUNTIME_EVENT_LEAVE_US,
            ),
            Event::CapacityChange(_) => (
                "runtime.event.capacity",
                &stats::RUNTIME_EVENTS_CAPACITY,
                &stats::RUNTIME_EVENT_CAPACITY_US,
            ),
            Event::Reoptimize => (
                "runtime.event.reopt",
                &stats::RUNTIME_EVENTS_REOPT,
                &stats::RUNTIME_EVENT_REOPT_US,
            ),
        };
        let _span = omcf_telemetry::span(span_name);
        counter.inc();
        let t0 = omcf_telemetry::enabled().then(std::time::Instant::now);
        let out = match ev {
            Event::Join(s) => {
                self.join(s.clone());
                None
            }
            Event::Leave(i) => {
                assert!(self.leave(*i), "Leave({i}) does not match a live session");
                None
            }
            Event::CapacityChange(factors) => {
                self.rescale_capacities(factors);
                None
            }
            Event::Reoptimize => Some(self.checkpoint()),
        };
        if let Some(t0) = t0 {
            latency.observe_duration(t0.elapsed());
        }
        out
    }

    /// Snapshots the live population for offline re-solving.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            event_index: self.events_processed,
            graph: Arc::clone(self.graph()),
            population: self
                .admitted()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.alive())
                .map(|(i, a)| (i, a.session().clone()))
                .collect(),
            runtime_congestion: self.max_load(),
        }
    }

    /// Events consumed through [`Self::apply`].
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::{canned, NodeId};

    fn two(a: u32, b: u32) -> Session {
        Session::new(vec![NodeId(a), NodeId(b)], 1.0)
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new(25.0, RoutingMode::FixedIp)
    }

    #[test]
    fn apply_drives_events_and_checkpoints() {
        let g = canned::grid(4, 4, 10.0);
        let mut rt = Runtime::new(g, cfg());
        assert!(rt.apply(&Event::Join(two(0, 15))).is_none());
        assert!(rt.apply(&Event::Join(two(3, 12))).is_none());
        let cp = rt.apply(&Event::Reoptimize).expect("checkpoint");
        assert_eq!(cp.event_index, 3);
        assert_eq!(cp.population.len(), 2);
        assert!(cp.runtime_congestion > 0.0);
        assert!(rt.apply(&Event::Leave(0)).is_none());
        assert_eq!(rt.live_joins(), vec![1]);
        assert_eq!(rt.events_processed(), 4);
        assert_eq!(rt.mst_ops(), 2, "one oracle call per join");
    }

    #[test]
    #[should_panic(expected = "does not match a live session")]
    fn apply_rejects_leave_of_unknown_session() {
        let g = canned::path(3, 10.0);
        let mut rt = Runtime::new(g, cfg());
        rt.apply(&Event::Leave(7));
    }
}
