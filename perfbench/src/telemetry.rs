//! The program's own counters, read through `omcf_telemetry::snapshot()`
//! in traced runs only.

use crate::report::Metrics;
use omcf_telemetry::registry::HistogramSample;

/// Count-class routing and engine counters of one traced interval.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub dijkstra_runs: u64,
    pub relaxations: u64,
    pub heap_pops: u64,
    pub augments: u64,
    pub augment_edges: u64,
    pub epoch_advances: u64,
    pub rollback_edges: u64,
}

fn counter(snap: &omcf_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

impl Counters {
    /// The counters accumulated since the last `omcf_telemetry::reset()`.
    pub fn read() -> Self {
        let snap = omcf_telemetry::snapshot();
        Self {
            dijkstra_runs: counter(&snap, "routing.dijkstra.runs"),
            relaxations: counter(&snap, "routing.relaxations"),
            heap_pops: counter(&snap, "routing.heap.pops"),
            augments: counter(&snap, "engine.augment.count"),
            augment_edges: counter(&snap, "engine.augment.edges"),
            epoch_advances: counter(&snap, "engine.epoch.advances"),
            rollback_edges: counter(&snap, "runtime.rollback.edges"),
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.dijkstra_runs += o.dijkstra_runs;
        self.relaxations += o.relaxations;
        self.heap_pops += o.heap_pops;
        self.augments += o.augments;
        self.augment_edges += o.augment_edges;
        self.epoch_advances += o.epoch_advances;
        self.rollback_edges += o.rollback_edges;
    }

    /// Routing metrics, per unit of work when `per` units were done.
    /// `trees` is the oracle trees per unit (0 when unknown).
    pub fn put_routing(&self, m: &mut Metrics, per: f64, trees: f64) {
        m.put("routing.dijkstra_runs", self.dijkstra_runs as f64 / per, "count");
        m.put("routing.relaxations", self.relaxations as f64 / per, "count");
        m.put("routing.heap_pops", self.heap_pops as f64 / per, "count");
        let relax = if trees > 0.0 { self.relaxations as f64 / per / trees } else { 0.0 };
        m.put("routing.relaxations_per_tree", relax, "count");
    }

    /// Engine counters per unit of work.
    pub fn put_engine(&self, m: &mut Metrics, per: f64) {
        m.put("core.engine.augments", self.augments as f64 / per, "count");
        m.put("core.engine.augment_edges", self.augment_edges as f64 / per, "count");
        m.put("core.engine.epoch_advances", self.epoch_advances as f64 / per, "count");
    }
}

/// A Wall-class histogram of the current snapshot, by name.
pub fn histogram(name: &str) -> Option<HistogramSample> {
    omcf_telemetry::snapshot().histograms.into_iter().find(|h| h.name == name)
}
