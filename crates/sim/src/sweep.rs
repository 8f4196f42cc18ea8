//! The deterministic (scenario × solver × seed) sweep driver.
//!
//! One call runs an arbitrary slice of the scenario [`crate::registry`]
//! through any subset of the four solvers at any number of master seeds,
//! in parallel over rayon, and emits a single unified result schema:
//!
//! * [`SweepResults::to_csv`] — one row per cell, stable column order, no
//!   wall-clock column — **byte-identical between parallel and serial
//!   execution** for fixed seeds (pinned by `crates/sim/tests/sweep.rs`).
//! * [`SweepResults::to_json`] — the same records plus measured
//!   `wall_ms`, for benchmark trajectories (`BENCH_sweep.json`).
//!
//! Determinism comes from three rules: instances are built once per
//! (scenario, seed) with all randomness forked from the master seed via
//! `SplitMix64::derive_seed`; every cell gets its own oracle (no shared
//! mutable caches across cells); and results are collected in cell-index
//! order, so thread scheduling cannot reorder rows.

use crate::registry::{self, ScenarioSpec};
use crate::scenarios::Scale;
use omcf_core::solver::{Instance, SolverKind, SolverOutcome};
use omcf_core::Parallelism;
use omcf_numerics::jsonfmt;
use omcf_telemetry::stats;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

/// What to sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Instance scale.
    pub scale: Scale,
    /// Master seeds; each (scenario, seed) pair is one instance.
    pub seeds: Vec<u64>,
    /// Scenarios to run (registry specs).
    pub scenarios: Vec<&'static ScenarioSpec>,
    /// Solvers to run on every instance.
    pub solvers: Vec<SolverKind>,
    /// Execution policy for the cell solves (`Serial`, `Threads(n)`, or
    /// `Auto`). The CSV output is byte-identical under every policy.
    pub parallelism: Parallelism,
}

impl SweepConfig {
    /// The full grid: every registered scenario × all four solvers,
    /// large-scale (≥2k-node) families included — minutes of release-build
    /// compute; what `repro sweep` and the CI sweep job run.
    #[must_use]
    pub fn full(scale: Scale, seeds: Vec<u64>) -> Self {
        Self {
            scale,
            seeds,
            scenarios: registry::registry().iter().collect(),
            solvers: SolverKind::ALL.to_vec(),
            parallelism: Parallelism::Auto,
        }
    }

    /// The standard grid: every non-heavy scenario × all four solvers.
    /// Sub-second cells at `Scale::Micro`, suitable for debug-build tests
    /// and the sweep-driver micro-bench.
    #[must_use]
    pub fn standard(scale: Scale, seeds: Vec<u64>) -> Self {
        Self { scenarios: registry::standard(), ..Self::full(scale, seeds) }
    }

    /// Restricts the sweep to named scenarios (unknown names panic —
    /// they're caller typos, not data).
    #[must_use]
    pub fn with_scenarios(mut self, names: &[&str]) -> Self {
        self.scenarios = names
            .iter()
            .map(|n| registry::find(n).unwrap_or_else(|| panic!("unknown scenario `{n}`")))
            .collect();
        self
    }

    /// Sets the execution policy.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// One cell of the sweep grid — the unified result schema.
#[derive(Clone, Debug)]
pub struct SweepRecord {
    /// Scenario registry key.
    pub scenario: String,
    /// Solver that produced the row.
    pub solver: SolverKind,
    /// Master seed of the instance.
    pub seed: u64,
    /// Routing regime label.
    pub routing: &'static str,
    /// Instance dimensions.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Session count (survivors, for churn scenarios).
    pub sessions: usize,
    /// Receiver-weighted overall throughput.
    pub throughput: f64,
    /// Minimum per-session rate.
    pub min_rate: f64,
    /// Solver-specific headline objective (see `SolverOutcome`).
    pub objective: f64,
    /// Maximum link congestion of the scaled solution.
    pub max_congestion: f64,
    /// Distinct trees across all sessions.
    pub trees: usize,
    /// Oracle calls (main loop).
    pub mst_ops: u64,
    /// Oracle calls (M2 λ pre-pass; 0 elsewhere).
    pub mst_ops_prepass: u64,
    /// Augmentations (M1 family, online) or phases (M2).
    pub iterations: u64,
    /// Measured wall time of the solve, milliseconds. Excluded from the
    /// deterministic CSV; reported in JSON.
    pub wall_ms: f64,
}

impl SweepRecord {
    fn from_outcome(inst: &Instance, seed: u64, out: &SolverOutcome, wall_ms: f64) -> Self {
        Self {
            scenario: inst.name.clone(),
            solver: out.solver,
            seed,
            routing: inst.routing.label(),
            nodes: inst.graph.node_count(),
            edges: inst.graph.edge_count(),
            sessions: inst.sessions.len(),
            throughput: out.summary.overall_throughput,
            min_rate: out.min_rate(),
            objective: out.objective,
            max_congestion: out.summary.max_congestion,
            trees: out.summary.tree_counts.iter().sum(),
            mst_ops: out.mst_ops,
            mst_ops_prepass: out.mst_ops_prepass,
            iterations: out.iterations,
            wall_ms,
        }
    }
}

/// All cells of one sweep, in deterministic grid order
/// (scenario-major, then seed, then solver).
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The records.
    pub records: Vec<SweepRecord>,
}

impl SweepResults {
    /// Deterministic CSV: stable header, one row per cell, no wall-clock
    /// column. Floats print through Rust's shortest-roundtrip formatting,
    /// so equal values give equal bytes.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,solver,seed,routing,nodes,edges,sessions,throughput,min_rate,objective,\
             max_congestion,trees,mst_ops,mst_ops_prepass,iterations\n",
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.scenario,
                r.solver.name(),
                r.seed,
                r.routing,
                r.nodes,
                r.edges,
                r.sessions,
                r.throughput,
                r.min_rate,
                r.objective,
                r.max_congestion,
                r.trees,
                r.mst_ops,
                r.mst_ops_prepass,
                r.iterations
            );
        }
        out
    }

    /// JSON array of the same records, `wall_ms` included. Emitted
    /// through [`jsonfmt`], so record keys come
    /// out in sorted order — regenerating a bench artifact diffs only in
    /// the measured numbers.
    #[must_use]
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                jsonfmt::JsonObject::new()
                    .text("scenario", &r.scenario)
                    .text("solver", r.solver.name())
                    .field("seed", r.seed.to_string())
                    .text("routing", r.routing)
                    .field("nodes", r.nodes.to_string())
                    .field("edges", r.edges.to_string())
                    .field("sessions", r.sessions.to_string())
                    .field("throughput", jsonfmt::fixed(r.throughput, 6))
                    .field("min_rate", jsonfmt::fixed(r.min_rate, 6))
                    .field("objective", jsonfmt::fixed(r.objective, 6))
                    .field("max_congestion", jsonfmt::fixed(r.max_congestion, 6))
                    .field("trees", r.trees.to_string())
                    .field("mst_ops", r.mst_ops.to_string())
                    .field("mst_ops_prepass", r.mst_ops_prepass.to_string())
                    .field("iterations", r.iterations.to_string())
                    .field("wall_ms", jsonfmt::fixed(r.wall_ms, 3))
                    .inline()
            })
            .collect();
        let mut out = jsonfmt::array(&items, 0);
        out.push('\n');
        out
    }

    /// Aligned console summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<13} {:>6} {:>10} {:>9} {:>9} {:>8} {:>9}",
            "scenario", "solver", "seed", "thrpt", "min_rate", "mst_ops", "trees", "wall_ms"
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{:<20} {:<13} {:>6} {:>10.2} {:>9.3} {:>9} {:>8} {:>9.1}",
                r.scenario,
                r.solver.name(),
                r.seed,
                r.throughput,
                r.min_rate,
                r.mst_ops,
                r.trees,
                r.wall_ms
            );
        }
        out
    }
}

/// Runs the sweep. Instances are built serially (they are deterministic in
/// the master seed either way); cells solve under
/// [`SweepConfig::parallelism`], each against its own freshly
/// built oracle.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> SweepResults {
    assert!(!cfg.scenarios.is_empty(), "no scenarios selected");
    assert!(!cfg.solvers.is_empty(), "no solvers selected");
    assert!(!cfg.seeds.is_empty(), "no seeds given");

    let instances: Vec<(u64, Instance)> = cfg
        .scenarios
        .iter()
        .flat_map(|spec| cfg.seeds.iter().map(move |&seed| (seed, spec.instance(seed, cfg.scale))))
        .collect();

    let cells: Vec<(usize, SolverKind)> =
        (0..instances.len()).flat_map(|ii| cfg.solvers.iter().map(move |&k| (ii, k))).collect();

    let solve_cell = |&(ii, kind): &(usize, SolverKind)| -> SweepRecord {
        let _span = omcf_telemetry::span("sweep.cell");
        let telemetry = omcf_telemetry::enabled();
        if telemetry {
            stats::SWEEP_CELLS.record(1);
            stats::SWEEP_CELLS_IN_FLIGHT.add(1);
        }
        let (seed, inst) = &instances[ii];
        let start = Instant::now();
        // Churn + online replays the trace through its own per-join
        // oracles; building the shared oracle would be discarded work.
        let out = if kind == SolverKind::Online && inst.churn.is_some() {
            kind.solver().run(inst)
        } else {
            let oracle = inst.oracle();
            kind.solver().solve(inst, oracle.as_ref())
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if telemetry {
            stats::SWEEP_CELL_MST_OPS.observe(out.mst_ops + out.mst_ops_prepass);
            stats::SWEEP_CELL_ITERATIONS.observe(out.iterations);
            stats::SWEEP_CELL_SOLVE_US.observe_duration(start.elapsed());
            stats::SWEEP_CELLS_IN_FLIGHT.add(-1);
        }
        SweepRecord::from_outcome(inst, *seed, &out, wall_ms)
    };

    let records: Vec<SweepRecord> =
        cfg.parallelism.install(|| cells.par_iter().map(solve_cell).collect());
    SweepResults { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_sweep_produces_one_row() {
        let cfg = SweepConfig {
            scenarios: vec![registry::find("ring-lattice").unwrap()],
            solvers: vec![SolverKind::Online],
            parallelism: Parallelism::Serial,
            ..SweepConfig::full(Scale::Micro, vec![5])
        };
        let res = run_sweep(&cfg);
        assert_eq!(res.records.len(), 1);
        let r = &res.records[0];
        assert_eq!(r.scenario, "ring-lattice");
        assert_eq!(r.solver, SolverKind::Online);
        assert!(r.throughput > 0.0);
        assert!(r.max_congestion <= 1.0 + 1e-6);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 2, "header + one row");
        assert!(csv.lines().nth(1).unwrap().starts_with("ring-lattice,online,5,fixed-ip"));
    }

    #[test]
    fn grid_order_is_scenario_major() {
        let cfg = SweepConfig {
            scenarios: vec![
                registry::find("ring-lattice").unwrap(),
                registry::find("grid-lattice").unwrap(),
            ],
            solvers: vec![SolverKind::Online, SolverKind::M1],
            parallelism: Parallelism::Serial,
            ..SweepConfig::full(Scale::Micro, vec![1, 2])
        };
        let res = run_sweep(&cfg);
        assert_eq!(res.records.len(), 2 * 2 * 2);
        let keys: Vec<(String, u64, &str)> =
            res.records.iter().map(|r| (r.scenario.clone(), r.seed, r.solver.name())).collect();
        assert_eq!(keys[0], ("ring-lattice".into(), 1, "online"));
        assert_eq!(keys[1], ("ring-lattice".into(), 1, "m1"));
        assert_eq!(keys[2], ("ring-lattice".into(), 2, "online"));
        assert_eq!(keys[4], ("grid-lattice".into(), 1, "online"));
    }

    #[test]
    fn json_carries_wall_ms_csv_does_not() {
        let cfg = SweepConfig {
            scenarios: vec![registry::find("grid-lattice").unwrap()],
            solvers: vec![SolverKind::Online],
            parallelism: Parallelism::Serial,
            ..SweepConfig::full(Scale::Micro, vec![9])
        };
        let res = run_sweep(&cfg);
        assert!(res.to_json().contains("wall_ms"));
        assert!(!res.to_csv().contains("wall_ms"));
        assert!(res.render().contains("grid-lattice"));
    }
}
