//! The workload front door: `Instance`, the object-safe [`Solver`] trait,
//! and thin adapters exposing all four of the paper's algorithms behind it.
//!
//! PR 2 unified the solvers' *inner* loop (one length-update engine, four
//! policies). This module unifies their *outer* interface: an [`Instance`]
//! bundles everything that defines one solvable problem — physical graph,
//! session set, routing regime, approximation/step parameters, and an
//! optional churn trace — and a [`Solver`] turns an instance plus an
//! oracle into one [`SolverOutcome`] with a schema shared by all four
//! algorithms. Drivers (the scenario registry and sweep in `omcf-sim`,
//! benches, examples) enumerate [`SolverKind::ALL`] instead of
//! hard-coding four call sites.
//!
//! ```
//! use omcf_core::solver::{Instance, RoutingMode, SolverKind};
//! use omcf_overlay::{Session, SessionSet};
//! use omcf_topology::{canned, NodeId};
//!
//! let g = canned::theta(10.0);
//! let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
//! let inst = Instance::new("theta", g, sessions, RoutingMode::Arbitrary);
//! for kind in SolverKind::ALL {
//!     let out = kind.solver().run(&inst);
//!     assert!(out.summary.overall_throughput > 0.0, "{kind:?} routed nothing");
//! }
//! ```

use crate::dynamics::OnlineSystem;
use crate::m1::max_flow;
use crate::m1_fleischer::max_flow_fleischer;
use crate::online::online_min_congestion;
use crate::ratio::ApproxParams;
use crate::residual::max_concurrent_flow_maxmin;
use crate::solution::{summarize, FlowSummary};
use omcf_overlay::{
    ChurnEvent, ChurnSchedule, DynamicOracle, FixedIpOracle, SessionSet, TreeOracle, TreeStore,
};
use omcf_routing::WorkspacePool;
use omcf_topology::Graph;
use std::sync::Arc;

/// The paper's two routing regimes (§II vs §V), as instance data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Frozen IP shortest-path routes (§II–IV).
    FixedIp,
    /// Arbitrary dynamic unicast routing (§V).
    Arbitrary,
}

impl RoutingMode {
    /// Stable lowercase label (used in result schemas).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::FixedIp => "fixed-ip",
            Self::Arbitrary => "arbitrary",
        }
    }
}

/// One solvable problem: graph, sessions (with demands), routing regime
/// and solver parameters, plus an optional churn trace for the online
/// algorithm. Static solvers always see [`Self::sessions`]; when the
/// instance was built [`Self::with_churn`], that set is the trace's
/// surviving population, so every solver answers for the same final state
/// while the online algorithm additionally pays the path-dependent cost of
/// getting there.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Display name (scenario registry key plus seed, typically).
    pub name: String,
    /// The physical topology (shared: cloning an instance — e.g. to vary ε
    /// across a ratio sweep — bumps a refcount, not the graph).
    pub graph: Arc<Graph>,
    /// The competing sessions, demands included (shared like the graph).
    pub sessions: Arc<SessionSet>,
    /// Routing regime the oracle enforces.
    pub routing: RoutingMode,
    /// FPTAS approximation ε (the experiment convention `ε = 1 − ratio`).
    pub eps: f64,
    /// Online step size ρ.
    pub rho: f64,
    /// Optional join/leave trace replayed by the online solver.
    pub churn: Option<ChurnSchedule>,
}

impl Instance {
    /// A static instance with the default parameters (ε = 0.1, ρ = 10).
    /// Accepts owned or already-shared graph/session values.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        graph: impl Into<Arc<Graph>>,
        sessions: impl Into<Arc<SessionSet>>,
        routing: RoutingMode,
    ) -> Self {
        Self {
            name: name.into(),
            graph: graph.into(),
            sessions: sessions.into(),
            routing,
            eps: 0.1,
            rho: 10.0,
            churn: None,
        }
    }

    /// Sets the FPTAS ε.
    #[must_use]
    pub fn with_eps(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps out of (0, 1)");
        self.eps = eps;
        self
    }

    /// Sets the online step size ρ.
    #[must_use]
    pub fn with_rho(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "rho must be positive");
        self.rho = rho;
        self
    }

    /// Attaches a churn trace; the instance's static session set becomes
    /// the trace's surviving population.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.sessions = Arc::new(churn.survivors());
        self.churn = Some(churn);
        self
    }

    /// The approximation parameters solvers derive from [`Self::eps`].
    #[must_use]
    pub fn params(&self) -> ApproxParams {
        ApproxParams::from_eps(self.eps)
    }

    /// Builds the oracle matching the instance's routing regime. An
    /// oracle may serve sequential runs, as evaluation's M1-then-M2 does,
    /// but never concurrent ones: it is not `Sync`, so concurrent runs
    /// each build their own.
    #[must_use]
    pub fn oracle(&self) -> Box<dyn TreeOracle + Send> {
        match self.routing {
            RoutingMode::FixedIp => Box::new(FixedIpOracle::new(&self.graph, &self.sessions)),
            RoutingMode::Arbitrary => Box::new(DynamicOracle::new(&self.graph, &self.sessions)),
        }
    }

    /// Like [`Self::oracle`], but a dynamic-routing oracle leases its
    /// Dijkstra workspaces from `pool` (fixed-IP oracles have no
    /// workspaces to lease and ignore the pool).
    #[must_use]
    pub fn oracle_pooled(&self, pool: &Arc<WorkspacePool>) -> Box<dyn TreeOracle + Send> {
        match self.routing {
            RoutingMode::FixedIp => Box::new(FixedIpOracle::new(&self.graph, &self.sessions)),
            RoutingMode::Arbitrary => {
                Box::new(DynamicOracle::with_pool(&self.graph, &self.sessions, Arc::clone(pool)))
            }
        }
    }
}

/// The four algorithms, as enumerable data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Table I `MaxFlow` FPTAS.
    M1,
    /// Fleischer-style `MaxFlow` (fewer oracle calls, extra (1+ε) slack).
    M1Fleischer,
    /// Table III `MaxConcurrentFlow`, max-min completed (Table IV semantics).
    M2,
    /// Table VI `Online-MinCongestion` (replays the churn trace if present).
    Online,
}

impl SolverKind {
    /// Every solver, in the paper's presentation order.
    pub const ALL: [SolverKind; 4] =
        [SolverKind::M1, SolverKind::M1Fleischer, SolverKind::M2, SolverKind::Online];

    /// Stable lowercase name (used in result schemas and CLIs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::M1 => "m1",
            Self::M1Fleischer => "m1-fleischer",
            Self::M2 => "m2",
            Self::Online => "online",
        }
    }

    /// Parses [`Self::name`] back, ignoring ASCII case and surrounding
    /// whitespace (`"M1"`, `" Online "` and `"m1-Fleischer"` all parse).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        Self::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// The valid solver names, comma-separated — CLI error paths quote
    /// this so a typo tells the user what would have parsed.
    #[must_use]
    pub fn name_list() -> String {
        Self::ALL.map(Self::name).join(", ")
    }

    /// The shared adapter implementing this kind.
    #[must_use]
    pub fn solver(self) -> &'static dyn Solver {
        match self {
            Self::M1 => &M1Solver,
            Self::M1Fleischer => &FleischerSolver,
            Self::M2 => &M2Solver,
            Self::Online => &OnlineSolver,
        }
    }
}

/// The unified result schema every solver fills.
///
/// `objective` is the solver's own headline number: the receiver-weighted
/// M1 objective for the `MaxFlow` family, the concurrent throughput
/// `f* = min_i rate_i/dem(i)` for M2, and the minimum demand-normalized
/// rate for the online algorithm. `iterations` counts augmentations for
/// the M1 family and the online algorithm, and phases for M2.
#[derive(Clone, Debug)]
pub struct SolverOutcome {
    /// Which solver produced this.
    pub solver: SolverKind,
    /// The feasible scaled flow.
    pub store: TreeStore,
    /// Rates, throughput, tree counts, congestion.
    pub summary: FlowSummary,
    /// Solver-specific headline objective (see type docs).
    pub objective: f64,
    /// Weak-duality bound, where the solver produces one (M1 family).
    pub dual_bound: Option<f64>,
    /// Oracle calls in the main loop — the paper's running-time unit.
    pub mst_ops: u64,
    /// Oracle calls spent in the M2 λ-pre-pass (0 elsewhere).
    pub mst_ops_prepass: u64,
    /// Augmentations (M1 family, online) or phases (M2).
    pub iterations: u64,
}

impl SolverOutcome {
    /// Smallest per-session rate (0 if any session routed nothing).
    #[must_use]
    pub fn min_rate(&self) -> f64 {
        self.summary.session_rates.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// An algorithm that solves [`Instance`]s. Object-safe: drivers hold
/// `&dyn Solver` / iterate [`SolverKind::ALL`].
pub trait Solver: Send + Sync {
    /// Which [`SolverKind`] this is.
    fn kind(&self) -> SolverKind;

    /// Stable name, mirroring [`SolverKind::name`].
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Solves `inst` through `oracle`. The oracle must serve
    /// `inst.sessions` (as [`Instance::oracle`] guarantees); passing it
    /// explicitly lets drivers control caching and pooling. One oracle
    /// may serve sequential runs, as evaluation's M1-then-M2 does, but
    /// never concurrent ones.
    fn solve(&self, inst: &Instance, oracle: &dyn TreeOracle) -> SolverOutcome;

    /// Convenience: builds the instance's default oracle and solves.
    fn run(&self, inst: &Instance) -> SolverOutcome {
        self.solve(inst, inst.oracle().as_ref())
    }
}

/// Table I `MaxFlow` adapter.
pub struct M1Solver;

impl Solver for M1Solver {
    fn kind(&self) -> SolverKind {
        SolverKind::M1
    }

    fn solve(&self, inst: &Instance, oracle: &dyn TreeOracle) -> SolverOutcome {
        let _span = omcf_telemetry::span("solve.m1");
        let out = max_flow(&inst.graph, oracle, inst.params());
        SolverOutcome {
            solver: self.kind(),
            store: out.store,
            summary: out.summary,
            objective: out.objective,
            dual_bound: Some(out.dual_bound),
            mst_ops: out.mst_ops,
            mst_ops_prepass: 0,
            iterations: out.iterations,
        }
    }
}

/// Fleischer `MaxFlow` adapter.
pub struct FleischerSolver;

impl Solver for FleischerSolver {
    fn kind(&self) -> SolverKind {
        SolverKind::M1Fleischer
    }

    fn solve(&self, inst: &Instance, oracle: &dyn TreeOracle) -> SolverOutcome {
        let _span = omcf_telemetry::span("solve.fleischer");
        let out = max_flow_fleischer(&inst.graph, oracle, inst.params());
        SolverOutcome {
            solver: self.kind(),
            store: out.store,
            summary: out.summary,
            objective: out.objective,
            dual_bound: Some(out.dual_bound),
            mst_ops: out.mst_ops,
            mst_ops_prepass: 0,
            iterations: out.iterations,
        }
    }
}

/// Max-min completed `MaxConcurrentFlow` adapter (Table IV semantics).
pub struct M2Solver;

impl Solver for M2Solver {
    fn kind(&self) -> SolverKind {
        SolverKind::M2
    }

    fn solve(&self, inst: &Instance, oracle: &dyn TreeOracle) -> SolverOutcome {
        let _span = omcf_telemetry::span("solve.m2");
        let out = max_concurrent_flow_maxmin(&inst.graph, oracle, inst.params());
        SolverOutcome {
            solver: self.kind(),
            store: out.store,
            summary: out.summary,
            objective: out.throughput,
            dual_bound: None,
            mst_ops: out.mst_ops_main,
            mst_ops_prepass: out.mst_ops_prepass,
            iterations: out.phases,
        }
    }
}

/// `Online-MinCongestion` adapter. On a static instance, sessions arrive
/// in index order; on a churn instance, the full join/leave trace is
/// replayed through [`OnlineSystem`], the join/leave core `omcf-runtime`
/// also runs on, and the outcome reports the surviving population's end
/// state (Table VI scaling: rate `dem/l_max`).
pub struct OnlineSolver;

impl Solver for OnlineSolver {
    fn kind(&self) -> SolverKind {
        SolverKind::Online
    }

    /// Overridden to skip oracle construction entirely on churn
    /// instances — the trace replay builds its own per-join oracles and
    /// never touches a shared one.
    fn run(&self, inst: &Instance) -> SolverOutcome {
        match &inst.churn {
            Some(churn) => solve_churn(inst, churn),
            None => self.solve(inst, inst.oracle().as_ref()),
        }
    }

    fn solve(&self, inst: &Instance, oracle: &dyn TreeOracle) -> SolverOutcome {
        if let Some(churn) = &inst.churn {
            return solve_churn(inst, churn);
        }
        let _span = omcf_telemetry::span("solve.online");
        let out = online_min_congestion(&inst.graph, oracle, inst.rho);
        let summary = summarize(&out.store, &inst.sessions, &inst.graph);
        let objective = summary
            .session_rates
            .iter()
            .zip(inst.sessions.sessions())
            .map(|(r, s)| r / s.demand)
            .fold(f64::INFINITY, f64::min);
        SolverOutcome {
            solver: self.kind(),
            store: out.store,
            summary,
            objective,
            dual_bound: None,
            mst_ops: out.mst_ops,
            mst_ops_prepass: 0,
            iterations: out.mst_ops,
        }
    }
}

/// Replays a churn trace through the [`OnlineSystem`] core and
/// summarizes the survivors' end state.
fn solve_churn(inst: &Instance, churn: &ChurnSchedule) -> SolverOutcome {
    let mut sys = OnlineSystem::new(Arc::clone(&inst.graph), inst.rho, inst.routing);
    for ev in churn.events() {
        match ev {
            ChurnEvent::Join(s) => {
                sys.join(s.clone());
            }
            ChurnEvent::Leave(i) => {
                let left = sys.leave(*i);
                debug_assert!(left, "validated schedule: session must be live");
            }
        }
    }
    // Table VI scaling against the live end-state loads: rate = dem/l_max.
    let store = sys.scaled_store();
    store.assert_feasible(&inst.graph, 1e-9);
    let summary = summarize(&store, &inst.sessions, &inst.graph);
    let objective = summary
        .session_rates
        .iter()
        .zip(inst.sessions.sessions())
        .map(|(r, s)| r / s.demand)
        .fold(f64::INFINITY, f64::min);
    SolverOutcome {
        solver: SolverKind::Online,
        store,
        summary,
        objective,
        dual_bound: None,
        mst_ops: sys.mst_ops(),
        mst_ops_prepass: 0,
        iterations: churn.events().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::Xoshiro256pp;
    use omcf_overlay::{random_churn, Session};
    use omcf_topology::{canned, NodeId};

    fn grid_instance(routing: RoutingMode) -> Instance {
        let g = canned::grid(4, 4, 50.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
        ]);
        Instance::new("grid", g, sessions, routing)
    }

    #[test]
    fn all_kinds_have_distinct_parsable_names() {
        for kind in SolverKind::ALL {
            assert_eq!(SolverKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.solver().kind(), kind);
        }
        assert_eq!(SolverKind::parse("nope"), None);
    }

    #[test]
    fn parse_ignores_case_and_whitespace() {
        assert_eq!(SolverKind::parse("M1"), Some(SolverKind::M1));
        assert_eq!(SolverKind::parse("  Online "), Some(SolverKind::Online));
        assert_eq!(SolverKind::parse("M1-Fleischer"), Some(SolverKind::M1Fleischer));
        assert_eq!(SolverKind::parse("m 1"), None, "inner whitespace is not a name");
        let names = SolverKind::name_list();
        for kind in SolverKind::ALL {
            assert!(names.contains(kind.name()), "{names} missing {}", kind.name());
        }
    }

    #[test]
    fn adapters_match_direct_calls() {
        let inst = grid_instance(RoutingMode::FixedIp);
        let oracle = inst.oracle();
        let direct = max_flow(&inst.graph, oracle.as_ref(), inst.params());
        let via_trait = SolverKind::M1.solver().solve(&inst, oracle.as_ref());
        assert_eq!(direct.summary.session_rates, via_trait.summary.session_rates);
        assert_eq!(direct.mst_ops, via_trait.mst_ops);
        assert_eq!(via_trait.dual_bound, Some(direct.dual_bound));
    }

    #[test]
    fn every_solver_produces_feasible_flow_on_both_routings() {
        for routing in [RoutingMode::FixedIp, RoutingMode::Arbitrary] {
            let inst = grid_instance(routing);
            for kind in SolverKind::ALL {
                let out = kind.solver().run(&inst);
                out.store.assert_feasible(&inst.graph, 1e-6);
                assert!(
                    out.summary.overall_throughput > 0.0,
                    "{kind:?}/{} routed nothing",
                    routing.label()
                );
                assert!(out.mst_ops > 0);
                assert_eq!(out.summary.session_rates.len(), inst.sessions.len());
            }
        }
    }

    #[test]
    fn m2_reports_prepass_and_min_rate() {
        let inst = grid_instance(RoutingMode::FixedIp);
        let out = SolverKind::M2.solver().run(&inst);
        assert!(out.mst_ops_prepass > 0, "λ pre-pass must be accounted");
        assert!(out.min_rate() > 0.0);
        assert!(out.min_rate() <= out.summary.session_rates[0] + 1e-12);
    }

    #[test]
    fn churn_instance_replays_trace_and_reports_survivors() {
        let g = canned::grid(5, 5, 10.0);
        let mut rng = Xoshiro256pp::new(42);
        let churn = random_churn(&g, 10, 3, 1.0, 0.4, &mut rng);
        let survivors = churn.survivors().len();
        assert!(survivors < 10, "seed 42 must produce at least one leave");
        let inst = Instance::new("churn", g, churn.survivors(), RoutingMode::FixedIp)
            .with_churn(churn)
            .with_rho(25.0);
        assert_eq!(inst.sessions.len(), survivors);
        let out = SolverKind::Online.solver().run(&inst);
        assert_eq!(out.summary.session_rates.len(), survivors);
        assert!(out.summary.session_rates.iter().all(|r| *r > 0.0));
        out.store.assert_feasible(&inst.graph, 1e-9);
        // Offline solvers answer for the same surviving population.
        let offline = SolverKind::M1.solver().run(&inst);
        assert_eq!(offline.summary.session_rates.len(), survivors);
    }

    #[test]
    fn pooled_oracle_solves_identically() {
        let inst = grid_instance(RoutingMode::Arbitrary);
        let pool = Arc::new(WorkspacePool::new());
        let pooled = SolverKind::M1.solver().solve(&inst, inst.oracle_pooled(&pool).as_ref());
        let plain = SolverKind::M1.solver().run(&inst);
        assert_eq!(pooled.summary.session_rates, plain.summary.session_rates);
        assert_eq!(pooled.mst_ops, plain.mst_ops);
        assert!(pool.idle() > 0, "fan workspaces must return to the pool");
    }
}
