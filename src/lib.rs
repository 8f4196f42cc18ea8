//! `overlay_mcf` — facade over the overlay multicommodity-flow workspace.
//!
//! This crate re-exports the whole workspace behind stable module paths so
//! applications (and the `examples/`) depend on a single crate:
//!
//! | Path | Backing crate | Contents |
//! |------|---------------|----------|
//! | [`numerics`] | `omcf-numerics` | extended-range floats, PRNGs, stats |
//! | [`topology`] | `omcf-topology` | Waxman / Barabási / hierarchy generators |
//! | [`routing`] | `omcf-routing` | CSR Dijkstra, fixed-IP routes, early-exit fans |
//! | [`overlay`] | `omcf-overlay` | sessions, overlay trees, MST oracles |
//! | [`treepack`] | `omcf-treepack` | greedy spanning-tree packing, exact network strength |
//! | [`solver`] | `omcf-core` | M1/M2 FPTAS, rounding, online algorithm |
//! | [`runtime`] | `omcf-runtime` | event-driven session runtime, the sharded `Fleet`, snapshots, WAL, replay |
//! | [`sim`] | `omcf-sim` | the paper's scenarios, tables and figures |
//!
//! The [`prelude`] pulls in the names a typical program needs:
//!
//! ```
//! use overlay_mcf::prelude::*;
//! use overlay_mcf::topology::waxman::{self, WaxmanParams};
//!
//! let mut rng = Xoshiro256pp::new(2004);
//! let params = WaxmanParams { n: 30, capacity: 100.0, ..WaxmanParams::default() };
//! let graph = waxman::generate(&params, &mut rng);
//! let sessions = random_sessions(&graph, 1, 4, 100.0, &mut rng);
//! let oracle = FixedIpOracle::new(&graph, &sessions);
//! let outcome = max_flow(&graph, &oracle, ApproxParams::for_m1(0.9));
//! assert!(outcome.summary.overall_throughput > 0.0);
//! ```

pub use omcf_core as solver;
pub use omcf_numerics as numerics;
pub use omcf_overlay as overlay;
pub use omcf_routing as routing;
pub use omcf_runtime as runtime;
pub use omcf_sim as sim;
pub use omcf_topology as topology;
pub use omcf_treepack as treepack;

pub mod prelude {
    //! The names a typical overlay-MCF program uses, importable in one line.

    pub use omcf_numerics::{Rng64, SplitMix64, Xoshiro256pp};

    pub use omcf_topology::{canned, EdgeId, Graph, GraphBuilder, NodeId};

    pub use omcf_overlay::{
        random_sessions, DynamicOracle, FixedIpOracle, OverlayTree, Session, SessionSet,
        TreeOracle, TreeStore,
    };

    pub use omcf_core::rounding::rounding_trials;
    pub use omcf_core::{
        max_concurrent_flow, max_flow, online_min_congestion, random_min_congestion, ApproxParams,
        FlowSummary, MaxFlowOutcome, McfOutcome, OnlineOutcome, RoundingOutcome,
    };
    pub use omcf_core::{Instance, RoutingMode, Solver, SolverKind, SolverOutcome};

    pub use omcf_runtime::{
        replay_churn, Admission, Event, Fleet, FleetConfig, Reoptimizer, ReplayConfig, Runtime,
        RuntimeConfig, ShardId,
    };
}
