//! Overlay multicommodity flow — the paper's contribution.
//!
//! Four algorithms over a shared substrate (physical graph, sessions,
//! minimum-overlay-spanning-tree oracle):
//!
//! | Module | Paper | Problem |
//! |--------|-------|---------|
//! | [`m1`] | Table I | `MaxFlow` — maximize receiver-weighted total throughput (FPTAS) |
//! | [`m2`] | Table III | `MaxConcurrentFlow` — maximize the common throughput fraction `f` (FPTAS, weighted max-min fairness) |
//! | [`rounding`] | Table V | `Random-MinCongestion` — one-or-few trees per session by randomized rounding of the M2 solution |
//! | [`online`] | Table VI | `Online-MinCongestion` — greedy exponential-length routing of arriving sessions |
//!
//! Both routing regimes are supported by instantiating the oracle:
//! [`omcf_overlay::FixedIpOracle`] (fixed IP shortest paths, §II–IV) or
//! [`omcf_overlay::DynamicOracle`] (arbitrary dynamic routing, §V).
//!
//! ## Numerics
//!
//! The FPTAS initializes lengths at `δ ≈ 10^{-100}…10^{-500}` depending on
//! the approximation ratio. [`lengths::ScaledLengths`] stores all lengths
//! pre-multiplied by a static power of two chosen so the whole trajectory
//! `[δ, ~|S_max|]` fits the `f64` range; minimum-tree selection is
//! scale-invariant and the termination test compares against the scaled
//! image of 1. Construction fails loudly when a ratio is requested whose
//! dynamic range cannot fit (beyond anything the paper evaluates).

pub mod dynamics;
pub mod engine;
pub mod exact;
pub mod lengths;
pub mod m1;
pub mod m1_fleischer;
pub mod m2;
pub mod online;
pub mod ratio;
pub mod residual;
pub mod rounding;
pub mod solution;
pub mod solver;

pub use dynamics::{Admitted, OnlineSystem};
pub use engine::{replay_edge, Contribution, Engine, EngineRun, EngineState, LengthGrowth};
pub use lengths::ScaledLengths;
pub use m1::{max_flow, max_flow_subset, MaxFlowOutcome};
pub use m1_fleischer::max_flow_fleischer;
pub use m2::{max_concurrent_flow, McfOutcome};
/// The workspace-wide execution policy (defined in `omcf-numerics` to
/// sit below `omcf-routing` in the dependency graph; this re-export is
/// the path downstream code should use).
pub use omcf_numerics::Parallelism;
pub use online::{online_min_congestion, OnlineOutcome};
pub use ratio::ApproxParams;
pub use residual::max_concurrent_flow_maxmin;
pub use rounding::{random_min_congestion, RoundingOutcome};
pub use solution::{session_rates, FlowSummary};
pub use solver::{Instance, RoutingMode, Solver, SolverKind, SolverOutcome};
