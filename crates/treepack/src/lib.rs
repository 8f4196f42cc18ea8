//! Packing spanning trees (paper §II-C).
//!
//! Given a session's weighted overlay graph `G_i` (edge weight = traffic
//! budget between the two members), decompose it into spanning trees whose
//! aggregate rate maximally saturates the budgets — the paper's problem `S`.
//! Tutte (1961) and Nash-Williams (1961) give the min–max relation
//!
//! ```text
//! max Σ_j f_j  =  min over partitions π of G_i   f(π) / (|π| − 1)
//! ```
//!
//! where `f(π)` is the total weight of edges crossing the partition. This
//! quantity is the *network strength*. The crate provides:
//!
//! * [`strength::strength_exact`] — exact strength by partition enumeration
//!   (restricted-growth strings; practical to ~12 nodes, which covers the
//!   paper's worked example and the test corpus);
//! * [`pack::pack_greedy`] — max-bottleneck-tree greedy packing (≤ `|E|`
//!   iterations, each saturating an edge).
//!
//! The fractional packing comes from the solver engine: problem `S` is M1
//! with one session holding every node under fixed routing, so
//! `omcf_core::max_flow` solves it, and the property `packing_sandwich`
//! (`tests/prop.rs`) checks its value and dual bound against
//! [`strength::strength_exact`]. The paper's Fig. 1 example (weighted K4,
//! integral packing of aggregate rate 5, fractional optimum 17/3) is
//! reproduced in the tests of [`pack`] and [`strength`].

pub mod pack;
pub mod strength;

pub use pack::{pack_greedy, Packing, SpanningTree};
pub use strength::strength_exact;
