//! Unicast routing substrate.
//!
//! The paper distinguishes two routing regimes for the overlay links:
//!
//! * **Fixed IP routing** (§II–§IV): every node pair communicates over the
//!   shortest path of the physical topology, computed once (hop-count
//!   metric, deterministic tie-breaking) and never changed. Modeled by
//!   [`FixedRoutes`].
//! * **Arbitrary dynamic routing** (§V): a node pair may use *any* unicast
//!   path; the algorithms pick the shortest path under the solver's current
//!   edge-length assignment, recomputed every iteration. Modeled by one
//!   early-exit [`DijkstraWorkspace::run_targets`] per session member's
//!   fan, run by `omcf-overlay`'s dynamic oracle.
//!
//! Both are built on a single Dijkstra over the graph's struct-of-arrays
//! [`omcf_topology::CsrGraph`] view with externally supplied per-edge
//! lengths. The algorithm lives in [`DijkstraWorkspace`] — a
//! pre-allocated, reusable buffer set with generation-stamped O(1)
//! resets, a multi-target early-exit entry point, and one binary heap;
//! [`dijkstra()`] is the one-shot convenience wrapper around it, and
//! [`reference::dijkstra_adjacency`] keeps the frozen pre-CSR
//! adjacency-list implementation as the bit-exactness oracle and bench
//! baseline.

pub mod dijkstra;
pub mod fixed;
pub mod path;
mod queue;
pub mod reference;
pub(crate) mod slots;
pub mod workspace;

pub use dijkstra::{dijkstra, ShortestPathTree};
pub use fixed::FixedRoutes;
pub use path::Path;
pub use workspace::{DijkstraWorkspace, WorkspacePool};
