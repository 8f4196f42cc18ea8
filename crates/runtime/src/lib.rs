//! Event-driven session runtime over the overlay-MCF solver stack.
//!
//! The paper's online min-congestion algorithm (Table VI) is a streaming
//! procedure — sessions arrive one at a time against accumulated
//! exponential lengths — and its natural production shape is a
//! *long-running service*, not a batch run over a frozen trace. This
//! crate is that missing layer between solver library and service:
//!
//! * [`Runtime`] processes an ordered [`Event`] stream — `Join`,
//!   `Leave`, `CapacityChange`, `Reoptimize` — **incrementally** over
//!   warm solver state. It is the event layer over `omcf-core`'s one
//!   join/leave core, [`OnlineSystem`](omcf_core::OnlineSystem), which
//!   owns the engine's [`EngineState`](omcf_core::EngineState) (lengths,
//!   loads, flow store, epoch clock). Leaves roll the departed
//!   contribution back *exactly* (bit-identical to a trajectory that
//!   never admitted the session with the same trees); capacity changes
//!   re-derive only the affected edges.
//! * [`Reoptimizer`] periodically re-solves the live population with an
//!   offline solver (any [`SolverKind`](omcf_core::SolverKind), via the
//!   `Solver` trait) and reports the congestion **drift** — runtime
//!   congestion over batch-optimal congestion — as a time series
//!   ([`DriftSample`], [`drift_csv`]).
//! * [`Runtime::snapshot_v2`](runtime::Runtime::snapshot_v2) /
//!   [`Runtime::restore_v2`](runtime::Runtime::restore_v2) serialize the
//!   whole state to a compact versioned binary blob with bit-exact
//!   floats (`OMCFSNAP` v2, the one snapshot format), so replays resume
//!   across processes without changing one output byte.
//! * [`Fleet`] scales the runtime to many independent overlays: sharded
//!   event ingestion with per-shard ordering and bounded-queue
//!   backpressure ([`Admission`]), concurrent drives under
//!   [`Parallelism`](omcf_core::Parallelism) (bit-identical at every
//!   thread count), and crash recovery — a binary snapshot container
//!   plus an append-only event [`Wal`] replayed by [`Fleet::recover`]
//!   reproduce the pre-crash state exactly, torn tail tolerated.
//! * [`replay_churn`] drives a full [`ChurnSchedule`](omcf_overlay::ChurnSchedule)
//!   through the runtime; its final rates are bit-identical to the batch
//!   `OnlineSolver` run on the same trace (both drive `OnlineSystem`;
//!   pinned by `crates/sim/tests/replay.rs`), while costing one oracle
//!   call per join instead of a from-scratch re-solve per event.
//!
//! See `docs/RUNTIME.md` for the event model, the rollback contract and
//! the snapshot format, and `docs/FLEET.md` for the fleet's wire
//! formats and recovery procedure.
//!
//! ```
//! use omcf_core::solver::RoutingMode;
//! use omcf_overlay::Session;
//! use omcf_runtime::{Runtime, RuntimeConfig};
//! use omcf_topology::{canned, NodeId};
//!
//! let g = canned::grid(4, 4, 10.0);
//! let mut rt = Runtime::new(g, RuntimeConfig::new(25.0, RoutingMode::FixedIp));
//! let a = rt.join(Session::new(vec![NodeId(0), NodeId(15)], 1.0));
//! let initial_lengths = rt.lengths().to_vec();
//! let b = rt.join(Session::new(vec![NodeId(3), NodeId(12)], 1.0));
//! assert!(rt.leave(b));
//! // b's contribution is rolled back exactly: state is bit-identical to
//! // the moment only `a` was live.
//! assert_eq!(rt.lengths(), initial_lengths.as_slice());
//! assert_eq!(rt.live_joins(), vec![a]);
//! ```

mod binio;
pub mod event;
pub mod fleet;
pub mod reopt;
pub mod replay;
pub mod runtime;
pub mod snapshot;
pub mod snapshot_v2;
pub mod wal;

pub use event::Event;
pub use fleet::{
    Admission, DriveReport, Fleet, FleetConfig, RecoverError, RecoveryReport, ShardId,
    FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION,
};
pub use reopt::{drift_csv, DriftSample, Reoptimizer};
pub use replay::{replay, replay_churn, resume_replay, ReplayConfig, ReplayReport};
pub use runtime::{Checkpoint, Runtime, RuntimeConfig};
pub use snapshot::{SnapshotError, SNAPSHOT_VERSION};
pub use snapshot_v2::SNAPSHOT_V2_MAGIC;
pub use wal::{read_wal, TornTail, Wal, WalError, WalRecord, WAL_MAGIC};
