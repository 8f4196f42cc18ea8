//! Every metric handle in the workspace, declared once.
//!
//! Centralising the statics guarantees each metric name exists exactly
//! once process-wide (the sorted-key JSON writer panics on duplicate
//! keys) and gives one place to read the whole vocabulary. Naming:
//! `<family>.<subsystem>.<event>[.<unit>]`, families `engine`, `oracle`,
//! `routing`, `runtime`, `fleet`, `sweep`; time histograms end in `.us`
//! (microseconds). Classes per the crate contract: `Count` is
//! bit-identical across thread counts, `Wall` is not.

use crate::metrics::{Class, Counter, Gauge, Histogram};

// --- engine (Garg–Könemann length-update engine, omcf-core) ----------

/// Oracle calls made by the engine (`min_tree`/`min_trees`); equals the
/// solvers' `mst_ops`.
pub static ENGINE_ORACLE_CALLS: Counter = Counter::new("engine.oracle.calls", Class::Count);
/// Augmentations applied (one per accepted tree).
pub static ENGINE_AUGMENTS: Counter = Counter::new("engine.augment.count", Class::Count);
/// Edge length multipliers written by augmentations.
pub static ENGINE_AUGMENT_EDGES: Counter = Counter::new("engine.augment.edges", Class::Count);
/// Lazy epoch advances latched by augments and applied at the next read.
pub static ENGINE_EPOCH_ADVANCES: Counter = Counter::new("engine.epoch.advances", Class::Count);
/// M2 stop tests `D ≥ 1` (`Engine::dual_reached_one` calls).
pub static ENGINE_DUAL_TESTS: Counter = Counter::new("engine.dual.tests", Class::Count);
/// Stop tests the running dual sum could not decide, so they ran the
/// full `O(|E|)` Neumaier sum (bound sums are counted apart, below).
pub static ENGINE_DUAL_FULL_SUMS: Counter = Counter::new("engine.dual.full_sums", Class::Count);
/// Weak-duality bound updates (`Engine::observe_alpha` calls), each a
/// full `O(|E|)` Neumaier sum: one per iteration plus one for a `max_flow`
/// run, two for Fleischer, none for M2's inner `MaxFlow` runs.
pub static ENGINE_DUAL_BOUND_SUMS: Counter = Counter::new("engine.dual.bound_sums", Class::Count);

// --- oracle (epoch-cached tree oracles, omcf-overlay) -----------------
//
// The five cache counters are Count class: an oracle is not `Sync`, so
// each one serves one run at a time, and its hits, misses and bypassed
// queries follow from that run's query sequence alone.

/// Dynamic-oracle member fans Prim read that the epoch cache served.
pub static ORACLE_DYNAMIC_HITS: Counter = Counter::new("oracle.dynamic.cache.hits", Class::Count);
/// Dynamic-oracle member fans Prim read that were computed.
pub static ORACLE_DYNAMIC_MISSES: Counter =
    Counter::new("oracle.dynamic.cache.misses", Class::Count);
/// Fixed-IP-oracle session trees answered from the epoch cache.
pub static ORACLE_FIXED_HITS: Counter = Counter::new("oracle.fixed.cache.hits", Class::Count);
/// Fixed-IP-oracle session trees actually recomputed.
pub static ORACLE_FIXED_MISSES: Counter = Counter::new("oracle.fixed.cache.misses", Class::Count);
/// Queries that skipped cache probing because the auto-bypass engaged.
pub static ORACLE_BYPASSED: Counter = Counter::new("oracle.cache.bypassed", Class::Count);

// --- routing (CSR Dijkstra, omcf-routing) -------------------------------

/// Dijkstra runs (one per workspace run).
pub static ROUTING_DIJKSTRA_RUNS: Counter = Counter::new("routing.dijkstra.runs", Class::Count);
/// Binary-heap pushes.
pub static ROUTING_HEAP_PUSHES: Counter = Counter::new("routing.heap.pushes", Class::Count);
/// Binary-heap pops (stale pops included).
pub static ROUTING_HEAP_POPS: Counter = Counter::new("routing.heap.pops", Class::Count);
/// Arcs examined by settled-node relaxation scans.
pub static ROUTING_RELAXATIONS: Counter = Counter::new("routing.relaxations", Class::Count);

// --- runtime (event loop, omcf-runtime) -------------------------------

/// Events applied, by kind.
pub static RUNTIME_EVENTS_JOIN: Counter = Counter::new("runtime.event.join.count", Class::Count);
pub static RUNTIME_EVENTS_LEAVE: Counter = Counter::new("runtime.event.leave.count", Class::Count);
pub static RUNTIME_EVENTS_CAPACITY: Counter =
    Counter::new("runtime.event.capacity.count", Class::Count);
pub static RUNTIME_EVENTS_REOPT: Counter = Counter::new("runtime.event.reopt.count", Class::Count);
/// Per-event-kind apply latency (µs), wall-clock.
pub static RUNTIME_EVENT_JOIN_US: Histogram = Histogram::new("runtime.event.join.us", Class::Wall);
pub static RUNTIME_EVENT_LEAVE_US: Histogram =
    Histogram::new("runtime.event.leave.us", Class::Wall);
pub static RUNTIME_EVENT_CAPACITY_US: Histogram =
    Histogram::new("runtime.event.capacity.us", Class::Wall);
pub static RUNTIME_EVENT_REOPT_US: Histogram =
    Histogram::new("runtime.event.reopt.us", Class::Wall);
/// Edges replayed by exact rollbacks (leaves + capacity rescales).
pub static RUNTIME_ROLLBACK_EDGES: Counter = Counter::new("runtime.rollback.edges", Class::Count);
/// Snapshot sizes in bytes (deterministic: the text is bit-pinned).
pub static RUNTIME_SNAPSHOT_BYTES: Histogram =
    Histogram::new("runtime.snapshot.bytes", Class::Count);
/// Snapshot render latency (µs), wall-clock.
pub static RUNTIME_SNAPSHOT_US: Histogram = Histogram::new("runtime.snapshot.us", Class::Wall);

// --- fleet (sharded multi-overlay service, omcf-runtime::fleet) -------

/// Events admitted into shard queues.
pub static FLEET_EVENTS_ACCEPTED: Counter = Counter::new("fleet.events.accepted", Class::Count);
/// Submissions deferred by backpressure (shard queue at capacity).
pub static FLEET_EVENTS_DEFERRED: Counter = Counter::new("fleet.events.deferred", Class::Count);
/// Submissions rejected outright (unknown shard).
pub static FLEET_EVENTS_REJECTED: Counter = Counter::new("fleet.events.rejected", Class::Count);
/// Events applied to shard runtimes by drive rounds.
pub static FLEET_EVENTS_APPLIED: Counter = Counter::new("fleet.events.applied", Class::Count);
/// Drive rounds executed.
pub static FLEET_DRIVES: Counter = Counter::new("fleet.drives", Class::Count);
/// Events drained per drive round (size histogram; deterministic).
pub static FLEET_DRIVE_EVENTS: Histogram = Histogram::new("fleet.drive.events", Class::Count);
/// Drive round latency (µs), wall-clock.
pub static FLEET_DRIVE_US: Histogram = Histogram::new("fleet.drive.us", Class::Wall);
/// Fleet snapshot container sizes (bytes; deterministic).
pub static FLEET_SNAPSHOT_BYTES: Histogram = Histogram::new("fleet.snapshot.bytes", Class::Count);
/// Bytes appended to the event WAL (framing included).
pub static FLEET_WAL_BYTES: Counter = Counter::new("fleet.wal.bytes", Class::Count);
/// WAL records replayed by crash recovery.
pub static FLEET_RECOVERED_EVENTS: Counter = Counter::new("fleet.recover.events", Class::Count);

// --- sweep (scenario sweep driver, omcf-sim) --------------------------

/// Sweep cells solved.
pub static SWEEP_CELLS: Counter = Counter::new("sweep.cells", Class::Count);
/// Oracle calls per cell (size histogram; deterministic).
pub static SWEEP_CELL_MST_OPS: Histogram = Histogram::new("sweep.cell.mst_ops", Class::Count);
/// Iterations per cell (size histogram; deterministic).
pub static SWEEP_CELL_ITERATIONS: Histogram = Histogram::new("sweep.cell.iterations", Class::Count);
/// Per-cell solve latency (µs), wall-clock.
pub static SWEEP_CELL_SOLVE_US: Histogram = Histogram::new("sweep.cell.solve.us", Class::Wall);
/// Live sweep-cell solves in flight (high-water ≈ effective parallelism).
pub static SWEEP_CELLS_IN_FLIGHT: Gauge = Gauge::new("sweep.cells.in_flight", Class::Wall);
