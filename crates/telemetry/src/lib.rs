//! `omcf-telemetry` — the repo's observability substrate: a registry of
//! named counters, gauges, and log-scaled histograms, a hierarchical
//! scoped-span profiler, and a leveled logger. No external dependencies
//! (this environment is offline); the only imports are `omcf-numerics`
//! (for the sorted-key JSON writer) and the rayon shim (for worker
//! indices).
//!
//! # Design contract
//!
//! * **Disabled by default, one relaxed load off-cost.** Every
//!   instrumented site first reads one process-global relaxed
//!   [`AtomicBool`]; while telemetry is off nothing else happens — no
//!   allocation, no registration, no thread-local touch (pinned by
//!   `tests/off.rs` with a counting allocator).
//! * **Counts are deterministic, times are wall-clock.** Each metric
//!   carries a [`Class`]: `Count` metrics are u64 sums of
//!   scheduling-independent events, so their totals are bit-identical
//!   across `Parallelism::Serial`/`Threads(n)` and across repeated runs
//!   (addition of u64s commutes; shard assignment cannot change a sum).
//!   `Wall` metrics (latencies, high-water marks, allocation counts that
//!   depend on interleaving) are explicitly excluded from that contract
//!   and marked as such in every export.
//! * **Deterministic merge order.** Snapshots merge per-worker cells
//!   shard-index-ordered and emit metrics name-sorted; span trees are
//!   merged path-sorted. Two snapshots of the same counts render to the
//!   same bytes.
//!
//! All metric handles live in [`stats`] so every name exists exactly once
//! process-wide (the sorted-key JSON writer rejects duplicate keys).
//! Naming scheme and the full determinism contract: `docs/OBSERVABILITY.md`.

pub mod export;
pub mod logger;
pub mod metrics;
pub mod registry;
pub mod spans;
pub mod stats;

pub use export::{lint_sorted_json, render_profile_json};
pub use logger::{log_level, set_log_level, LogLevel};
pub use metrics::{Class, Counter, Gauge, Histogram, OwnedCounter};
pub use registry::{registered_len, reset, snapshot, Snapshot};
pub use spans::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global master switch. Reading it is the entire off-path
/// cost of an instrumented site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection on? One relaxed atomic load — hot loops that
/// batch events into locals should capture this once per run instead of
/// re-asking per event.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Sites observe the change at their next
/// event; counts recorded while off are simply never taken.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
