//! Enabled-mode unit coverage for the telemetry substrate itself:
//! counter shard merging, histogram bucketing, span nesting, snapshot
//! determinism, JSON rendering + lint, and reset semantics.
//!
//! Everything here toggles the process-global enable switch, so the
//! tests serialise on one mutex (cargo runs tests in one process,
//! concurrently by default).

use omcf_telemetry as tm;
use std::sync::Mutex;
use tm::{Class, Counter, Gauge, Histogram, OwnedCounter};

static LOCK: Mutex<()> = Mutex::new(());

/// Enable telemetry, reset state, run `f`, disable again.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tm::set_enabled(true);
    tm::reset();
    let out = f();
    tm::set_enabled(false);
    out
}

static COUNTER: Counter = Counter::new("test.counter", Class::Count);
static WALL_COUNTER: Counter = Counter::new("test.wall_counter", Class::Wall);
static GAUGE: Gauge = Gauge::new("test.gauge", Class::Wall);
static HISTOGRAM: Histogram = Histogram::new("test.histogram", Class::Count);

#[test]
fn counters_sum_across_worker_shards() {
    with_telemetry(|| {
        use rayon::prelude::*;
        COUNTER.add(5);
        (0..4u32).into_par_iter().for_each(|_| COUNTER.add(10));
        assert_eq!(COUNTER.value(), 45);
        let snap = tm::snapshot();
        let c = snap.counters.iter().find(|c| c.name == "test.counter").unwrap();
        assert_eq!(c.value, 45);
        assert_eq!(c.class, Class::Count);
    });
}

#[test]
fn histogram_buckets_are_log2() {
    assert_eq!(Histogram::bucket_of(0), 0);
    assert_eq!(Histogram::bucket_of(1), 0);
    assert_eq!(Histogram::bucket_of(2), 1);
    assert_eq!(Histogram::bucket_of(3), 1);
    assert_eq!(Histogram::bucket_of(4), 2);
    assert_eq!(Histogram::bucket_of(1023), 9);
    assert_eq!(Histogram::bucket_of(1024), 10);
    assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    with_telemetry(|| {
        for v in [0, 1, 2, 3, 700, 1024] {
            HISTOGRAM.observe(v);
        }
        assert_eq!(HISTOGRAM.count(), 6);
        assert_eq!(HISTOGRAM.sum(), 1730);
        assert_eq!(HISTOGRAM.min(), 0);
        assert_eq!(HISTOGRAM.max(), 1024);
        assert_eq!(HISTOGRAM.buckets(), vec![(0, 2), (1, 2), (9, 1), (10, 1)]);
    });
}

#[test]
fn gauge_tracks_value_and_high_water() {
    with_telemetry(|| {
        GAUGE.set(3);
        GAUGE.add(4);
        GAUGE.add(-6);
        assert_eq!(GAUGE.value(), 1);
        assert_eq!(GAUGE.high_water(), 7);
    });
}

#[test]
fn owned_counter_mirrors_into_global_only_when_enabled() {
    with_telemetry(|| {
        let a = OwnedCounter::new(&WALL_COUNTER);
        let b = OwnedCounter::new(&WALL_COUNTER);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 3);
        assert_eq!(WALL_COUNTER.value(), 5);
        tm::set_enabled(false);
        a.add(7);
        assert_eq!(a.get(), 9, "local cell counts regardless of the switch");
        assert_eq!(WALL_COUNTER.value(), 5, "global mirror is gated");
    });
}

#[test]
fn spans_nest_into_slash_paths_and_merge_sorted() {
    let snap = with_telemetry(|| {
        for _ in 0..3 {
            let _a = tm::span("alpha");
            {
                let _b = tm::span("beta");
            }
            let _c = tm::span("beta");
        }
        tm::snapshot()
    });
    let paths: Vec<(&str, u64)> = snap.spans.iter().map(|s| (s.path.as_str(), s.count)).collect();
    assert_eq!(paths, vec![("alpha", 3), ("alpha/beta", 6)]);
    assert!(snap.spans.iter().all(|s| s.total_ns > 0));
}

/// The caller runs one item as worker 0 and a spawned worker the other
/// (the barrier needs both at once), yet both items' spans root at the
/// parallel body rather than under the caller's open span.
#[test]
fn spans_in_a_parallel_body_root_at_the_body_on_every_worker() {
    use rayon::prelude::*;
    let barrier = std::sync::Barrier::new(2);
    let two = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("build pool");
    let snap = with_telemetry(|| {
        {
            let _outer = tm::span("outer");
            two.install(|| {
                (0..2u32).into_par_iter().for_each(|_| {
                    barrier.wait();
                    let _item = tm::span("item");
                    let _step = tm::span("step");
                });
            });
        }
        tm::snapshot()
    });
    let paths: Vec<(&str, u64)> = snap.spans.iter().map(|s| (s.path.as_str(), s.count)).collect();
    assert_eq!(paths, vec![("item", 2), ("item/step", 2), ("outer", 1)]);
}

#[test]
fn snapshot_renders_sorted_lintable_json() {
    let (snap, rendered) = with_telemetry(|| {
        COUNTER.add(11);
        GAUGE.set(2);
        HISTOGRAM.observe(900);
        let _s = tm::span("render");
        drop(_s);
        let snap = tm::snapshot();
        let rendered = tm::render_profile_json(&snap);
        (snap, rendered)
    });
    let objects = tm::lint_sorted_json(&rendered).expect("profile JSON must lint");
    assert!(objects >= 5, "top-level + one object per section, got {objects}");
    // Round-trip: every sample appears verbatim in the rendered text.
    for c in &snap.counters {
        assert!(rendered.contains(&format!("\"{}\"", c.name)), "missing {}", c.name);
    }
    assert!(rendered.contains("\"schema\": \"omcf-telemetry-v1\""));
    assert!(rendered.contains("\"class\": \"count\", \"value\": 11"));
    assert!(rendered.contains("\"b09\": 1"));
    assert!(tm::lint_sorted_json("{\"b\": 1, \"a\": 2}").is_err(), "unsorted keys must fail");
    assert!(tm::lint_sorted_json("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys must fail");
    assert!(tm::lint_sorted_json("{\"a\": ").is_err(), "truncated JSON must fail");
}

#[test]
fn reset_zeroes_values_but_keeps_registration() {
    with_telemetry(|| {
        COUNTER.add(4);
        HISTOGRAM.observe(9);
        let _ = tm::span("gone");
        let registered = tm::registered_len();
        assert!(registered > 0);
        tm::reset();
        assert_eq!(tm::registered_len(), registered);
        assert_eq!(COUNTER.value(), 0);
        assert_eq!(HISTOGRAM.count(), 0);
        assert_eq!(HISTOGRAM.min(), 0);
        assert!(tm::snapshot().spans.is_empty());
    });
}

#[test]
fn deterministic_view_excludes_wall_metrics() {
    let view = with_telemetry(|| {
        COUNTER.add(1);
        WALL_COUNTER.add(1);
        GAUGE.set(9);
        tm::snapshot().deterministic_view()
    });
    assert!(view.contains("counter test.counter 1"));
    assert!(!view.contains("test.wall_counter"), "wall metrics must stay out:\n{view}");
    assert!(!view.contains("test.gauge"));
}

#[test]
fn log_level_round_trips() {
    assert_eq!(tm::log_level(), tm::LogLevel::Info);
    tm::set_log_level(tm::LogLevel::Verbose);
    assert_eq!(tm::log_level(), tm::LogLevel::Verbose);
    tm::set_log_level(tm::LogLevel::Quiet);
    assert_eq!(tm::log_level(), tm::LogLevel::Quiet);
    tm::set_log_level(tm::LogLevel::Info);
    // The macros must compile against the crate-rooted paths.
    tm::info!("logger info smoke {}", 1);
    tm::verbose!("logger verbose smoke {}", 2);
}
