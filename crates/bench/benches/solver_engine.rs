//! Engine/oracle benches: what the epoch-cached, workspace-reusing oracle
//! path buys, measured end to end through the `MaxFlow` solver.
//!
//! * `cached` — the solver engine's default path: per-member persistent
//!   Dijkstra workspaces, multi-target early exit, and epoch-stamped fan
//!   caches (exact hits under monotone length growth).
//! * `uncached` — the pre-engine baseline: one fresh-allocation Dijkstra
//!   per member per oracle call, no cache.
//!
//! Two instances: the paper's Scenario A (Fast scale) — a near-tree where
//! fans always overlap the augmented tree, so the win comes from the
//! workspace path, not cache hits — and a denser multi-session instance
//! where the epoch cache eliminates most Dijkstras outright. Also emits
//! `BENCH_engine.json` at the workspace root with median wall-times,
//! `mst_ops` and Dijkstra-level cache hit rates — the first point of the
//! repo's engine perf trajectory — plus one M2 point on the multi-session
//! graph with 2-member sessions, whose solves chain several engine runs on
//! one oracle.

use criterion::{criterion_group, criterion_main, Criterion};
use omcf_core::{max_concurrent_flow_maxmin, max_flow, ApproxParams, MaxFlowOutcome, McfOutcome};
use omcf_numerics::{jsonfmt, Xoshiro256pp};
use omcf_overlay::SessionSet;
use omcf_overlay::{random_sessions, CacheStats, DynamicOracle, FixedIpOracle, TreeOracle};
use omcf_sim::scenarios::ScenarioA;
use omcf_sim::Scale;
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::Graph;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 2004;
const RATIO: f64 = 0.9;
/// The multi-session instance does ~300k oracle calls per solve; ratio
/// 0.85 keeps one solve in seconds while leaving the hit-rate picture
/// unchanged.
const MULTI_RATIO: f64 = 0.85;
/// M2 ratio on the session-pairs instance; keeps one cached solve near
/// half a second.
const M2_RATIO: f64 = 0.5;

fn scenario_a() -> (Graph, SessionSet) {
    let a = ScenarioA::build(SEED, Scale::Fast);
    (a.graph, a.sessions)
}

/// Denser 100-node Waxman with eight scattered `members`-member sessions.
fn waxman_sessions(members: usize) -> (Graph, SessionSet) {
    let mut rng = Xoshiro256pp::new(SEED ^ 0xE2);
    let params = WaxmanParams { n: 100, alpha: 0.3, capacity: 100.0, ..WaxmanParams::default() };
    let g = waxman::generate(&params, &mut rng);
    let sessions = random_sessions(&g, 8, members, 1.0, &mut rng);
    (g, sessions)
}

/// The multi-session instance, 3-member sessions: augmenting one
/// session's tree usually misses the other sessions' fans, so the epoch
/// cache gets real hits (~65% of the fans Prim reads).
fn multi_session() -> (Graph, SessionSet) {
    waxman_sessions(3)
}

/// The M2 instance, the same graph with 2-member sessions. Prim reads one
/// fan of a 2-member session, and its tree uses that fan's one route, so
/// every single-session λ pre-pass run misses on every query and trips
/// the cache auto-bypass, while the later stages hit on other sessions'
/// fans.
fn session_pairs() -> (Graph, SessionSet) {
    waxman_sessions(2)
}

fn run_m1<O: TreeOracle + ?Sized>(g: &Graph, oracle: &O, ratio: f64) -> MaxFlowOutcome {
    max_flow(g, oracle, ApproxParams::for_m1(ratio))
}

fn bench_m1_scenario_a(c: &mut Criterion) {
    let (g, sessions) = scenario_a();
    let mut grp = c.benchmark_group("solver_engine/scenario_a_m1");
    grp.sample_size(10);
    grp.bench_function("dynamic_cached", |b| {
        let oracle = DynamicOracle::new(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, RATIO)))
    });
    grp.bench_function("dynamic_uncached", |b| {
        let oracle = DynamicOracle::uncached(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, RATIO)))
    });
    grp.bench_function("fixed_cached", |b| {
        let oracle = FixedIpOracle::new(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, RATIO)))
    });
    grp.bench_function("fixed_uncached", |b| {
        let oracle = FixedIpOracle::uncached(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, RATIO)))
    });
    grp.finish();
}

fn bench_m1_multi_session(c: &mut Criterion) {
    let (g, sessions) = multi_session();
    let mut grp = c.benchmark_group("solver_engine/multi_session_m1");
    grp.sample_size(10);
    grp.bench_function("dynamic_cached", |b| {
        let oracle = DynamicOracle::new(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, MULTI_RATIO)))
    });
    grp.bench_function("dynamic_uncached", |b| {
        let oracle = DynamicOracle::uncached(&g, &sessions);
        b.iter(|| black_box(run_m1(&g, &oracle, MULTI_RATIO)))
    });
    grp.finish();
}

fn m1_ops(out: &MaxFlowOutcome) -> u64 {
    out.mst_ops
}

fn run_m2<O: TreeOracle + ?Sized>(g: &Graph, oracle: &O, ratio: f64) -> McfOutcome {
    max_concurrent_flow_maxmin(g, oracle, ApproxParams::for_m2(ratio))
}

fn m2_ops(out: &McfOutcome) -> u64 {
    out.mst_ops_main + out.mst_ops_prepass
}

/// Median wall-time over `runs` calls of `solve` (all on the same oracle)
/// plus the `mst_ops` and oracle cache counters of the final run.
fn measure<R>(
    runs: usize,
    stats: impl Fn() -> CacheStats,
    solve: impl Fn() -> R,
    mst_ops: impl Fn(&R) -> u64,
) -> (f64, u64, CacheStats) {
    let mut times: Vec<f64> = Vec::with_capacity(runs);
    let mut ops = 0;
    let mut last = stats();
    for _ in 0..runs {
        let before = stats();
        let start = Instant::now();
        let out = black_box(solve());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        ops = mst_ops(&out);
        let after = stats();
        last = CacheStats { hits: after.hits - before.hits, misses: after.misses - before.misses };
    }
    times.sort_unstable_by(f64::total_cmp);
    (times[times.len() / 2], ops, last)
}

fn json_entry(wall_ms: f64, mst_ops: u64, stats: CacheStats) -> String {
    jsonfmt::JsonObject::new()
        .field("wall_ms_median", jsonfmt::fixed(wall_ms, 3))
        .field("mst_ops", mst_ops.to_string())
        .field("dijkstra_hits", stats.hits.to_string())
        .field("dijkstra_misses", stats.misses.to_string())
        .inline()
}

/// Cached-vs-uncached A/B of one solve, as a rendered JSON object. Each
/// leg is a solve on its own oracle plus that oracle's cache counters;
/// `mst_ops` reads an outcome's oracle call count, and `speedup_key`
/// names the uncached/cached wall-time ratio.
fn ab_json<R>(
    runs: usize,
    speedup_key: &str,
    mst_ops: impl Fn(&R) -> u64,
    cached: impl Fn() -> R,
    cached_stats: impl Fn() -> CacheStats,
    uncached: impl Fn() -> R,
    uncached_stats: impl Fn() -> CacheStats,
) -> String {
    let (c_ms, c_ops, c_st) = measure(runs, cached_stats, cached, &mst_ops);
    let (u_ms, u_ops, u_st) = measure(runs, uncached_stats, uncached, &mst_ops);
    assert_eq!(c_ops, u_ops, "caching must not change the oracle call count");
    jsonfmt::JsonObject::new()
        .field("cached", json_entry(c_ms, c_ops, c_st))
        .field("uncached", json_entry(u_ms, u_ops, u_st))
        .field(speedup_key, jsonfmt::fixed(u_ms / c_ms, 3))
        .pretty(1)
}

/// Cached-vs-uncached A/B of M2 (`max_concurrent_flow_maxmin`), as a
/// rendered JSON object. One M2 solve is a chain of engine runs on one
/// oracle: a single-session λ pre-pass run per session, where hits are
/// impossible and the cache auto-bypass trips, then the concurrent stage
/// and the residual MaxFlow, where other sessions' fans stay valid. So
/// this point shows whether the cache survives from one run to the next.
/// Each leg reuses one oracle across its runs, and the legs' throughputs
/// are asserted bit-identical first.
fn m2_ab_json(g: &Graph, sessions: &SessionSet, ratio: f64, runs: usize) -> String {
    let cached = DynamicOracle::new(g, sessions);
    let uncached = DynamicOracle::uncached(g, sessions);
    let c_bits = run_m2(g, &cached, ratio).throughput.to_bits();
    let u_bits = run_m2(g, &uncached, ratio).throughput.to_bits();
    assert_eq!(c_bits, u_bits, "caching must be bit-invisible");
    ab_json(
        runs,
        "m2_speedup",
        m2_ops,
        || run_m2(g, &cached, ratio),
        || cached.cache_stats(),
        || run_m2(g, &uncached, ratio),
        || uncached.cache_stats(),
    )
}

/// Telemetry-collection overhead on the cached multi-session point —
/// the off-leg is the shipped default (one relaxed atomic load per
/// site); the on-leg collects every engine/oracle/routing counter. The
/// ratio is the acceptance gate of the observability work:
/// `scripts/bench_check` bounds `telemetry_overhead`.
fn telemetry_ab_json(g: &Graph, sessions: &SessionSet, ratio: f64, runs: usize) -> String {
    let oracle = DynamicOracle::new(g, sessions);
    let solve = || run_m1(g, &oracle, ratio);
    omcf_telemetry::set_enabled(false);
    let (off_ms, off_ops, _) = measure(runs, || oracle.cache_stats(), solve, m1_ops);
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    let (on_ms, on_ops, _) = measure(runs, || oracle.cache_stats(), solve, m1_ops);
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
    assert_eq!(off_ops, on_ops, "telemetry must not change the oracle call count");
    jsonfmt::JsonObject::new()
        .field("disabled_wall_ms_median", jsonfmt::fixed(off_ms, 3))
        .field("enabled_wall_ms_median", jsonfmt::fixed(on_ms, 3))
        .field("telemetry_overhead", jsonfmt::fixed(on_ms / off_ms, 3))
        .inline()
}

/// Not a throughput bench: measures once and writes `BENCH_engine.json`.
fn emit_bench_json(_c: &mut Criterion) {
    let runs = 5;
    let (ga, sa) = scenario_a();
    let dc = DynamicOracle::new(&ga, &sa);
    let du = DynamicOracle::uncached(&ga, &sa);
    let scen_dyn = ab_json(
        runs,
        "speedup",
        m1_ops,
        || run_m1(&ga, &dc, RATIO),
        || dc.cache_stats(),
        || run_m1(&ga, &du, RATIO),
        || du.cache_stats(),
    );
    let fc = FixedIpOracle::new(&ga, &sa);
    let fu = FixedIpOracle::uncached(&ga, &sa);
    let scen_fix = ab_json(
        runs,
        "speedup",
        m1_ops,
        || run_m1(&ga, &fc, RATIO),
        || fc.cache_stats(),
        || run_m1(&ga, &fu, RATIO),
        || fu.cache_stats(),
    );

    let (gm, sm) = multi_session();
    let mc = DynamicOracle::new(&gm, &sm);
    let mu = DynamicOracle::uncached(&gm, &sm);
    let multi_dyn = ab_json(
        runs,
        "speedup",
        m1_ops,
        || run_m1(&gm, &mc, MULTI_RATIO),
        || mc.cache_stats(),
        || run_m1(&gm, &mu, MULTI_RATIO),
        || mu.cache_stats(),
    );
    let multi_telemetry = telemetry_ab_json(&gm, &sm, MULTI_RATIO, runs);
    let (gp, sp) = session_pairs();
    let pairs_m2 = m2_ab_json(&gp, &sp, M2_RATIO, runs);

    let mut json = jsonfmt::JsonObject::new()
        .text("bench", "solver_engine")
        .text("solver", "m1_max_flow")
        .field("seed", SEED.to_string())
        .field("ratio_scenario_a", RATIO.to_string())
        .field("ratio_multi_session", MULTI_RATIO.to_string())
        .field("ratio_m2", M2_RATIO.to_string())
        .field("runs_per_point", runs.to_string())
        .field("scenario_a_fast_dynamic", scen_dyn)
        .field("scenario_a_fast_fixed", scen_fix)
        .field("multi_session_dynamic", multi_dyn)
        .field("multi_session_telemetry", multi_telemetry)
        .field("session_pairs_m2", pairs_m2)
        .pretty(0);
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("bench solver_engine: wrote {path}");
    println!("{json}");
}

criterion_group!(benches, bench_m1_scenario_a, bench_m1_multi_session, emit_bench_json);
criterion_main!(benches);
