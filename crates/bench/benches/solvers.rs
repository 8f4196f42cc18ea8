//! Core-solver benches: how the FPTAS and online algorithms scale with
//! accuracy, session size and session count — the knobs Theorem 1/2's
//! running-time bounds predict. Includes the rayon-vs-serial sweep
//! ablation (`ablation_parallel`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omcf_bench::fixture;
use omcf_core::{
    exact, max_concurrent_flow, max_flow, max_flow_fleischer, online_min_congestion, ApproxParams,
};
use omcf_overlay::FixedIpOracle;
use omcf_sim::experiments::{part_one, Config, RoutingMode};
use omcf_sim::Scale;
use rayon::prelude::*;
use std::hint::black_box;

fn bench_maxflow_accuracy(c: &mut Criterion) {
    // Theorem 1 predicts 1/ε² growth.
    let (g, sessions) = fixture(60, 2, 5, 2004);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let mut grp = c.benchmark_group("maxflow_accuracy");
    grp.sample_size(10);
    for ratio in [0.85f64, 0.90, 0.95] {
        grp.bench_with_input(BenchmarkId::from_parameter(ratio), &ratio, |b, &r| {
            b.iter(|| black_box(max_flow(&g, &oracle, ApproxParams::from_eps(1.0 - r))))
        });
    }
    grp.finish();
}

fn bench_maxflow_session_size(c: &mut Criterion) {
    // T_mst is O(|S|²): doubling the session size quadruples oracle cost.
    let mut grp = c.benchmark_group("maxflow_session_size");
    grp.sample_size(10);
    for size in [4usize, 8, 16] {
        let (g, sessions) = fixture(80, 1, size, 31);
        let oracle = FixedIpOracle::new(&g, &sessions);
        grp.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| black_box(max_flow(&g, &oracle, ApproxParams::from_eps(0.1))))
        });
    }
    grp.finish();
}

fn bench_mcf(c: &mut Criterion) {
    let (g, sessions) = fixture(60, 3, 5, 5);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let mut grp = c.benchmark_group("mcf");
    grp.sample_size(10);
    grp.bench_function("three_sessions_eps10", |b| {
        b.iter(|| black_box(max_concurrent_flow(&g, &oracle, ApproxParams::from_eps(0.1))))
    });
    grp.finish();
}

fn bench_online(c: &mut Criterion) {
    let (g, sessions) = fixture(100, 8, 6, 13);
    let oracle = FixedIpOracle::new(&g, &sessions);
    c.bench_function("online_eight_arrivals", |b| {
        b.iter(|| black_box(online_min_congestion(&g, &oracle, 20.0)))
    });
}

fn bench_parallel_sweep(c: &mut Criterion) {
    // ablation_parallel: the same ratio sweep serially vs through rayon,
    // one oracle per ratio on both sides (oracles are not `Sync`).
    let cfg = Config { scale: Scale::Micro, seed: 2004 };
    let ratios = [0.88f64, 0.90, 0.92, 0.94];
    let mut grp = c.benchmark_group("ablation_parallel");
    grp.sample_size(10);
    grp.bench_function("sweep_serial", |b| {
        b.iter(|| {
            let scenario = omcf_sim::scenarios::ScenarioA::build(cfg.seed, cfg.scale);
            let outs: Vec<_> = ratios
                .iter()
                .map(|&r| {
                    let oracle = FixedIpOracle::new(&scenario.graph, &scenario.sessions);
                    max_flow(&scenario.graph, &oracle, ApproxParams::from_eps(1.0 - r))
                })
                .collect();
            black_box(outs)
        })
    });
    grp.bench_function("sweep_rayon", |b| {
        b.iter(|| {
            let scenario = omcf_sim::scenarios::ScenarioA::build(cfg.seed, cfg.scale);
            let outs: Vec<_> = ratios
                .par_iter()
                .map(|&r| {
                    let oracle = FixedIpOracle::new(&scenario.graph, &scenario.sessions);
                    max_flow(&scenario.graph, &oracle, ApproxParams::from_eps(1.0 - r))
                })
                .collect();
            black_box(outs)
        })
    });
    grp.finish();
}

fn bench_routing_mode(c: &mut Criterion) {
    // Fixed vs arbitrary routing end to end (the §V cost).
    let cfg = Config { scale: Scale::Micro, seed: 2004 };
    let mut grp = c.benchmark_group("routing_mode");
    grp.sample_size(10);
    grp.bench_function("maxflow_sweep_fixed", |b| {
        b.iter(|| black_box(part_one::max_flow_sweep(&cfg, RoutingMode::FixedIp)))
    });
    grp.bench_function("maxflow_sweep_arbitrary", |b| {
        b.iter(|| black_box(part_one::max_flow_sweep(&cfg, RoutingMode::Arbitrary)))
    });
    grp.finish();
}

fn bench_fleischer_ablation(c: &mut Criterion) {
    // Table I vs Fleischer's oracle-sparing variant at equal accuracy.
    let (g, sessions) = fixture(80, 5, 5, 21);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let mut grp = c.benchmark_group("ablation_fleischer");
    grp.sample_size(10);
    grp.bench_function("table_i", |b| {
        b.iter(|| black_box(max_flow(&g, &oracle, ApproxParams::from_eps(0.1))))
    });
    grp.bench_function("fleischer", |b| {
        b.iter(|| black_box(max_flow_fleischer(&g, &oracle, ApproxParams::from_eps(0.1))))
    });
    grp.finish();
}

fn bench_exact_reference(c: &mut Criterion) {
    // Exact LP (tree enumeration + simplex) vs the FPTAS on a certifiable
    // instance — quantifies what the FPTAS buys.
    use omcf_overlay::{Session, SessionSet};
    use omcf_topology::{canned, NodeId};
    let g = canned::grid(3, 3, 10.0);
    let sessions = SessionSet::new(vec![
        Session::new(vec![NodeId(0), NodeId(4), NodeId(8)], 1.0),
        Session::new(vec![NodeId(2), NodeId(6)], 1.0),
    ]);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let mut grp = c.benchmark_group("exact_vs_fptas");
    grp.sample_size(10);
    grp.bench_function("exact_lp_m1", |b| {
        b.iter(|| black_box(exact::exact_m1_objective(&g, &oracle)))
    });
    grp.bench_function("fptas_m1", |b| {
        b.iter(|| black_box(max_flow(&g, &oracle, ApproxParams::for_m1(0.9))))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_maxflow_accuracy,
    bench_maxflow_session_size,
    bench_mcf,
    bench_online,
    bench_parallel_sweep,
    bench_routing_mode,
    bench_fleischer_ablation,
    bench_exact_reference,
);
criterion_main!(benches);
