//! Substrate microbenches: the building blocks every experiment leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omcf_bench::fixture;
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{DynamicOracle, FixedIpOracle, TreeOracle};
use omcf_routing::dijkstra::dijkstra_hops;
use omcf_topology::waxman::{self, WaxmanParams};
use omcf_topology::NodeId;
use std::hint::black_box;

fn bench_topology_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    for n in [100usize, 400] {
        g.bench_with_input(BenchmarkId::new("waxman", n), &n, |b, &n| {
            let params = WaxmanParams { n, ..WaxmanParams::default() };
            b.iter(|| {
                let mut rng = Xoshiro256pp::new(7);
                black_box(waxman::generate(&params, &mut rng))
            })
        });
    }
    g.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let (g, _) = fixture(200, 1, 5, 3);
    c.bench_function("dijkstra_hops_200n", |b| b.iter(|| black_box(dijkstra_hops(&g, NodeId(0)))));
}

fn bench_oracle(c: &mut Criterion) {
    // Fixed-IP vs dynamic MST oracle cost (ablation_oracle): fixed
    // precomputes routes, dynamic pays |S| Dijkstras per call.
    let (g, sessions) = fixture(150, 1, 12, 11);
    let fixed = FixedIpOracle::new(&g, &sessions);
    let dynamic = DynamicOracle::new(&g, &sessions);
    let lengths: Vec<f64> = {
        let mut rng = Xoshiro256pp::new(5);
        (0..g.edge_count()).map(|_| rng.range_f64(0.1, 2.0)).collect()
    };
    let mut grp = c.benchmark_group("ablation_oracle");
    grp.bench_function("fixed_ip_min_tree", |b| b.iter(|| black_box(fixed.min_tree(0, &lengths))));
    grp.bench_function("dynamic_min_tree", |b| b.iter(|| black_box(dynamic.min_tree(0, &lengths))));
    grp.finish();
}

fn bench_numerics(c: &mut Criterion) {
    // ablation_numerics: rescaled-f64 path-length sums vs exact Xf64.
    use omcf_numerics::Xf64;
    let mut rng = Xoshiro256pp::new(17);
    let f64_lengths: Vec<f64> = (0..64).map(|_| rng.range_f64(1e-30, 1.0)).collect();
    let xf_lengths: Vec<Xf64> = f64_lengths.iter().map(|&v| Xf64::from_f64(v)).collect();
    let mut g = c.benchmark_group("ablation_numerics");
    g.bench_function("path_sum_f64", |b| b.iter(|| black_box(f64_lengths.iter().sum::<f64>())));
    g.bench_function("path_sum_xf64", |b| {
        b.iter(|| black_box(xf_lengths.iter().fold(Xf64::ZERO, |acc, &x| acc + x)))
    });
    g.finish();
}

fn bench_tree_packing(c: &mut Criterion) {
    use omcf_topology::canned;
    use omcf_treepack::{pack_greedy, strength_exact};
    let g = canned::complete(8, 3.0);
    let mut grp = c.benchmark_group("treepack");
    grp.bench_function("greedy_k8", |b| b.iter(|| black_box(pack_greedy(&g).value())));
    grp.bench_function("strength_exact_k8", |b| b.iter(|| black_box(strength_exact(&g))));
    grp.finish();
}

criterion_group!(
    benches,
    bench_topology_generation,
    bench_dijkstra,
    bench_oracle,
    bench_numerics,
    bench_tree_packing,
);
criterion_main!(benches);
