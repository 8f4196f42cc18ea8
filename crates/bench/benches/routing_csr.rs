//! Routing-core bench: CSR struct-of-arrays Dijkstra vs the frozen
//! adjacency-list reference, on the large-scale (≥2k-node) registry
//! substrates. Emits
//! `BENCH_routing.json` at the workspace root — the measured
//! CSR-vs-adjacency speedup the CSR refactor is gated on — and asserts
//! every implementation agrees bit-for-bit before timing it.
//!
//! Lengths mimic a mid-solve FPTAS state: each edge starts at `1/c_e`
//! and carries a random number of multiplicative `(1+ε)` growth steps,
//! so distances are non-uniform.

use criterion::{criterion_group, criterion_main, Criterion};
use omcf_numerics::{jsonfmt, Rng64, Xoshiro256pp};
use omcf_routing::reference::dijkstra_adjacency;
use omcf_routing::{dijkstra, DijkstraWorkspace};
use omcf_sim::registry;
use omcf_sim::Scale;
use omcf_topology::{Graph, NodeId};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 2004;
/// Sources per measurement pass (scattered deterministically).
const SOURCES: usize = 16;
/// Timed repetitions per point; the median is reported. Implementations
/// are timed **interleaved round-robin** (one rep of each per round, see
/// `measure_all`) so slow drift of the host VM — which dwarfs the
/// implementation deltas when each point is measured in its own block —
/// lands evenly on every contender.
const RUNS: usize = 9;

/// FPTAS-flavoured lengths: `1/c_e` grown by 0–40 steps of ×1.1.
fn solver_lengths(g: &Graph, rng: &mut Xoshiro256pp) -> Vec<f64> {
    g.edge_ids()
        .map(|e| {
            let steps = rng.index(40) as i32;
            g.capacity(e).recip() * 1.1f64.powi(steps)
        })
        .collect()
}

fn scattered_sources(g: &Graph, rng: &mut Xoshiro256pp) -> Vec<NodeId> {
    rng.sample_indices(g.node_count(), SOURCES).into_iter().map(|i| NodeId(i as u32)).collect()
}

/// The two large-scale registry substrates, a 16k-node extra-large
/// Waxman (where the working set leaves L2 and the layout matters most),
/// and the paper's Scenario-A graph for small-scale contrast.
fn fixtures() -> Vec<(&'static str, Graph)> {
    let wax = registry::find("waxman-large").expect("registered").instance(SEED, Scale::Micro);
    let ba = registry::find("scale-free-large").expect("registered").instance(SEED, Scale::Micro);
    let small = registry::find("scenario-a").expect("registered").instance(SEED, Scale::Fast);
    let xl_n = 16384;
    let xl_params = omcf_topology::WaxmanParams {
        n: xl_n,
        // Same degree-preserving α rescale as the waxman-large scenario.
        alpha: 0.15 * 100.0 / xl_n as f64,
        capacity: 100.0,
        ..omcf_topology::WaxmanParams::default()
    };
    let xl = omcf_topology::waxman::generate(&xl_params, &mut Xoshiro256pp::new(SEED ^ 0x16384));
    vec![
        ("waxman_large", wax.graph.as_ref().clone()),
        ("scale_free_large", ba.graph.as_ref().clone()),
        ("waxman_xl_16k", xl),
        ("scenario_a_fast", small.graph.as_ref().clone()),
    ]
}

/// Full SSSP from every source through the adjacency-list reference.
fn run_adjacency(g: &Graph, sources: &[NodeId], lengths: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &src in sources {
        let t = dijkstra_adjacency(g, src, lengths);
        acc += t.dist(sources[0]);
    }
    acc
}

/// Full SSSP from every source through one reused CSR workspace.
fn run_csr(g: &Graph, sources: &[NodeId], lengths: &[f64]) -> f64 {
    let mut ws = DijkstraWorkspace::new(g.node_count());
    let mut acc = 0.0;
    for &src in sources {
        ws.run(g, src, lengths);
        acc += ws.dist(sources[0]);
    }
    acc
}

/// A labelled measurement routine.
type Routine<'a> = (&'a str, Box<dyn FnMut() -> f64 + 'a>);

/// Times every labelled routine round-robin — one repetition of each per
/// round, [`RUNS`] rounds after one untimed warmup round — and returns
/// the per-routine median wall-millis, in input order.
fn measure_all(routines: &mut [Routine<'_>]) -> Vec<f64> {
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); routines.len()];
    for (_, f) in routines.iter_mut() {
        black_box(f());
    }
    for _ in 0..RUNS {
        for (i, (_, f)) in routines.iter_mut().enumerate() {
            let start = Instant::now();
            black_box(f());
            times[i].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_unstable_by(f64::total_cmp);
            t[t.len() / 2]
        })
        .collect()
}

fn bench_csr_vs_adjacency(c: &mut Criterion) {
    // Only the waxman-large fixture is timed here; don't pay the other
    // three graphs' construction (the 16k Waxman alone is O(n²) pairs).
    let name = "waxman_large";
    let g = registry::find("waxman-large")
        .expect("registered")
        .instance(SEED, Scale::Micro)
        .graph
        .as_ref()
        .clone();
    let mut rng = Xoshiro256pp::new(SEED ^ 0xC5);
    let lengths = solver_lengths(&g, &mut rng);
    let sources = scattered_sources(&g, &mut rng);
    let mut grp = c.benchmark_group(&format!("routing_csr/{name}"));
    grp.sample_size(10);
    grp.bench_function("adjacency_reference", |b| {
        b.iter(|| black_box(run_adjacency(&g, &sources, &lengths)))
    });
    grp.bench_function("csr_binary", |b| b.iter(|| black_box(run_csr(&g, &sources, &lengths))));
    grp.finish();
}

/// Not a throughput bench: verifies bit-exactness, measures every
/// implementation once per fixture, and writes `BENCH_routing.json`
/// (sorted keys via `jsonfmt`).
fn emit_bench_json(_c: &mut Criterion) {
    let mut fixture_objs: Vec<(String, String)> = Vec::new();
    for (name, g) in fixtures() {
        let mut rng = Xoshiro256pp::new(SEED ^ 0xC5);
        let lengths = solver_lengths(&g, &mut rng);
        let sources = scattered_sources(&g, &mut rng);

        // Bit-exactness gate before any timing: the workspace must
        // reproduce the adjacency reference exactly.
        for &src in &sources {
            let reference = dijkstra_adjacency(&g, src, &lengths);
            let tree = dijkstra(&g, src, &lengths);
            for v in g.nodes() {
                assert_eq!(
                    tree.dist(v).to_bits(),
                    reference.dist(v).to_bits(),
                    "{name}: the CSR workspace diverged from the adjacency reference"
                );
            }
        }

        let (gr, so, le) = (&g, &sources, &lengths);
        let mut routines: Vec<Routine<'_>> = vec![
            ("adjacency", Box::new(|| run_adjacency(gr, so, le))),
            ("binary", Box::new(|| run_csr(gr, so, le))),
        ];
        let medians = measure_all(&mut routines);
        let med = |label: &str| {
            medians[routines.iter().position(|(l, _)| *l == label).expect("labelled routine")]
        };
        let adjacency_ms = med("adjacency");
        let csr_binary_ms = med("binary");
        let obj = jsonfmt::JsonObject::new()
            .field("nodes", g.node_count().to_string())
            .field("edges", g.edge_count().to_string())
            .field("sources", sources.len().to_string())
            .field("adjacency_ms", jsonfmt::fixed(adjacency_ms, 3))
            .field("bit_identical", "true")
            .field("csr_binary_ms", jsonfmt::fixed(csr_binary_ms, 3))
            .field("speedup_csr_vs_adjacency", jsonfmt::fixed(adjacency_ms / csr_binary_ms, 3));
        println!(
            "bench routing_csr: {name} adjacency {adjacency_ms:.1} ms vs csr(binary) \
             {csr_binary_ms:.1} ms ({:.2}x)",
            adjacency_ms / csr_binary_ms,
        );
        fixture_objs.push((name.to_string(), obj.pretty(1)));
    }

    let mut top = jsonfmt::JsonObject::new()
        .text("bench", "routing_csr")
        .field("seed", SEED.to_string())
        .field("sources_per_graph", SOURCES.to_string())
        .field("runs_per_point", RUNS.to_string())
        .text("baseline", "frozen adjacency-list dijkstra (omcf_routing::reference)")
        .text("lengths", "1/c_e grown by 0-40 steps of x1.1 (mid-solve FPTAS profile)");
    for (name, obj) in fixture_objs {
        top = top.field(&name, obj);
    }
    let mut json = top.pretty(0);
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json");
    std::fs::write(path, &json).expect("write BENCH_routing.json");
    println!("bench routing_csr: wrote {path}");
    println!("{json}");
}

criterion_group!(benches, bench_csr_vs_adjacency, emit_bench_json);
criterion_main!(benches);
