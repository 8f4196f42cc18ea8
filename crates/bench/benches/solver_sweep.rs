//! Sweep-driver bench: the standard scenario registry × all four
//! solvers, through the `omcf-sim` sweep driver, parallel and serial.
//! Also emits `BENCH_sweep.json` at the workspace root — the
//! unified-schema result grid of a serial run plus wall times — and
//! asserts the parallel CSV is byte-identical to the serial one (the
//! driver's determinism contract). The heavy ≥2k-node scenarios are
//! excluded here (one cell would dominate the whole micro-bench); they
//! run through `repro --micro sweep` in CI and are measured by the
//! `routing_csr` bench at the Dijkstra level.

use criterion::{criterion_group, criterion_main, Criterion};
use omcf_core::solver::SolverKind;
use omcf_core::Parallelism;
use omcf_numerics::jsonfmt;
use omcf_sim::registry;
use omcf_sim::sweep::{run_sweep, SweepConfig, SweepResults};
use omcf_sim::Scale;
use std::hint::black_box;
use std::time::Instant;

const SEEDS: [u64; 2] = [2004, 7];
/// Runs per mode behind `BENCH_sweep.json`'s wall times; medians are
/// reported.
const RUNS: usize = 5;

fn bench_sweep_grid(c: &mut Criterion) {
    let mut grp = c.benchmark_group("solver_sweep/standard_registry_micro");
    grp.sample_size(10);
    let parallel = SweepConfig::standard(Scale::Micro, vec![SEEDS[0]]);
    let serial = parallel.clone().with_parallelism(Parallelism::Serial);
    grp.bench_function("parallel", |b| b.iter(|| black_box(run_sweep(&parallel))));
    grp.bench_function("serial", |b| b.iter(|| black_box(run_sweep(&serial))));
    grp.finish();
}

/// The grid under `cfg` and its wall time in ms.
fn timed_sweep(cfg: &SweepConfig) -> (f64, SweepResults) {
    let start = Instant::now();
    let res = run_sweep(cfg);
    (start.elapsed().as_secs_f64() * 1e3, res)
}

/// Not a throughput bench: runs the grid [`RUNS`] times per mode, the
/// modes alternating so drift of the host lands on both, and writes
/// `BENCH_sweep.json` (sorted keys via `jsonfmt`). The wall times are
/// each mode's median. The records, each cell's `wall_ms` included, are
/// the median serial run's: in a parallel run a cell's time carries the
/// other workers' contention.
fn emit_bench_json(_c: &mut Criterion) {
    let cfg = SweepConfig::standard(Scale::Micro, SEEDS.to_vec());
    let serial_cfg = cfg.clone().with_parallelism(Parallelism::Serial);

    let mut parallel_runs = Vec::with_capacity(RUNS);
    let mut serial_runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let (parallel_ms, parallel) = timed_sweep(&cfg);
        let (serial_ms, serial) = timed_sweep(&serial_cfg);
        assert_eq!(
            parallel.to_csv(),
            serial.to_csv(),
            "parallel sweep output must be byte-identical to serial"
        );
        parallel_runs.push(parallel_ms);
        serial_runs.push((serial_ms, serial));
    }
    parallel_runs.sort_unstable_by(f64::total_cmp);
    serial_runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let parallel_ms = parallel_runs[RUNS / 2];
    let (serial_ms, serial) = (serial_runs[RUNS / 2].0, &serial_runs[RUNS / 2].1);

    let scenarios = registry::standard().len();
    let solvers = SolverKind::ALL.len();
    let records_json = serial.to_json();
    let mut json = jsonfmt::JsonObject::new()
        .text("bench", "solver_sweep")
        .text("scale", "micro")
        .field("seeds", format!("{SEEDS:?}"))
        .field("scenarios", scenarios.to_string())
        .field("solvers", solvers.to_string())
        .field("cells", serial.records.len().to_string())
        .field("parallel_matches_serial", "true")
        .field("wall_ms_parallel", jsonfmt::fixed(parallel_ms, 3))
        .field("wall_ms_serial", jsonfmt::fixed(serial_ms, 3))
        // Gated leniently by scripts/bench_check (see `_speedup` handling
        // there): single-core runners report ~1.0x and must not flake.
        .field("sweep_speedup", jsonfmt::fixed(serial_ms / parallel_ms, 3))
        .field("records", records_json.trim_end())
        .pretty(0);
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("bench solver_sweep: wrote {path}");
    println!(
        "grid {scenarios}x{solvers}x{} = {} cells; median of {RUNS}: parallel {parallel_ms:.1} ms, \
         serial {serial_ms:.1} ms",
        SEEDS.len(),
        serial.records.len(),
    );
}

criterion_group!(benches, bench_sweep_grid, emit_bench_json);
criterion_main!(benches);
