//! The repository benchmark: M2 solves on two large registry cells and a
//! steady-state fleet stream, measured end to end from untraced runs and
//! attributed per layer from a separate traced run. See `README.md`.
//!
//! ```text
//! omcf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod fleet;
mod probe;
mod report;
mod solve;
mod stats;
mod stream;
mod telemetry;

use report::{Metrics, Ops};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] =
    [solve::WAXMAN_LARGE_M2.name, solve::SCALE_FREE_LARGE_M2.name, fleet::NAME];

/// Every per-layer metric, printed by every traced run. A layer a workload
/// does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("overlay.oracle.busy_s", "s"),
    ("overlay.oracle.calls", "count"),
    ("overlay.oracle.trees", "count"),
    ("overlay.oracle.us_per_tree", "us"),
    ("overlay.oracle.prepass_busy_s", "s"),
    ("overlay.oracle.cache_hits", "count"),
    ("overlay.oracle.cache_misses", "count"),
    ("overlay.oracle.hit_ratio", "ratio"),
    ("overlay.oracle.bypassed", "ratio"),
    ("overlay.oracle.build_s", "s"),
    ("routing.dijkstra_runs", "count"),
    ("routing.relaxations", "count"),
    ("routing.heap_pops", "count"),
    ("routing.relaxations_per_tree", "count"),
    ("core.engine.self_s", "s"),
    ("core.engine.solve_s", "s"),
    ("core.engine.mst_ops", "count"),
    ("core.engine.mst_ops_prepass", "count"),
    ("core.engine.iterations", "count"),
    ("core.engine.augments", "count"),
    ("core.engine.augment_edges", "count"),
    ("core.engine.epoch_advances", "count"),
    ("runtime.fleet.drive_s", "s"),
    ("runtime.fleet.drive_us_per_event", "us"),
    ("runtime.fleet.drives", "count"),
    ("runtime.fleet.drive_growth", "ratio"),
    ("runtime.fleet.submit_s", "s"),
    ("runtime.fleet.wal_bytes_per_event", "B"),
    ("runtime.fleet.snapshot_s", "s"),
    ("runtime.fleet.snapshot_bytes", "B"),
    ("runtime.fleet.recover_s", "s"),
    ("runtime.fleet.recover_us_per_event", "us"),
    ("runtime.fleet.unattributed_share", "ratio"),
    ("runtime.event.join_us_p50", "us"),
    ("runtime.event.leave_us_p50", "us"),
    ("runtime.event.capacity_us_p50", "us"),
    ("runtime.rollback_edges", "count"),
    ("sim.instance_build_s", "s"),
    ("telemetry.trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omcf-perfbench: {e}");
            eprintln!(
                "usage: omcf-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every workload runs on one thread. `Parallelism::Serial` alone is not
    // enough: parallel iterators outside an installed pool hand off to the
    // global pool, which sizes itself to the machine unless pinned first.
    let pinned = rayon::ThreadPoolBuilder::new().num_threads(1).build_global().is_ok();
    println!(
        "# workload={} seed={} seconds={} trace={} pool_threads={} pool_pinned={pinned} policy=serial",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
    );

    let mut ops = Ops::default();
    let mut m = Metrics::default();
    match (args.workload.as_str(), args.trace) {
        (fleet::NAME, false) => fleet::run(args.seed, args.seconds, &mut ops, &mut m),
        (fleet::NAME, true) => fleet::trace(args.seed, &mut ops, &mut m),
        (name, trace) => {
            let w = [solve::WAXMAN_LARGE_M2, solve::SCALE_FREE_LARGE_M2]
                .into_iter()
                .find(|w| w.name == name)
                .expect("workload names are validated");
            if trace {
                solve::trace(&w, args.seed, &mut ops, &mut m);
            } else {
                solve::run(&w, args.seed, args.seconds, &mut ops, &mut m);
            }
        }
    }
    if args.trace {
        for name in m.names() {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name} is not a per-layer metric");
        }
        let mut all = Metrics::default();
        for &(name, unit) in PER_LAYER {
            all.put(name, m.get(name).unwrap_or(0.0), unit);
        }
        m = all;
    } else {
        let rss = peak_rss_mb();
        ops.check(rss.is_some(), || "no VmHWM in /proc/self/status".into());
        m.put("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    }
    println!("{}", report::render(&ops, &m));
    ExitCode::SUCCESS
}
