//! The `fleet-steady` workload: a closed loop of event batches through a
//! sharded `Fleet`, with periodic snapshots and a final crash recovery.

use crate::report::{Metrics, Ops};
use crate::stats::{histogram_percentile, median, percentile};
use crate::stream::{generate, ShardShape, StreamSpec};
use crate::telemetry::{histogram, Counters};
use omcf_core::solver::RoutingMode;
use omcf_core::Parallelism;
use omcf_runtime::{Event, Fleet, FleetConfig, ShardId};
use omcf_sim::{registry, Scale};
use omcf_topology::Graph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "fleet-steady";

const SHARDS: u64 = 4;

/// Events submitted per `drive`.
const BATCH: usize = 64;

/// Fixed in events, never in seconds: per-event cost grows with the
/// admitted history every shard retains. A multiple of `4 * BATCH`, so
/// snapshots fall on batch boundaries at every quarter.
const SPEC: StreamSpec = StreamSpec {
    events: 384 * 4 * BATCH,
    session_size: 4,
    live_lo: 24,
    live_hi: 40,
    capacity_share: 0.01,
};

/// Setup is repeated at least this often and for at least this long.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Everything a pass needs, built from the seed.
struct Inputs {
    graphs: Vec<Arc<Graph>>,
    cfg: FleetConfig,
    stream: Vec<(ShardId, Event)>,
}

/// Registry seed of shard 0's topology. The topologies do not vary with
/// the benchmark seed: per-event cost follows the topology, and the
/// stream drawn from the seed is long enough to average out the rest.
const TOPOLOGY_SEED: u64 = 2004;

/// Shard `k` serves the topology of registry `churn-dynamic` at paper
/// scale for registry seed `TOPOLOGY_SEED + k`; the stream comes from
/// `seed`.
fn inputs(seed: u64) -> Inputs {
    let spec = registry::find("churn-dynamic").expect("registered");
    let insts: Vec<_> =
        (0..SHARDS).map(|k| spec.instance(TOPOLOGY_SEED + k, Scale::Paper)).collect();
    let rho = insts[0].rho;
    let graphs: Vec<Arc<Graph>> = insts.into_iter().map(|i| i.graph).collect();
    let shapes: Vec<ShardShape> = graphs
        .iter()
        .map(|g| ShardShape { nodes: g.node_count(), edges: g.edge_count() })
        .collect();
    let stream = generate(&SPEC, &shapes, seed);
    let cfg = FleetConfig::new(rho, RoutingMode::Arbitrary).with_parallelism(Parallelism::Serial);
    Inputs { graphs, cfg, stream }
}

fn fleet(inp: &Inputs) -> Fleet {
    let mut fleet = Fleet::new(inp.cfg);
    for g in &inp.graphs {
        fleet.add_shard(Arc::clone(g));
    }
    fleet
}

/// Median set-up time (inputs plus fleet construction) and median input
/// generation time alone.
fn setup_median(seed: u64) -> (f64, f64) {
    let (mut total, mut build) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while total.len() < SETUP_REPS || t0.elapsed() < SETUP_BUDGET {
        let t = Instant::now();
        let inp = inputs(seed);
        let built = t.elapsed();
        black_box(fleet(&inp));
        total.push(t.elapsed().as_secs_f64());
        build.push(built.as_secs_f64());
    }
    (median(&total), median(&build))
}

/// What one pass over the stream measured.
struct Pass {
    wall: Duration,
    submit: Duration,
    drive: Duration,
    /// Drive time per quarter of the stream.
    drive_quarters: [Duration; 4],
    snapshot: Duration,
    recover: Duration,
    drives: u64,
    latencies_ms: Vec<f64>,
    wal_bytes: usize,
    snapshot_bytes: usize,
    replayed: usize,
}

/// Streams every event through a fresh fleet, then recovers a second
/// fleet from the last snapshot plus the WAL and compares it bit for bit.
fn pass(inp: &Inputs, ops: &mut Ops) -> Pass {
    let stream = inp.stream.clone();
    let mut fleet = fleet(inp);
    let quarter = stream.len() / 4;
    let mut p = Pass {
        wall: Duration::ZERO,
        submit: Duration::ZERO,
        drive: Duration::ZERO,
        drive_quarters: [Duration::ZERO; 4],
        snapshot: Duration::ZERO,
        recover: Duration::ZERO,
        drives: 0,
        latencies_ms: Vec::with_capacity(stream.len()),
        wal_bytes: 0,
        snapshot_bytes: 0,
        replayed: 0,
    };
    let mut last_snapshot = Vec::new();
    let mut refused = 0u64;
    let mut stamps = Vec::with_capacity(BATCH);
    let mut events = stream.into_iter();
    let mut done = 0usize;
    let start = Instant::now();
    loop {
        stamps.clear();
        for (shard, ev) in events.by_ref().take(BATCH) {
            let t = Instant::now();
            let admission = fleet.submit(shard, ev);
            p.submit += t.elapsed();
            stamps.push(t);
            refused += u64::from(!admission.is_accepted());
        }
        if stamps.is_empty() {
            break;
        }
        let t = Instant::now();
        let report = fleet.drive();
        let end = Instant::now();
        p.drive += end - t;
        p.drive_quarters[done / quarter] += end - t;
        p.drives += 1;
        done += stamps.len();
        ops.check(report.events_applied == stamps.len() as u64, || {
            format!("drive applied {} of {} events", report.events_applied, stamps.len())
        });
        p.latencies_ms.extend(stamps.iter().map(|&s| (end - s).as_secs_f64() * 1e3));
        if done.is_multiple_of(quarter) && done < quarter * 4 {
            p.wal_bytes += fleet.wal_bytes().len();
            let t = Instant::now();
            last_snapshot = fleet.snapshot();
            p.snapshot += t.elapsed();
        }
    }
    p.wall = start.elapsed();
    p.wal_bytes += fleet.wal_bytes().len();
    p.snapshot_bytes = last_snapshot.len();
    ops.done(done as u64);
    ops.failed += refused;
    if refused > 0 {
        eprintln!("check failed: {refused} submissions deferred or rejected");
    }

    let t = Instant::now();
    let recovered = Fleet::recover(&last_snapshot, fleet.wal_bytes(), inp.cfg);
    p.recover = t.elapsed();
    ops.check(recovered.is_ok(), || format!("recover failed: {:?}", recovered.as_ref().err()));
    if let Ok((back, report)) = recovered {
        p.replayed = report.replayed_events;
        ops.check(report.replayed_events == quarter, || {
            format!("recover replayed {} events, expected {quarter}", report.replayed_events)
        });
        for id in fleet.shard_ids() {
            let bits = |f: &Fleet| -> Vec<(usize, u64)> {
                let rt = f.shard(id).expect("shard exists");
                rt.saturating_rates().into_iter().map(|(i, r)| (i, r.to_bits())).collect()
            };
            let (live, rec) = (bits(&fleet), bits(&back));
            ops.check(live == rec, || format!("{id}: recovered rates differ from the live fleet"));
        }
    }
    p
}

/// Repeats passes for at least `seconds`.
fn passes(inp: &Inputs, seconds: f64, ops: &mut Ops) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(pass(inp, ops));
    }
    out
}

/// The untraced run: end-to-end metrics, each the median over passes.
pub fn run(seed: u64, seconds: f64, ops: &mut Ops, m: &mut Metrics) {
    let (setup_s, _) = setup_median(seed);
    let inp = inputs(seed);
    let ps = passes(&inp, seconds, ops);
    let over = |f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
    m.put("solve_s", over(&|p| p.wall.as_secs_f64()), "s");
    m.put("setup_s", setup_s, "s");
    m.put("events_per_s", over(&|p| p.latencies_ms.len() as f64 / p.wall.as_secs_f64()), "1/s");
    m.put("event_latency_p50_ms", over(&|p| percentile(&p.latencies_ms, 50.0)), "ms");
    m.put("event_latency_p99_ms", over(&|p| percentile(&p.latencies_ms, 99.0)), "ms");
}

/// The traced run: one untraced pass for the overhead base, then one pass
/// with telemetry on.
pub fn trace(seed: u64, ops: &mut Ops, m: &mut Metrics) {
    let (_, build_s) = setup_median(seed);
    let inp = inputs(seed);
    let base = pass(&inp, ops);
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    let p = pass(&inp, ops);
    let counters = Counters::read();
    let p50 = |name: &str| {
        histogram(name)
            .and_then(|h| histogram_percentile(&h.buckets, h.min, h.max, 50.0))
            .unwrap_or(0.0)
    };
    let join = p50("runtime.event.join.us");
    let leave = p50("runtime.event.leave.us");
    let capacity = p50("runtime.event.capacity.us");
    omcf_telemetry::set_enabled(false);

    let events = p.latencies_ms.len() as f64;
    let wall = p.wall.as_secs_f64();
    let attributed = (p.submit + p.drive + p.snapshot).as_secs_f64();
    m.put("runtime.fleet.drive_s", p.drive.as_secs_f64(), "s");
    m.put("runtime.fleet.drive_us_per_event", p.drive.as_secs_f64() * 1e6 / events, "us");
    m.count("runtime.fleet.drives", p.drives);
    let [first, .., last] = p.drive_quarters;
    m.put("runtime.fleet.drive_growth", last.as_secs_f64() / first.as_secs_f64(), "ratio");
    m.put("runtime.fleet.submit_s", p.submit.as_secs_f64(), "s");
    m.put("runtime.fleet.wal_bytes_per_event", p.wal_bytes as f64 / events, "B");
    m.put("runtime.fleet.snapshot_s", p.snapshot.as_secs_f64(), "s");
    m.put("runtime.fleet.snapshot_bytes", p.snapshot_bytes as f64, "B");
    m.put("runtime.fleet.recover_s", p.recover.as_secs_f64(), "s");
    let recover_us = p.recover.as_secs_f64() * 1e6 / p.replayed.max(1) as f64;
    m.put("runtime.fleet.recover_us_per_event", recover_us, "us");
    m.put("runtime.fleet.unattributed_share", 1.0 - attributed / wall, "ratio");
    m.put("runtime.event.join_us_p50", join, "us");
    m.put("runtime.event.leave_us_p50", leave, "us");
    m.put("runtime.event.capacity_us_p50", capacity, "us");
    m.count("runtime.rollback_edges", counters.rollback_edges);
    counters.put_routing(m, 1.0, 0.0);
    counters.put_engine(m, 1.0);
    m.put("sim.instance_build_s", build_s, "s");
    m.put("telemetry.trace_overhead", wall / base.wall.as_secs_f64(), "ratio");
}
