//! Live churn: a long-running session runtime absorbing joins, leaves and
//! a link upgrade, with periodic drift checks against the batch optimum.
//!
//! This is the production shape of the paper's Table VI algorithm: one
//! warm runtime instead of a batch re-solve per change. Departures roll
//! the departed session's length contributions back *exactly* (state is
//! bit-identical to a run that never admitted it), a mid-stream capacity
//! upgrade re-derives only the affected links, and `Reoptimize`
//! checkpoints quantify how far the pinned greedy trees have drifted
//! from what an omniscient batch solver would do. At the end, the whole
//! runtime is snapshotted to a versioned binary blob and restored
//! bit-for-bit.
//!
//! ```sh
//! cargo run --release --example live_churn
//! ```

use overlay_mcf::prelude::*;
use overlay_mcf::topology::waxman::{self, WaxmanParams};

fn main() {
    let mut rng = Xoshiro256pp::new(47);
    let params = WaxmanParams { n: 60, capacity: 100.0, ..WaxmanParams::default() };
    let graph = waxman::generate(&params, &mut rng);

    let mut rt = Runtime::new(graph.clone(), RuntimeConfig::new(25.0, RoutingMode::FixedIp));
    let reopt = Reoptimizer::default();

    // A day in the life: sessions of 3-5 members come and go.
    let mut live = Vec::new();
    println!(
        "{:>5} {:>6} {:>7} {:>10} {:>10} {:>8}",
        "step", "event", "live", "congestion", "batch", "drift"
    );
    for step in 0..24u64 {
        let event = if live.len() >= 2 && rng.next_f64() < 0.35 {
            let idx = live.remove(rng.index(live.len()));
            assert!(rt.leave(idx));
            "leave"
        } else {
            let size = 3 + rng.index(3);
            let members: Vec<NodeId> = rng
                .sample_indices(graph.node_count(), size)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            live.push(rt.join(Session::new(members, 1.0)));
            "join"
        };
        if step == 11 {
            // Mid-stream link upgrade: double the capacity of the five
            // most congested links (a hotspot rescale).
            let mut ranked: Vec<(usize, f64)> = rt.load().iter().copied().enumerate().collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let factors: Vec<(EdgeId, f64)> =
                ranked.iter().take(5).map(|&(e, _)| (EdgeId(e as u32), 2.0)).collect();
            rt.rescale_capacities(&factors);
            println!(
                "{step:>5} {:>6} {:>7} {:>10} {:>10} {:>8}",
                "rescale",
                rt.live_count(),
                "-",
                "-",
                "-"
            );
        }
        if step % 6 == 5 {
            let sample = reopt.evaluate_one(&rt.checkpoint(), rt.routing(), rt.rho());
            println!(
                "{step:>5} {event:>6} {:>7} {:>10.4} {:>10.4} {:>8.3}",
                rt.live_count(),
                sample.runtime_congestion,
                sample.batch_congestion,
                sample.drift
            );
        } else {
            println!(
                "{step:>5} {event:>6} {:>7} {:>10.4} {:>10} {:>8}",
                rt.live_count(),
                rt.max_load(),
                "-",
                "-"
            );
        }
    }

    // Persist and restore: the snapshot is bit-exact, so a restored
    // runtime re-serializes to the identical blob.
    let snap = rt.snapshot_v2();
    let restored = Runtime::restore_v2(&snap).expect("snapshot restores");
    assert_eq!(restored.snapshot_v2(), snap);
    let rates = rt.rates();
    let total: f64 = rates.iter().map(|&(_, r)| r).sum();
    println!("\nsnapshot: {} bytes, version-gated, restored bit-identically", snap.len());
    println!(
        "final population: {} live sessions, {:.2} aggregate demand-capped rate, max congestion {:.4}",
        rt.live_count(),
        total,
        rt.max_load()
    );
}
