//! Exactness of M2's stop test `D = Σ c_e·d_e ≥ 1`.
//!
//! [`Engine::dual_reached_one`] answers "not yet" from a running dual sum
//! whenever that sum provably sits below the threshold, and from the full
//! Neumaier sum otherwise. Every answer must equal the historical test —
//! a from-scratch Neumaier sum over `stored_lengths()` compared with
//! `stored_one()` — because every M2 output bit depends on the step it
//! stops at. These tests check that at every step of hand-driven runs,
//! and at the two places a shortcut could go wrong: inside the guard band
//! just below 1, and across 1 in ulp-sized steps, where a test deciding
//! from the running sum alone drifts away from the full sum.

use omcf_core::ratio::ln_delta_m2;
use omcf_core::{Engine, LengthGrowth, ScaledLengths};
use omcf_numerics::{NeumaierSum, Rng64, Xoshiro256pp};
use omcf_overlay::{
    random_sessions, DynamicOracle, FixedIpOracle, Session, SessionSet, TreeOracle,
};
use omcf_topology::{canned, Graph, NodeId};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

mod common;
use common::random_grid;

/// Serializes the tests: the guard-band test reads process-global
/// telemetry counters that any concurrent stop test would bump.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `D` in stored scale, from scratch: the Neumaier sum M2 always ran.
fn full_sum<O: TreeOracle + ?Sized>(engine: &Engine<'_, O>, g: &Graph) -> f64 {
    let sum: NeumaierSum =
        engine.stored_lengths().iter().zip(g.edge_ids()).map(|(d, e)| d * g.capacity(e)).collect();
    sum.value()
}

/// The historical stop test, from scratch.
fn full_sum_reached_one<O: TreeOracle + ?Sized>(engine: &Engine<'_, O>, g: &Graph) -> bool {
    full_sum(engine, g) >= engine.stored_one()
}

fn full_sums() -> u64 {
    let snap = omcf_telemetry::snapshot();
    snap.counters.iter().find(|c| c.name == "engine.dual.full_sums").map_or(0, |c| c.value)
}

/// Runs M2's loop by hand from M2's initial lengths (`δ/c_e` under the
/// static rescale) until the stop test fires, checking it against the
/// full sum before every step. A step queries one oracle sweep over a
/// random session subset and augments every returned tree, so trees that
/// share an edge grow it twice between two stop tests. Returns the number
/// of steps.
fn drive_checked<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    eps: f64,
    rng: &mut Xoshiro256pp,
) -> u64 {
    let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    let ln_top = ((1.0 + eps) / g.min_capacity()).ln() + 2.0;
    let lengths = ScaledLengths::new(&inv_caps, ln_delta_m2(eps, g.edge_count()), ln_top);
    let mut engine = Engine::new(g, oracle, lengths, LengthGrowth::Fptas { eps });
    let k = oracle.sessions().len();
    let mut steps = 0u64;
    loop {
        let reached = engine.dual_reached_one();
        assert_eq!(
            reached,
            full_sum_reached_one(&engine, g),
            "ε = {eps}: stop test disagrees with the full sum at step {steps}"
        );
        if reached {
            return steps;
        }
        let ids: Vec<usize> = (0..k).filter(|_| rng.index(2) == 0).collect();
        let ids = if ids.is_empty() { vec![rng.index(k)] } else { ids };
        for tree in engine.min_trees(&ids) {
            let c = tree.bottleneck(g) * rng.range_f64(0.25, 1.0);
            engine.augment(tree, c);
        }
        steps += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random grids, both oracles, ε from 0.05 to 0.9: the stop test
    /// equals the from-scratch full sum at every step.
    #[test]
    fn stop_test_agrees_with_a_full_sum_at_every_step(seed in any::<u64>(), eps in 0.05f64..0.9) {
        let _guard = lock();
        let mut rng = Xoshiro256pp::new(seed);
        let g = random_grid(&mut rng);
        let sessions = random_sessions(&g, 2 + rng.index(2), 3, 1.0, &mut rng);
        let fixed = FixedIpOracle::new(&g, &sessions);
        prop_assert!(drive_checked(&g, &fixed, eps, &mut rng) > 0);
        let dynamic = DynamicOracle::new(&g, &sessions);
        prop_assert!(drive_checked(&g, &dynamic, eps, &mut rng) > 0);
    }
}

/// Puts `D` inside the guard band `[1 − 2⁻⁴⁰, 1)`, where the running sum
/// may not answer: the full sum must run there and still say `false`.
/// Then creeps across 1 with the smallest length growth there is
/// (factor `1 + 2⁻⁵²`), whose per-edge terms are below half an ulp of
/// `D`: a running sum would stall while the full sum crosses, so only a
/// test that falls back can stop at exactly the step the full sum does.
#[test]
fn guard_band_falls_back_and_ulp_steps_stop_exactly() {
    let _guard = lock();
    // 64-edge ring, capacity 10, identity scale (stored_one = 1):
    // D starts at 64 · 10 · (1/1280) = 1/2. Session {0, 16} routes on a
    // 16-hop path, so no edge ever carries more than ~4% of D.
    let g = canned::ring(64, 10.0);
    let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(16)], 1.0)]);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let eps = 0.5;
    let lengths = ScaledLengths::raw(&vec![1.0 / 1280.0; g.edge_count()]);
    let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Fptas { eps });
    assert_eq!(engine.stored_one(), 1.0);
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();

    // Routing `a` on a tree of length L raises D by exactly ε·a·L before
    // rounding, so `a = (target − D)/(ε·L)` lands D near `target`.
    let step_to = |engine: &mut Engine<'_, FixedIpOracle>, target: f64| {
        let d = full_sum(engine, &g);
        let tree = engine.min_tree(0);
        let len = tree.length(engine.stored_lengths());
        engine.augment(tree, (target - d) / (eps * len));
    };

    assert!(!engine.dual_reached_one(), "D = 1/2 is below 1");
    assert_eq!(full_sums(), 1, "the first test starts the running sum from a full sum");
    step_to(&mut engine, 0.75);
    assert!(!engine.dual_reached_one());
    assert_eq!(full_sums(), 1, "D = 3/4 is decided by the running sum alone");

    step_to(&mut engine, 1.0 - 2f64.powi(-44));
    let d = full_sum(&engine, &g);
    assert!((1.0 - 2f64.powi(-40)..1.0).contains(&d), "landed outside the guard band: {d}");
    assert!(!engine.dual_reached_one(), "inside the guard band and still below 1");
    assert_eq!(full_sums(), 2, "inside the guard band the full sum must run");

    // Creep: each step multiplies the path's lengths by 1 + 2⁻⁵².
    let tiny = 2f64.powi(-52) * 10.0 / eps;
    let mut steps = 0u32;
    loop {
        let tree = engine.min_tree(0);
        engine.augment(tree, tiny);
        steps += 1;
        let expected = full_sum_reached_one(&engine, &g);
        assert_eq!(engine.dual_reached_one(), expected, "ulp step {steps}: decision moved");
        if expected {
            break;
        }
        assert!(steps < 100_000, "D never reached 1");
    }
    assert!(steps > 1, "the creep must take several steps to mean anything");
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
}
