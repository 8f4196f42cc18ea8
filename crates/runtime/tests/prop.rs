//! Property tests for the runtime's core contracts, each checked against
//! an independent reference rather than a second event loop.
//!
//! * **Rollback exactness**: `Join(a..z)` then `Leave(k)` leaves lengths,
//!   loads and store state bit-identical to a fresh run that never
//!   admitted session `k`. The sampled sessions are 2-member fixed-IP
//!   sessions, whose tree (the frozen route between the two members) is
//!   independent of the lengths — so the counterfactual run provably
//!   picks the same trees and the comparison isolates the length/load
//!   bookkeeping, which is exactly what the rollback contract governs
//!   (see `docs/RUNTIME.md` for why later arrivals of *length-dependent*
//!   trees may legitimately route differently in the counterfactual).
//! * **Live state is the fold over the survivors**: through random churn
//!   (multi-member sessions, interleaved leaves, both routing regimes),
//!   every edge's load and length equal the Table VI fold over the live
//!   trees in admission order, written out below, and every join routes
//!   on the tree a fresh single-session oracle picks under the lengths
//!   just before it.
//! * **Arrivals match the batch Table VI run**: on arrival-only traces,
//!   the runtime's trees and saturating rates equal those of
//!   `online_min_congestion` over one shared oracle.
//!
//! The snapshot round trip at a random split point is pinned by
//! `tests/snapshot_v2.rs`.

use omcf_core::online_min_congestion;
use omcf_core::solver::RoutingMode;
use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_overlay::{
    random_churn, ChurnEvent, DynamicOracle, FixedIpOracle, OverlayTree, Session, SessionSet,
    TreeOracle,
};
use omcf_runtime::{Runtime, RuntimeConfig};
use omcf_topology::{canned, Graph, NodeId};
use proptest::prelude::*;

fn grid() -> Graph {
    canned::grid(5, 5, 10.0)
}

/// Distinct random node pair on the 5×5 grid.
fn pair(rng: &mut Xoshiro256pp) -> (u32, u32) {
    let a = rng.index(25) as u32;
    let mut b = rng.index(25) as u32;
    while b == a {
        b = rng.index(25) as u32;
    }
    (a, b)
}

fn routing(arbitrary: bool) -> RoutingMode {
    if arbitrary {
        RoutingMode::Arbitrary
    } else {
        RoutingMode::FixedIp
    }
}

/// The oracle the runtime builds for `sessions` under `routing`.
fn oracle<'a>(
    g: &'a Graph,
    sessions: &'a SessionSet,
    routing: RoutingMode,
) -> Box<dyn TreeOracle + 'a> {
    match routing {
        RoutingMode::FixedIp => Box::new(FixedIpOracle::new(g, sessions)),
        RoutingMode::Arbitrary => Box::new(DynamicOracle::new(g, sessions)),
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// Table VI's state over `live` (demand, tree) pairs in admission order:
/// each edge starts at `load = 0`, `length = 1/c`, and every tree
/// crossing it `n` times applies `load += n·dem/c; length *= 1 + ρ·n·dem/c`.
fn table_vi_fold(g: &Graph, rho: f64, live: &[(f64, &OverlayTree)]) -> (Vec<f64>, Vec<f64>) {
    let mut load = vec![0.0; g.edge_count()];
    let mut length: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
    for &(dem, tree) in live {
        for (e, n) in tree.edge_multiplicities() {
            let add = f64::from(n) * dem / g.capacity(e);
            load[e.idx()] += add;
            length[e.idx()] *= 1.0 + rho * add;
        }
    }
    (load, length)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn join_then_leave_k_matches_run_that_never_admitted_k(
        seed in any::<u64>(),
        joins in 3usize..9,
        leave_pick in 0usize..9,
    ) {
        let g = grid();
        let mut rng = Xoshiro256pp::new(seed);
        let sessions: Vec<Session> = (0..joins)
            .map(|_| {
                let (a, b) = pair(&mut rng);
                Session::new(vec![NodeId(a), NodeId(b)], 1.0 + rng.next_f64())
            })
            .collect();
        let k = leave_pick % joins;

        let cfg = RuntimeConfig::new(25.0, RoutingMode::FixedIp);
        let mut rt = Runtime::new(g.clone(), cfg);
        for s in &sessions {
            rt.join(s.clone());
        }
        prop_assert!(rt.leave(k));

        let mut fresh = Runtime::new(g, cfg);
        for (i, s) in sessions.iter().enumerate() {
            if i != k {
                fresh.join(s.clone());
            }
        }

        assert_bits_eq(rt.lengths(), fresh.lengths(), "lengths");
        assert_bits_eq(rt.load(), fresh.load(), "loads");
        prop_assert_eq!(rt.live_count(), fresh.live_count());
        // Store state: the departed slot is empty; every survivor carries
        // the same flow the counterfactual accumulated.
        let rates: Vec<f64> = rt.saturating_rates().into_iter().map(|(_, r)| r).collect();
        let fresh_rates: Vec<f64> = fresh.saturating_rates().into_iter().map(|(_, r)| r).collect();
        assert_bits_eq(&rates, &fresh_rates, "saturating rates");
        prop_assert_eq!(rt.tree_of(k), None);
        let scaled = rt.scaled_store();
        let fresh_scaled = fresh.scaled_store();
        prop_assert_eq!(scaled.session_count(), fresh_scaled.session_count());
        for i in 0..scaled.session_count() {
            prop_assert_eq!(
                scaled.session_total(i).to_bits(),
                fresh_scaled.session_total(i).to_bits()
            );
        }
    }

    #[test]
    fn live_state_is_the_fold_over_the_survivors(
        seed in any::<u64>(),
        joins in 4usize..12,
        size in 2usize..5,
        demand in 0.5f64..3.0,
        arbitrary in any::<bool>(),
    ) {
        let g = grid();
        let rho = 30.0;
        let routing = routing(arbitrary);
        let churn = random_churn(&g, joins, size, demand, 0.4, &mut Xoshiro256pp::new(seed));
        let mut rt = Runtime::new(g.clone(), RuntimeConfig::new(rho, routing));
        let mut admitted: Vec<(Session, OverlayTree)> = Vec::new();
        let mut alive: Vec<bool> = Vec::new();
        for ev in churn.events() {
            match ev {
                ChurnEvent::Join(s) => {
                    let set = SessionSet::new(vec![s.clone()]);
                    let expected = oracle(&g, &set, routing).min_tree(0, rt.lengths());
                    let idx = rt.join(s.clone());
                    let tree = rt.tree_of(idx).expect("joined session is live").clone();
                    prop_assert_eq!(&tree.hops, &expected.hops);
                    admitted.push((s.clone(), tree));
                    alive.push(true);
                }
                ChurnEvent::Leave(i) => {
                    prop_assert!(rt.leave(*i));
                    alive[*i] = false;
                }
            }
            let live: Vec<(f64, &OverlayTree)> = admitted
                .iter()
                .zip(&alive)
                .filter(|(_, &a)| a)
                .map(|((s, t), _)| (s.demand, t))
                .collect();
            let (load, length) = table_vi_fold(&g, rho, &live);
            assert_bits_eq(rt.load(), &load, "loads");
            assert_bits_eq(rt.lengths(), &length, "lengths");
        }
    }

    #[test]
    fn arrivals_match_the_batch_table_vi_run(
        seed in any::<u64>(),
        joins in 2usize..10,
        arbitrary in any::<bool>(),
    ) {
        let g = grid();
        let rho = 25.0;
        let routing = routing(arbitrary);
        let mut rng = Xoshiro256pp::new(seed);
        let sessions: Vec<Session> = (0..joins)
            .map(|_| {
                let size = 2 + rng.index(3);
                let members =
                    rng.sample_indices(25, size).into_iter().map(|i| NodeId(i as u32)).collect();
                Session::new(members, 0.5 + rng.next_f64())
            })
            .collect();

        let mut rt = Runtime::new(g.clone(), RuntimeConfig::new(rho, routing));
        for s in &sessions {
            rt.join(s.clone());
        }
        let set = SessionSet::new(sessions.clone());
        let out = online_min_congestion(&g, oracle(&g, &set, routing).as_ref(), rho);

        let rates = rt.saturating_rates();
        for (i, s) in sessions.iter().enumerate() {
            let batch = out.store.trees(i).next().expect("one tree per arrival");
            let live = rt.tree_of(i).expect("arrival is live");
            prop_assert_eq!(live.canonical_key(), batch.tree.canonical_key());
            prop_assert_eq!(rates[i].0, i);
            prop_assert_eq!(rates[i].1.to_bits(), (s.demand / out.l_max[i]).to_bits());
        }
    }
}
