//! Max-min completion of the concurrent flow (§III-D semantics).
//!
//! `MaxConcurrentFlow` guarantees every session `f* · dem(i)`, but its
//! literal Table III output routes (nearly) demand-proportional rates and
//! leaves capacity unused wherever the bottleneck sessions cannot reach.
//! The paper's own Table IV reports *unequal* rates for equal demands
//! (131.77 vs 98.07) and explains why: "further lowering the rate of
//! session 1 does not help increasing the rate of session 2" — i.e. after
//! the concurrent guarantee, sessions with slack take the residual
//! capacity. That is weighted max-min fairness in the usual
//! "water-filling" sense.
//!
//! [`max_concurrent_flow_maxmin`] reproduces it with a two-stage
//! composition: run `MaxConcurrentFlow`, subtract its (scaled, feasible)
//! usage from the capacities, run `MaxFlow` on the residual network with
//! the same oracle, and merge. The first stage fixes the guaranteed
//! floor; the second never lowers any session, so the floor — and the
//! fairness objective — is preserved.

use crate::m1::max_flow;
use crate::m2::{max_concurrent_flow, McfOutcome};
use crate::ratio::ApproxParams;
use crate::solution::summarize;
use omcf_overlay::TreeOracle;
use omcf_topology::{Graph, GraphBuilder};

/// Smallest residual capacity we keep an edge at: a saturated link must
/// remain in the graph (paths may not be recomputed around it under fixed
/// routing) but should accept essentially no further flow.
const RESIDUAL_FLOOR: f64 = 1e-7;

/// Builds a copy of `g` with capacities reduced by `used` (clamped to the
/// floor).
fn residual_graph(g: &Graph, used: &[f64]) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for n in g.nodes() {
        let (x, y) = g.position(n);
        b.set_position(n, x, y);
    }
    for (e, u) in g.edge_ids().zip(used) {
        let edge = g.edge(e);
        let rem = (edge.capacity - u).max(RESIDUAL_FLOOR * edge.capacity);
        b.add_edge(edge.u, edge.v, rem);
    }
    b.finish()
}

/// `MaxConcurrentFlow` followed by residual `MaxFlow` — the paper's
/// Table IV semantics. The result's `throughput` field still reports the
/// *concurrent* objective `f* = min_i rate_i/dem(i)`; `summary` reflects
/// the completed (max-min) allocation.
#[must_use]
pub fn max_concurrent_flow_maxmin<O: TreeOracle + ?Sized>(
    g: &Graph,
    oracle: &O,
    params: ApproxParams,
) -> McfOutcome {
    let base = max_concurrent_flow(g, oracle, params);
    let used = base.store.edge_flows(g);
    let residual = residual_graph(g, &used);
    let extra = max_flow(&residual, oracle, ApproxParams::from_eps(params.eps));

    let mut store = base.store;
    store.merge(extra.store);
    // Combined feasibility on the original capacities (floor slack only).
    store.assert_feasible(g, 1e-6);

    let sessions = oracle.sessions();
    let summary = summarize(&store, sessions, g);
    let throughput = summary
        .session_rates
        .iter()
        .zip(sessions.sessions())
        .map(|(r, s)| r / s.demand)
        .fold(f64::INFINITY, f64::min);
    McfOutcome {
        store,
        summary,
        throughput,
        mst_ops_main: base.mst_ops_main + extra.mst_ops,
        mst_ops_prepass: base.mst_ops_prepass,
        phases: base.phases,
        doublings: base.doublings,
        lambda: base.lambda,
        eps: base.eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{DynamicOracle, FixedIpOracle, Session, SessionSet};
    use omcf_topology::{canned, NodeId};

    /// Asymmetric setting: session 1 has private capacity session 2 cannot
    /// reach; the completion should hand it to session 1 only.
    fn asymmetric() -> (Graph, SessionSet) {
        // Path 0-1-2 (shared corridor) plus a private parallel link 0-2
        // reachable only by routing... simpler: grid with sessions placed
        // so one has a private corner.
        let g = canned::grid(4, 4, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(12)], 1.0), // left column
            Session::new(vec![NodeId(3), NodeId(15)], 1.0), // right column
        ]);
        (g, sessions)
    }

    #[test]
    fn completion_never_lowers_any_session() {
        let (g, sessions) = asymmetric();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let params = ApproxParams::for_m2(0.9);
        let base = max_concurrent_flow(&g, &oracle, params);
        let full = max_concurrent_flow_maxmin(&g, &oracle, params);
        for (b, f) in base.summary.session_rates.iter().zip(&full.summary.session_rates) {
            assert!(f >= &(b - 1e-9), "completion lowered a session: {b} -> {f}");
        }
        assert!(full.summary.overall_throughput >= base.summary.overall_throughput);
        full.store.assert_feasible(&g, 1e-6);
    }

    #[test]
    fn completion_approaches_maxflow_total() {
        // With the residual pass, total throughput should close most of
        // the gap to MaxFlow (the paper's Table IV sits at ~87% of
        // Table II).
        let (g, sessions) = asymmetric();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mf = max_flow(&g, &oracle, ApproxParams::for_m1(0.9));
        let full = max_concurrent_flow_maxmin(&g, &oracle, ApproxParams::for_m2(0.9));
        assert!(
            full.summary.overall_throughput >= 0.75 * mf.summary.overall_throughput,
            "completed MCF {} too far below MaxFlow {}",
            full.summary.overall_throughput,
            mf.summary.overall_throughput
        );
    }

    #[test]
    fn unequal_rates_for_equal_demands_when_capacity_is_asymmetric() {
        // The Table IV phenomenon: disjointly-placed sessions with unequal
        // local capacity end up with unequal rates after completion.
        let mut b = GraphBuilder::new(6);
        // Session A corridor: two parallel 2-hop routes (rich).
        b.add_edge(NodeId(0), NodeId(1), 10.0);
        b.add_edge(NodeId(1), NodeId(2), 10.0);
        b.add_edge(NodeId(0), NodeId(3), 10.0);
        b.add_edge(NodeId(3), NodeId(2), 10.0);
        // Session B corridor: single path (poor).
        b.add_edge(NodeId(2), NodeId(4), 10.0);
        b.add_edge(NodeId(4), NodeId(5), 10.0);
        let g = b.finish();
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(2)], 1.0),
            Session::new(vec![NodeId(2), NodeId(5)], 1.0),
        ]);
        let oracle = omcf_overlay::DynamicOracle::new(&g, &sessions);
        let full = max_concurrent_flow_maxmin(&g, &oracle, ApproxParams::for_m2(0.9));
        let r = &full.summary.session_rates;
        assert!(r[0] > 1.5 * r[1], "session A should absorb its private capacity: {r:?}");
        // The concurrent floor still holds for B.
        assert!(full.throughput >= 0.85 * 10.0, "floor {}", full.throughput);
    }

    #[test]
    fn cache_hits_after_the_prepass_and_results_match_uncached() {
        // Two 8-node rings joined by one bridge, one 2-member session per
        // ring. Every λ pre-pass run is single-session, so it can never hit
        // and trips the cache auto-bypass; the concurrent stage and the
        // residual MaxFlow are runs of their own, where augmenting one
        // ring leaves the other session's fans valid.
        let mut b = GraphBuilder::new(16);
        for base in [0u32, 8] {
            for i in 0..8 {
                b.add_edge(NodeId(base + i), NodeId(base + (i + 1) % 8), 10.0);
            }
        }
        b.add_edge(NodeId(2), NodeId(10), 10.0);
        let g = b.finish();
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(4)], 1.0),
            Session::new(vec![NodeId(8), NodeId(12)], 1.0),
        ]);
        let params = ApproxParams::for_m2(0.5);
        let cached = DynamicOracle::new(&g, &sessions);
        let out = max_concurrent_flow_maxmin(&g, &cached, params);
        let stats = cached.cache_stats();
        assert!(
            stats.hits > 0,
            "a pre-pass trip must not disable the cache for later runs: {stats:?}"
        );
        let uncached = DynamicOracle::uncached(&g, &sessions);
        let reference = max_concurrent_flow_maxmin(&g, &uncached, params);
        assert_eq!(out.throughput.to_bits(), reference.throughput.to_bits());
    }
}
