//! The online algorithm's join/leave core: a long-running system with
//! session joins **and leaves**.
//!
//! The paper motivates the online algorithm with "new sessions may join
//! and existing sessions may terminate over time" (§I) but only evaluates
//! arrivals. [`OnlineSystem`] completes the picture, and it is the one
//! implementation of that loop: [`crate::solver::OnlineSolver`] replays
//! churn traces through it, and `omcf-runtime`'s `Runtime` layers events,
//! checkpoints and snapshots on top of it.
//!
//! The live state is the engine's own [`EngineState`] (lengths at the
//! Table VI initialization `d_e = 1/c_e`, load table, flow store, epoch
//! clock, counters):
//!
//! * [`OnlineSystem::join`] lends it to a short-lived [`Engine`]
//!   (`Engine::resume` → `min_tree` → `augment` → `suspend`) with a fresh
//!   single-session oracle, so an arrival is the batch solver's own
//!   augmentation step: one oracle call, the same float-op sequence.
//! * [`OnlineSystem::leave`] rolls the departed session back *exactly*
//!   through [`EngineState::rollback`]: every edge its tree crossed is
//!   recomputed from the base `1/c_e` by replaying the surviving
//!   sessions' factors in admission order
//!   ([`crate::engine::replay_edge`]). Replaying instead of dividing
//!   matters: `(x·f)/f` is not bit-exact in IEEE-754, while the replayed
//!   product is the identical float-op sequence a run that never admitted
//!   the departed session would have executed, so restored lengths and
//!   loads are bit-identical to that counterfactual trajectory (see
//!   `docs/RUNTIME.md`).
//! * [`OnlineSystem::rescale_capacities`] applies link reconfiguration:
//!   trees stay pinned while the affected edges' base lengths and
//!   per-session charges are re-derived exactly from the new capacities.
//!
//! Rates are assigned as in Table VI: session `i` gets
//! `dem(i)/max(1, l_max^i)` where `l_max^i` is the current maximum
//! congestion along its tree. (Unlike the batch variant we floor the
//! divisor at 1: in a live system a session's rate should not exceed its
//! demand merely because links are idle — idle headroom is future
//! capacity, not extra entitlement. The batch scaling of
//! [`crate::online::online_min_congestion`] is recovered by dividing by
//! `l_max^i` directly, exposed as [`OnlineSystem::saturating_rates`].)

use crate::engine::{Contribution, Engine, EngineState, LengthGrowth};
use crate::lengths::ScaledLengths;
use crate::solver::RoutingMode;
use omcf_overlay::{
    DynamicOracle, FixedIpOracle, OverlayTree, Session, SessionSet, TreeOracle, TreeStore,
};
use omcf_telemetry::stats;
use omcf_topology::{EdgeId, Graph, GraphBuilder};
use std::sync::Arc;

/// One entry of the admission log: a session ever admitted, the tree it
/// was routed on, and whether it is still live. An entry's position in
/// the log is the session's join index. The fields stay private because
/// the rollback charge is derived from the tree and the demand.
#[derive(Clone, Debug)]
pub struct Admitted {
    session: Session,
    tree: OverlayTree,
    alive: bool,
    contribution: Contribution,
}

impl Admitted {
    /// A log entry for `session` routed on `tree`.
    #[must_use]
    pub fn new(session: Session, tree: OverlayTree, alive: bool) -> Self {
        let contribution =
            Contribution { edges: tree.edge_multiplicities(), amount: session.demand };
        Self { session, tree, alive, contribution }
    }

    /// The admitted session.
    #[must_use]
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The tree it was routed on (`tree.session` is the join index).
    #[must_use]
    pub fn tree(&self) -> &OverlayTree {
        &self.tree
    }

    /// Whether the session is still live.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive
    }
}

/// A continuously running overlay network accepting joins and leaves,
/// keyed by join index.
///
/// ```
/// use omcf_core::solver::RoutingMode;
/// use omcf_core::OnlineSystem;
/// use omcf_overlay::Session;
/// use omcf_topology::{canned, NodeId};
///
/// let g = canned::grid(4, 4, 10.0);
/// let mut sys = OnlineSystem::new(g, 25.0, RoutingMode::FixedIp);
/// let a = sys.join(Session::new(vec![NodeId(0), NodeId(15)], 1.0));
/// let before = sys.lengths().to_vec();
/// let b = sys.join(Session::new(vec![NodeId(3), NodeId(12)], 1.0));
/// assert!(sys.leave(b));
/// // b's contribution is rolled back exactly: state is bit-identical to
/// // the moment only `a` was live.
/// assert_eq!(sys.lengths(), before.as_slice());
/// assert_eq!(sys.live_joins(), vec![a]);
/// ```
#[derive(Debug)]
pub struct OnlineSystem {
    graph: Arc<Graph>,
    rho: f64,
    routing: RoutingMode,
    state: EngineState,
    admitted: Vec<Admitted>,
}

impl OnlineSystem {
    /// An empty system with step size `rho` over graph `g`.
    #[must_use]
    pub fn new(g: impl Into<Arc<Graph>>, rho: f64, routing: RoutingMode) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "step size must be positive");
        let graph = g.into();
        let state = EngineState::online(&graph);
        Self { graph, rho, routing, state, admitted: Vec::new() }
    }

    /// Reassembles a system from persisted parts: `state` carries the
    /// lengths, loads and counters, `log` the admission log in join
    /// order. The flow store is rebuilt from the live trees at their
    /// demands, bit-identical to the one the original accumulated (flows
    /// are never mutated in place), and the epoch clock is `state`'s.
    /// The caller validates the parts.
    #[must_use]
    pub fn restore(
        g: impl Into<Arc<Graph>>,
        rho: f64,
        routing: RoutingMode,
        mut state: EngineState,
        log: Vec<Admitted>,
    ) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "step size must be positive");
        state.store = TreeStore::new(0);
        for a in &log {
            state.store.push_session();
            if a.alive {
                state.store.add(a.tree.clone(), a.session.demand);
            }
        }
        Self { graph: g.into(), rho, routing, state, admitted: log }
    }

    /// Admits a session: one oracle query under the live lengths, one
    /// augmentation charging its tree. Returns the session's join index.
    pub fn join(&mut self, session: Session) -> usize {
        let slot = self.state.store.push_session();
        debug_assert_eq!(slot, self.admitted.len(), "store slots track admissions");
        let set = SessionSet::new(vec![session.clone()]);
        let oracle: Box<dyn TreeOracle> = match self.routing {
            RoutingMode::FixedIp => Box::new(FixedIpOracle::new(&self.graph, &set)),
            RoutingMode::Arbitrary => Box::new(DynamicOracle::new(&self.graph, &set)),
        };
        let state = std::mem::replace(&mut self.state, placeholder_state());
        let mut engine = Engine::resume(
            &self.graph,
            oracle.as_ref(),
            LengthGrowth::Online { rho: self.rho },
            state,
        );
        let mut tree = engine.min_tree(0);
        tree.session = slot;
        let edges = engine.augment(tree.clone(), session.demand);
        self.state = engine.suspend();
        let contribution = Contribution { edges, amount: session.demand };
        self.admitted.push(Admitted { session, tree, alive: true, contribution });
        slot
    }

    /// Removes the session admitted as join `join_idx`, rolling its
    /// contribution back exactly. Returns `false` if the index is unknown
    /// or the session already left.
    pub fn leave(&mut self, join_idx: usize) -> bool {
        match self.admitted.get_mut(join_idx) {
            Some(a) if a.alive => a.alive = false,
            _ => return false,
        }
        let departed = &self.admitted[join_idx].contribution;
        let survivors: Vec<&Contribution> =
            self.admitted.iter().filter(|a| a.alive).map(|a| &a.contribution).collect();
        stats::RUNTIME_ROLLBACK_EDGES.add(departed.edges.len() as u64);
        self.state.rollback(&self.graph, self.rho, join_idx, departed, &survivors);
        true
    }

    /// Multiplies each listed edge's capacity by its factor and re-derives
    /// the affected lengths and loads exactly from the new capacities —
    /// live trees stay pinned (sessions are not re-routed mid-flight).
    /// Duplicate edges compose multiplicatively. Because a capacity
    /// increase *shrinks* `1/c_e`, the epoch clock is fully invalidated.
    /// Panics on an edge outside the graph or a non-positive factor.
    pub fn rescale_capacities(&mut self, factors: &[(EdgeId, f64)]) {
        if factors.is_empty() {
            return;
        }
        let mut caps: Vec<f64> = self.graph.edge_ids().map(|e| self.graph.capacity(e)).collect();
        for &(e, f) in factors {
            assert!(f > 0.0 && f.is_finite(), "capacity factor must be positive");
            caps[e.idx()] *= f;
        }
        let mut b = GraphBuilder::new(self.graph.node_count());
        for node in self.graph.nodes() {
            let (x, y) = self.graph.position(node);
            b.set_position(node, x, y);
        }
        for e in self.graph.edge_ids() {
            let edge = self.graph.edge(e);
            b.add_edge(edge.u, edge.v, caps[e.idx()]);
        }
        self.graph = Arc::new(b.finish());

        let mut edges: Vec<EdgeId> = factors.iter().map(|&(e, _)| e).collect();
        edges.sort_unstable();
        edges.dedup();
        let live: Vec<&Contribution> =
            self.admitted.iter().filter(|a| a.alive).map(|a| &a.contribution).collect();
        stats::RUNTIME_ROLLBACK_EDGES.add(edges.len() as u64);
        self.state.replay_edges(&self.graph, self.rho, &edges, &live);
        self.state.epochs.invalidate_all();
    }

    /// Number of live sessions.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live().count()
    }

    /// Join indices of the live sessions, in admission order.
    #[must_use]
    pub fn live_joins(&self) -> Vec<usize> {
        self.live().map(|(i, _)| i).collect()
    }

    /// The admission log: every session ever admitted, in join order.
    #[must_use]
    pub fn admitted(&self) -> &[Admitted] {
        &self.admitted
    }

    /// Capacity-saturating rates `dem / l_max^i` per live session
    /// (Table VI scaling, which can exceed demand on an idle network),
    /// keyed by join index, in admission order.
    #[must_use]
    pub fn saturating_rates(&self) -> Vec<(usize, f64)> {
        self.live()
            .map(|(i, a)| {
                let lm = self.l_max_of(a);
                let rate = if lm > 0.0 { a.session.demand / lm } else { a.session.demand };
                (i, rate)
            })
            .collect()
    }

    /// Demand-capped feasible rates `dem / max(1, l_max^i)` per live
    /// session (a live system grants no more than what was asked).
    #[must_use]
    pub fn rates(&self) -> Vec<(usize, f64)> {
        self.live().map(|(i, a)| (i, a.session.demand / self.l_max_of(a).max(1.0))).collect()
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Admitted)> {
        self.admitted.iter().enumerate().filter(|(_, a)| a.alive)
    }

    fn l_max_of(&self, a: &Admitted) -> f64 {
        a.contribution.edges.iter().map(|&(e, _)| self.state.load[e.idx()]).fold(0.0, f64::max)
    }

    /// The congestion at full demands, `max_e load_e` (0 when idle).
    #[must_use]
    pub fn max_load(&self) -> f64 {
        self.state.load.iter().copied().fold(0.0, f64::max)
    }

    /// The live session's current tree, if it is live.
    #[must_use]
    pub fn tree_of(&self, join_idx: usize) -> Option<&OverlayTree> {
        self.admitted.get(join_idx).filter(|a| a.alive).map(|a| &a.tree)
    }

    /// The feasible scaled allocation of the live population: one store
    /// slot per live session in admission order, each holding its tree at
    /// its saturating rate — the shape the batch online solver reports
    /// for a churn trace's survivors.
    #[must_use]
    pub fn scaled_store(&self) -> TreeStore {
        let rates = self.saturating_rates();
        let mut store = TreeStore::new(rates.len());
        for (slot, &(join_idx, rate)) in rates.iter().enumerate() {
            let mut tree = self.admitted[join_idx].tree.clone();
            tree.session = slot;
            store.add(tree, rate);
        }
        store
    }

    /// Live per-edge lengths.
    #[must_use]
    pub fn lengths(&self) -> &[f64] {
        self.state.lengths.stored()
    }

    /// Live per-edge load (congestion at full demands).
    #[must_use]
    pub fn load(&self) -> &[f64] {
        &self.state.load
    }

    /// The live engine state (lengths, loads, flow store, counters).
    #[must_use]
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// The current physical topology (capacity changes swap the `Arc`).
    #[must_use]
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Online step size ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Routing regime for arrivals.
    #[must_use]
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// Oracle calls so far (one per join).
    #[must_use]
    pub fn mst_ops(&self) -> u64 {
        self.state.mst_ops
    }
}

/// A zero-cost stand-in for the `mem::replace` dance that lends the
/// persistent state to a short-lived [`Engine`] (which takes it by
/// value). Never resumed against a real graph.
fn placeholder_state() -> EngineState {
    EngineState::fresh(ScaledLengths::raw(&[1.0]), 1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::{canned, NodeId};

    fn two_party(a: u32, b: u32) -> Session {
        Session::new(vec![NodeId(a), NodeId(b)], 1.0)
    }

    #[test]
    fn join_then_leave_restores_the_state_bit_exactly() {
        let g = canned::grid(4, 4, 10.0);
        let mut sys = OnlineSystem::new(g, 25.0, RoutingMode::FixedIp);
        let initial = sys.lengths().to_vec();
        let id = sys.join(two_party(0, 15));
        assert_eq!(sys.live_count(), 1);
        assert_ne!(sys.lengths(), initial.as_slice());
        assert!(sys.max_load() > 0.0);
        assert!(sys.leave(id));
        assert_eq!(sys.live_count(), 0);
        for (a, b) in sys.lengths().iter().zip(&initial) {
            assert_eq!(a.to_bits(), b.to_bits(), "length not restored: {a} vs {b}");
        }
        assert!(sys.load().iter().all(|l| *l == 0.0));
    }

    #[test]
    fn unknown_or_second_leave_returns_false() {
        let g = canned::path(3, 1.0);
        let mut sys = OnlineSystem::new(g, 10.0, RoutingMode::FixedIp);
        assert!(!sys.leave(0), "nothing admitted yet");
        let id = sys.join(two_party(0, 2));
        assert!(!sys.leave(id + 1), "unknown join index");
        assert!(sys.leave(id));
        assert!(!sys.leave(id), "second leave must report failure");
    }

    #[test]
    fn scaled_store_of_a_churned_population_is_feasible() {
        let g = canned::grid(5, 5, 5.0);
        let mut sys = OnlineSystem::new(g.clone(), 30.0, RoutingMode::FixedIp);
        let mut ids = Vec::new();
        for round in 0..30u32 {
            let a = round % 25;
            let b = (round * 7 + 3) % 25;
            if a != b {
                ids.push(sys.join(two_party(a, b)));
            }
            if round % 3 == 2 {
                assert!(sys.leave(ids.remove(0)));
            }
        }
        let store = sys.scaled_store();
        store.assert_feasible(&g, 1e-9);
        assert_eq!(store.session_count(), sys.live_count());
        assert_eq!(sys.live_count(), ids.len());
        // All lengths stay positive and finite through churn.
        assert!(sys.lengths().iter().all(|l| *l > 0.0 && l.is_finite()));
    }

    #[test]
    fn departures_free_capacity_for_newcomers() {
        // Theta graph, arbitrary routing: with sessions on all three paths,
        // a newcomer shares; after one leaves, the newcomer's l_max drops.
        let g = canned::theta(4.0);
        let mut sys = OnlineSystem::new(g.clone(), 50.0, RoutingMode::Arbitrary);
        let l_max = |sys: &OnlineSystem, id: usize| {
            let (_, rate) = sys.saturating_rates().into_iter().find(|&(i, _)| i == id).unwrap();
            1.0 / rate
        };
        let a = sys.join(two_party(0, 4));
        let b = sys.join(two_party(0, 4));
        let c = sys.join(two_party(0, 4));
        // Three sessions, three disjoint paths: all have l_max = 1/4.
        for id in [a, b, c] {
            assert!((l_max(&sys, id) - 0.25).abs() < 1e-12);
        }
        let d = sys.join(two_party(0, 4)); // must share a path: l_max doubles
        assert!((l_max(&sys, d) - 0.5).abs() < 1e-12);
        sys.leave(a);
        // d's path may still be shared, but total load dropped.
        assert!(l_max(&sys, d) <= 0.5 + 1e-12);
        let _e = sys.join(two_party(0, 4)); // takes the freed path
        assert_eq!(sys.live_count(), 4);
        sys.scaled_store().assert_feasible(&g, 1e-9);
    }

    #[test]
    fn rates_capped_at_demand() {
        let g = canned::path(3, 100.0);
        let mut sys = OnlineSystem::new(g, 10.0, RoutingMode::FixedIp);
        let id = sys.join(two_party(0, 2));
        let rates = sys.rates();
        assert_eq!(rates, vec![(id, 1.0)], "idle network: rate = demand");
        let sat = sys.saturating_rates();
        assert!((sat[0].1 - 100.0).abs() < 1e-9, "saturating rate fills the link");
    }

    #[test]
    fn capacity_change_rederives_affected_edges_exactly() {
        // A session on a path, then double the capacity of its first edge:
        // load and length on that edge must equal a fresh run against the
        // rescaled graph (same pinned route), bit for bit.
        let g = canned::path(3, 10.0);
        let mut sys = OnlineSystem::new(g, 25.0, RoutingMode::FixedIp);
        let _ = sys.join(two_party(0, 2));
        sys.rescale_capacities(&[(EdgeId(0), 2.0)]);
        assert_eq!(sys.graph().capacity(EdgeId(0)), 20.0);
        assert_eq!(sys.graph().capacity(EdgeId(1)), 10.0);

        let scaled = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(NodeId(0), NodeId(1), 20.0);
            b.add_edge(NodeId(1), NodeId(2), 10.0);
            b.finish()
        };
        let mut fresh = OnlineSystem::new(scaled, 25.0, RoutingMode::FixedIp);
        let _ = fresh.join(two_party(0, 2));
        for (a, b) in sys.lengths().iter().zip(fresh.lengths()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in sys.load().iter().zip(fresh.load()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The untouched edge is now the bottleneck: saturating rate = 10.
        let rates = sys.saturating_rates();
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 10.0).abs() < 1e-9, "rate {}", rates[0].1);
    }
}
