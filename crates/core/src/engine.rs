//! The shared Garg–Könemann length-update engine.
//!
//! All four of the paper's algorithms — `MaxFlow` (Table I), its Fleischer
//! variant, `MaxConcurrentFlow` (Table III) and `Online-MinCongestion`
//! (Table VI) — run the same inner loop: query the minimum overlay
//! spanning tree oracle under live edge lengths, route some amount of
//! flow on the returned tree, and grow the lengths of the edges it uses
//! multiplicatively. [`Engine`] owns that loop's state — the length store,
//! the [`EdgeEpochs`] touch clock that makes oracle caching exact, the
//! accumulating [`TreeStore`], and the `mst_ops`/iteration counters the
//! paper reports — so the solver modules reduce to *policies*: a phase
//! schedule, a normalization, and a termination rule driving the engine.
//!
//! The engine stamps every edge an augmentation touches on the epoch
//! clock, which is what entitles epoch-aware oracles
//! ([`omcf_overlay::DynamicOracle`], [`omcf_overlay::FixedIpOracle`]) to
//! serve cached trees: lengths only ever grow, so an untouched cached
//! route provably remains optimal (see `docs/ENGINE.md`). The clock
//! advances lazily — on the first augmentation after an oracle query,
//! not on every augmentation — so a phase-batched schedule that augments
//! several times between queries invalidates caches once per batch
//! (Fleischer-style phase batching; validity verdicts are identical
//! either way).
//!
//! ```
//! use omcf_core::engine::{Engine, LengthGrowth};
//! use omcf_core::ScaledLengths;
//! use omcf_overlay::{DynamicOracle, Session, SessionSet};
//! use omcf_topology::{canned, NodeId};
//!
//! // One augmentation step of a Table-I-style loop, by hand.
//! let g = canned::theta(10.0);
//! let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
//! let oracle = DynamicOracle::new(&g, &sessions);
//! let lengths = ScaledLengths::raw(&vec![1.0; g.edge_count()]);
//! let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Fptas { eps: 0.1 });
//! let tree = engine.min_tree(0);
//! let c = tree.bottleneck(&g);
//! engine.augment(tree, c);
//! let run = engine.finish();
//! assert_eq!(run.mst_ops, 1);
//! assert_eq!(run.iterations, 1);
//! ```

use crate::lengths::ScaledLengths;
use omcf_overlay::{EdgeEpochs, LengthView, OverlayTree, SessionSet, TreeOracle, TreeStore};
use omcf_telemetry::stats;
use omcf_topology::{EdgeId, Graph};

/// One admitted participant's routed contribution: the deduplicated
/// per-edge multiplicities of its tree (sorted by edge id, as
/// [`Engine::augment`] returns them) plus the amount routed along it.
/// This is the unit of exact rollback: a long-running runtime records one
/// `Contribution` per admission and hands the surviving ones back to
/// [`EngineState::rollback`] when a session departs.
#[derive(Clone, Debug, PartialEq)]
pub struct Contribution {
    /// `(edge, n_e(t))` pairs, sorted by edge id, each edge once.
    pub edges: Vec<(EdgeId, u32)>,
    /// Flow amount routed on the tree (the session demand, for the online
    /// rule).
    pub amount: f64,
}

impl Contribution {
    /// The multiplicity this contribution places on edge `e` (0 if the
    /// tree does not cross it).
    #[must_use]
    pub fn multiplicity(&self, e: EdgeId) -> u32 {
        self.edges.binary_search_by_key(&e, |p| p.0).map_or(0, |k| self.edges[k].1)
    }
}

/// Replays the online exponential-length trajectory of **one edge** from
/// its base value: folds `load += add; length *= 1 + ρ·add` over `adds`
/// in order, exactly the float-op sequence [`Engine::augment`] performs
/// incrementally. Every exact-rollback path in the workspace
/// ([`EngineState::rollback`] for departures, [`EngineState::replay_edges`]
/// for capacity changes) goes through this single function, so an edge
/// recomputed after a departure is bit-identical to one that accumulated
/// only the surviving contributions in the first place.
#[must_use]
pub fn replay_edge(base: f64, rho: f64, adds: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut load = 0.0;
    let mut length = base;
    for add in adds {
        load += add;
        length *= 1.0 + rho * add;
    }
    (load, length)
}

/// How an augmentation grows the lengths of the edges it crosses.
#[derive(Clone, Copy, Debug)]
pub enum LengthGrowth {
    /// FPTAS rule (Tables I/III): `d_e ← d_e · (1 + ε·n_e(t)·c/c_e)`.
    Fptas {
        /// The ε of the approximation schedule.
        eps: f64,
    },
    /// Online rule (Table VI): `d_e ← d_e · (1 + ρ·n_e(t)·dem/c_e)`, with
    /// the per-edge congestion contribution `n_e(t)·dem/c_e` accumulated
    /// into the engine's load table.
    Online {
        /// The step size ρ.
        rho: f64,
    },
}

/// Stop-test guard: the running sum answers "below 1" only under
/// `stored_one · (1 − 2⁻⁴⁰)`, which leaves room for the full sum's own
/// rounding (< 2⁻⁵⁰ relative; see `docs/ENGINE.md`, "Dual objective").
const DUAL_GUARD: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;
/// Relative error charged per rounding step of the running sum (8 ulps'
/// worth of `u = 2⁻⁵³`, ≥ 2× the worst case, so the bound's own rounding
/// cannot make it too small).
const DUAL_REL: f64 = 1.0 / (1u64 << 50) as f64;
/// Absolute error charged per product (`2⁻¹⁰⁷²`: 4× the largest
/// underflow of one product).
const DUAL_TINY: f64 = f64::from_bits(4);
/// Largest edge count the full-sum error bound covers (`n²u² ≤ u/2`);
/// larger graphs keep the full sum at every test.
const DUAL_MAX_EDGES: usize = 1 << 26;

/// The running dual objective `D̂ ≈ Σ c_e·d_e` of one engine run, kept
/// next to an absolute bound `err ≥ |D̂ − D|` on its distance from the
/// exact sum `D` of the current stored lengths. Every length write (one
/// hook, in [`Engine::augment`]) adds `c_e·(d_new − d_old)` to `D̂`, so
/// [`Engine::dual_reached_one`] can answer "not yet" without reading the
/// edge array whenever `D̂ + err` is provably below the threshold.
#[derive(Clone, Copy, Debug)]
struct RunningDual {
    sum: f64,
    err: f64,
}

impl RunningDual {
    /// Starts from a full Neumaier sum `full` over `edges` products,
    /// whose distance from `D` is at most `2⁻⁵⁰·D + n·2⁻¹⁰⁷⁴`; the bound
    /// also reserves `n·2⁻¹⁰⁷³` for the underflow of the next full sum.
    /// `None` above [`DUAL_MAX_EDGES`], where that distance is unproven.
    fn resync(full: f64, edges: usize) -> Option<Self> {
        (edges <= DUAL_MAX_EDGES)
            .then_some(Self { sum: full, err: 2.0 * DUAL_REL * full + edges as f64 * DUAL_TINY })
    }

    /// Folds one length write `old → new` on an edge of capacity `cap`.
    /// The term's two roundings and the addition's one each cost at most
    /// `u` relative (plus one product underflow), charged at `DUAL_REL`.
    fn add_write(&mut self, cap: f64, old: f64, new: f64) {
        let term = cap * (new - old);
        self.sum += term;
        self.err += DUAL_REL * (term.abs() + self.sum.abs()) + DUAL_TINY;
    }
}

/// Everything a finished run hands back to its policy.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Accumulated (unscaled) flow; policies apply their feasibility
    /// scaling.
    pub store: TreeStore,
    /// Final length store (Fleischer's measured divisor reads it).
    pub lengths: ScaledLengths,
    /// Per-edge congestion `l_e` accumulated by [`LengthGrowth::Online`]
    /// augmentations (all zeros under the FPTAS rule).
    pub load: Vec<f64>,
    /// Minimum-overlay-spanning-tree computations performed — the paper's
    /// running-time unit in Tables II/VII.
    pub mst_ops: u64,
    /// Augmentations performed.
    pub iterations: u64,
    /// Best weak-duality bound observed via [`Engine::observe_alpha`]
    /// (`f64::INFINITY` if the policy never reported one).
    pub dual_bound: f64,
}

/// The engine's detachable mutable state: length store, epoch clock,
/// load table, flow store and counters. A solver policy never sees this
/// type — [`Engine::new`] builds one internally and [`Engine::finish`]
/// consumes it — but [`crate::OnlineSystem`], the join/leave core behind
/// both the churn solver and `omcf-runtime`, keeps an `EngineState` alive
/// across joins and leaves, re-attaching it to a short-lived [`Engine`]
/// per join via [`Engine::resume`] / [`Engine::suspend`] (the warm-start
/// hooks) and rolling departures back through [`Self::rollback`].
#[derive(Debug)]
pub struct EngineState {
    /// Live per-edge lengths.
    pub lengths: ScaledLengths,
    /// Touch clock entitling epoch-aware oracles to cache.
    pub epochs: EdgeEpochs,
    /// Per-edge congestion accumulated by [`LengthGrowth::Online`].
    pub load: Vec<f64>,
    /// Accumulated (unscaled) flow.
    pub store: TreeStore,
    /// Oracle invocations so far.
    pub mst_ops: u64,
    /// Augmentations so far.
    pub iterations: u64,
    /// Best weak-duality bound observed.
    pub dual_bound: f64,
}

impl EngineState {
    /// Fresh state for the online rule over `g`: identity-scale lengths at
    /// the Table VI initialization `d_e = 1/c_e`, an empty load table and
    /// an empty zero-session store (grow it with
    /// [`TreeStore::push_session`] as participants join).
    #[must_use]
    pub fn online(g: &Graph) -> Self {
        let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
        Self::fresh(ScaledLengths::raw(&inv_caps), g.edge_count(), 0)
    }

    /// Fresh state with the given length store over `edge_count` edges and
    /// `k` store sessions.
    #[must_use]
    pub fn fresh(lengths: ScaledLengths, edge_count: usize, k: usize) -> Self {
        Self {
            lengths,
            epochs: EdgeEpochs::new(edge_count),
            load: vec![0.0; edge_count],
            store: TreeStore::new(k),
            mst_ops: 0,
            iterations: 0,
            dual_bound: f64::INFINITY,
        }
    }

    /// Exactly reverts session `session`'s departed contribution under the
    /// online rule: every edge the departed tree crossed is recomputed
    /// **from scratch** through [`replay_edge`] — base `1/c_e`, then the
    /// surviving contributions' factors in admission order — rather than
    /// divided out, so the restored lengths and loads are bit-identical to
    /// a trajectory that only ever admitted the survivors with the same
    /// trees (see `docs/RUNTIME.md` for why division cannot achieve this).
    /// The departed session's trees are dropped from the store, and the
    /// epoch clock is fully invalidated: a shrunk length voids the
    /// monotone-growth reasoning that lets untouched cached routes survive,
    /// so every cache entry must revalidate.
    ///
    /// `survivors` must list the live contributions in admission (join)
    /// order and must not include the departed one.
    pub fn rollback(
        &mut self,
        g: &Graph,
        rho: f64,
        session: usize,
        departed: &Contribution,
        survivors: &[&Contribution],
    ) {
        let edges: Vec<EdgeId> = departed.edges.iter().map(|&(e, _)| e).collect();
        self.replay_edges(g, rho, &edges, survivors);
        self.store.clear_session(session);
        self.epochs.invalidate_all();
    }

    /// Recomputes `edges`' loads and lengths from the current capacities
    /// and the live contributions (admission order) — the exact-replay
    /// primitive behind [`Self::rollback`] and behind capacity
    /// reconfiguration, where an edge's base length `1/c_e` and every
    /// `n·dem/c_e` term change while the routed trees stay pinned. Callers
    /// changing capacities must invalidate the epoch clock themselves if
    /// any length can shrink.
    pub fn replay_edges(&mut self, g: &Graph, rho: f64, edges: &[EdgeId], live: &[&Contribution]) {
        for &e in edges {
            let cap = g.capacity(e);
            let adds = live.iter().filter_map(|c| {
                let n = c.multiplicity(e);
                (n > 0).then(|| f64::from(n) * c.amount / cap)
            });
            let (load, length) = replay_edge(1.0 / cap, rho, adds);
            self.load[e.idx()] = load;
            self.lengths.set_edge(e.idx(), length);
        }
    }
}

/// Shared state of one solver run: length store, epoch clock, flow store
/// and counters. Policies drive it through [`Self::min_tree`] /
/// [`Self::augment`] and read lengths through the accessors.
#[derive(Debug)]
pub struct Engine<'a, O: TreeOracle + ?Sized> {
    g: &'a Graph,
    oracle: &'a O,
    growth: LengthGrowth,
    /// Capacity table for the dual objective, materialized on first use:
    /// only the M1/M2 stop-test paths read it, and the per-event
    /// resume/suspend cycle of an online runtime must stay O(1), not pay
    /// an O(E) fill for a table it never touches.
    caps: std::cell::OnceCell<Vec<f64>>,
    /// Lazy epoch-advance latch (phase batching): set by every oracle
    /// query, consumed by the first augmentation after it. Consecutive
    /// augmentations with no query in between then share one epoch, so a
    /// whole batch of length-growth steps invalidates epoch-cached
    /// oracles once instead of once per augmentation. Validity verdicts
    /// are unchanged — an entry cached at query epoch `E` still sees every
    /// later touch stamped `> E` — and schedules that query between every
    /// augmentation (M1/M2/online today) advance exactly as before.
    advance_pending: bool,
    /// The run's running dual objective, started by the first
    /// [`Self::dual_reached_one`] and kept current by every length write
    /// after it. It lives here, not on [`EngineState`]: a state resumed
    /// after a rollback (which may shrink lengths outside any engine)
    /// starts a new run without one.
    dual: Option<RunningDual>,
    state: EngineState,
}

impl<'a, O: TreeOracle + ?Sized> Engine<'a, O> {
    /// Starts a run over `g` with an initialized length store. The engine
    /// allocates a fresh epoch clock, so oracle caches from previous runs
    /// can never leak in.
    #[must_use]
    pub fn new(g: &'a Graph, oracle: &'a O, lengths: ScaledLengths, growth: LengthGrowth) -> Self {
        let state = EngineState::fresh(lengths, g.edge_count(), oracle.sessions().len());
        Self::resume(g, oracle, growth, state)
    }

    /// Re-attaches persistent state from a previous engine — the
    /// warm-start hook. An event-driven runtime holds one [`EngineState`]
    /// across its whole life and wraps it in a fresh `Engine` (typically
    /// with a fresh per-event oracle) for each event it processes; nothing
    /// in the state is reset, so lengths, loads, store and counters carry
    /// over exactly.
    #[must_use]
    pub fn resume(g: &'a Graph, oracle: &'a O, growth: LengthGrowth, state: EngineState) -> Self {
        assert_eq!(state.lengths.stored().len(), g.edge_count(), "length store sized for g");
        assert_eq!(state.load.len(), g.edge_count(), "load table sized for g");
        Self {
            g,
            oracle,
            growth,
            caps: std::cell::OnceCell::new(),
            advance_pending: true,
            dual: None,
            state,
        }
    }

    /// Detaches the persistent state for the next [`Self::resume`] — the
    /// counterpart warm-start hook to [`Self::resume`].
    #[must_use]
    pub fn suspend(self) -> EngineState {
        self.state
    }

    /// The session set served by the run's oracle. The borrow is detached
    /// from the engine (`'a`), so policies can hold it across mutations.
    #[must_use]
    pub fn sessions(&self) -> &'a SessionSet {
        self.oracle.sessions()
    }

    /// The minimum overlay spanning tree of session `i` under the current
    /// lengths, via the epoch-aware oracle path. Counts one `mst_op`.
    pub fn min_tree(&mut self, i: usize) -> OverlayTree {
        self.state.mst_ops += 1;
        stats::ENGINE_ORACLE_CALLS.inc();
        self.advance_pending = true;
        self.oracle.min_tree_view(
            i,
            LengthView::with_epochs(self.state.lengths.stored(), &self.state.epochs),
        )
    }

    /// One oracle sweep: the minimum trees of `session_ids`, in order, all
    /// under the current lengths, issued as a single batched
    /// [`TreeOracle::min_trees_view`] query so the oracle can recompute
    /// stale member fans across sessions in shared fan rounds. Counts
    /// one `mst_op` per session; results and cache accounting are
    /// identical to calling [`Self::min_tree`] per id.
    pub fn min_trees(&mut self, session_ids: &[usize]) -> Vec<OverlayTree> {
        self.state.mst_ops += session_ids.len() as u64;
        stats::ENGINE_ORACLE_CALLS.add(session_ids.len() as u64);
        self.advance_pending = true;
        self.oracle.min_trees_view(
            session_ids,
            LengthView::with_epochs(self.state.lengths.stored(), &self.state.epochs),
        )
    }

    /// One oracle sweep over `session_ids` (via the batched
    /// [`Self::min_trees`]), returning the tree of minimum *normalized*
    /// stored length (`norm(i) · length_i`; the first session wins ties)
    /// together with that length. Counts one `mst_op` per session.
    pub fn best_normalized_tree(
        &mut self,
        session_ids: &[usize],
        norm: impl Fn(usize) -> f64,
    ) -> (f64, OverlayTree) {
        let trees = self.min_trees(session_ids);
        let mut best: Option<(f64, OverlayTree)> = None;
        for (&i, tree) in session_ids.iter().zip(trees) {
            let len_stored = tree.length(self.state.lengths.stored()) * norm(i);
            if best.as_ref().is_none_or(|(b, _)| len_stored < *b) {
                best = Some((len_stored, tree));
            }
        }
        best.expect("nonempty session set")
    }

    /// Routes `amount` units on `tree` and grows the lengths of its edges
    /// under the configured [`LengthGrowth`] rule, advancing the epoch
    /// clock and stamping every touched edge. This is the single
    /// length-update implementation shared by all four solvers. Returns
    /// the tree's per-edge multiplicities for policies that need them
    /// (the online post-pass).
    pub fn augment(&mut self, tree: OverlayTree, amount: f64) -> Vec<(EdgeId, u32)> {
        self.state.iterations += 1;
        stats::ENGINE_AUGMENTS.inc();
        // Phase batching: advance the touch clock only on the first
        // augmentation since the last oracle query (see `advance_pending`).
        if self.advance_pending {
            self.state.epochs.advance();
            self.advance_pending = false;
            stats::ENGINE_EPOCH_ADVANCES.inc();
        }
        let mults = tree.edge_multiplicities();
        stats::ENGINE_AUGMENT_EDGES.add(mults.len() as u64);
        self.state.store.add(tree, amount);
        for &(e, n) in &mults {
            let cap = self.g.capacity(e);
            let factor = match self.growth {
                LengthGrowth::Fptas { eps } => 1.0 + eps * f64::from(n) * amount / cap,
                LengthGrowth::Online { rho } => {
                    let add = f64::from(n) * amount / cap;
                    self.state.load[e.idx()] += add;
                    1.0 + rho * add
                }
            };
            let old = self.state.lengths.stored()[e.idx()];
            self.state.lengths.scale_edge(e.idx(), factor);
            let new = self.state.lengths.stored()[e.idx()];
            if let Some(dual) = &mut self.dual {
                dual.add_write(cap, old, new);
            }
            if matches!(self.growth, LengthGrowth::Online { .. }) {
                assert!(new.is_finite(), "online length overflow; lower rho");
            }
            self.state.epochs.touch(e.idx());
        }
        mults
    }

    /// Reports a normalized minimum tree length `α` (stored scale); the
    /// engine tracks the best weak-duality bound `min D/α` over the run.
    /// Each call pays a full `O(|E|)` dual sum, so policies call it only
    /// in runs whose caller reads the bound.
    pub fn observe_alpha(&mut self, alpha_stored: f64) {
        stats::ENGINE_DUAL_BOUND_SUMS.inc();
        let bound = self.dual_objective_stored() / alpha_stored;
        if bound < self.state.dual_bound {
            self.state.dual_bound = bound;
        }
    }

    /// The dual objective `D = Σ_e c_e·d_e` in stored scale — compare
    /// against [`Self::stored_one`].
    #[must_use]
    pub fn dual_objective_stored(&self) -> f64 {
        let caps =
            self.caps.get_or_init(|| self.g.edge_ids().map(|e| self.g.capacity(e)).collect());
        self.state.lengths.weighted_sum_stored(caps)
    }

    /// The paper's stop test `D ≥ 1`, decided exactly as
    /// `dual_objective_stored() >= stored_one()` would decide it. The
    /// run's running sum answers `false` on its own while `D̂ + err` is
    /// below `stored_one · (1 − 2⁻⁴⁰)`, where the full sum is provably
    /// below 1 too; otherwise the full sum runs, decides, and resyncs
    /// the running sum to its value. Lengths only grow, so in a
    /// Garg–Könemann loop only the last few tests pay `O(|E|)`.
    pub fn dual_reached_one(&mut self) -> bool {
        stats::ENGINE_DUAL_TESTS.inc();
        let one = self.stored_one();
        if let Some(dual) = self.dual {
            if dual.sum + dual.err < one * DUAL_GUARD {
                return false;
            }
        }
        stats::ENGINE_DUAL_FULL_SUMS.inc();
        let full = self.dual_objective_stored();
        self.dual = RunningDual::resync(full, self.g.edge_count());
        full >= one
    }

    /// Stored image of the constant 1 (the stop-test threshold).
    #[must_use]
    pub fn stored_one(&self) -> f64 {
        self.state.lengths.stored_one()
    }

    /// The live stored lengths (for policies computing tree lengths).
    #[must_use]
    pub fn stored_lengths(&self) -> &[f64] {
        self.state.lengths.stored()
    }

    /// `mst_ops` so far.
    #[must_use]
    pub fn mst_ops(&self) -> u64 {
        self.state.mst_ops
    }

    /// Augmentations so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.state.iterations
    }

    /// Ends the run, releasing the accumulated state to the policy.
    #[must_use]
    pub fn finish(self) -> EngineRun {
        EngineRun {
            store: self.state.store,
            lengths: self.state.lengths,
            load: self.state.load,
            mst_ops: self.state.mst_ops,
            iterations: self.state.iterations,
            dual_bound: self.state.dual_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{FixedIpOracle, Session, SessionSet};
    use omcf_topology::{canned, NodeId};

    fn setup() -> (Graph, SessionSet) {
        let g = canned::grid(3, 3, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(8)], 1.0),
            Session::new(vec![NodeId(2), NodeId(6)], 1.0),
        ]);
        (g, sessions)
    }

    #[test]
    fn counts_mst_ops_and_iterations() {
        let (g, sessions) = setup();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let lengths = ScaledLengths::raw(&vec![1.0; g.edge_count()]);
        let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Fptas { eps: 0.1 });
        let (len, tree) = engine.best_normalized_tree(&[0, 1], |_| 1.0);
        assert!(len > 0.0);
        assert_eq!(engine.mst_ops(), 2);
        let c = tree.bottleneck(&g);
        engine.augment(tree, c);
        assert_eq!(engine.iterations(), 1);
        let run = engine.finish();
        assert_eq!(run.mst_ops, 2);
        assert!(run.load.iter().all(|l| *l == 0.0), "FPTAS growth does not track load");
    }

    #[test]
    fn online_growth_accumulates_load() {
        let (g, sessions) = setup();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
        let lengths = ScaledLengths::raw(&inv_caps);
        let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Online { rho: 10.0 });
        let tree = engine.min_tree(0);
        let mults = engine.augment(tree, 5.0);
        assert!(!mults.is_empty());
        let run = engine.finish();
        let loaded: Vec<f64> = run.load.iter().copied().filter(|l| *l > 0.0).collect();
        assert_eq!(loaded.len(), mults.len());
        // 2-member session on unit-multiplicity edges: load = dem/cap.
        assert!(loaded.iter().all(|l| (*l - 0.5).abs() < 1e-12));
    }

    #[test]
    fn length_growth_invalidates_only_touched_routes() {
        let g = canned::grid(3, 3, 10.0);
        // Edge-disjoint single-hop sessions: augmenting one can never
        // invalidate the other's cached tree.
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(1)], 1.0),
            Session::new(vec![NodeId(7), NodeId(8)], 1.0),
        ]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let lengths = ScaledLengths::raw(&vec![1.0; g.edge_count()]);
        let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Fptas { eps: 0.5 });
        // Prime both sessions' caches, then augment only session 0's tree.
        let t0 = engine.min_tree(0);
        let _t1 = engine.min_tree(1);
        engine.augment(t0, 1.0);
        let _ = engine.min_tree(0);
        let _ = engine.min_tree(1);
        let stats = oracle.cache_stats();
        // Session 1's second query is the only hit: its own first query and
        // both of session 0's (initial, then invalidated) must recompute.
        assert_eq!((stats.hits, stats.misses), (1, 3), "unexpected cache behavior: {stats:?}");
    }

    #[test]
    fn suspend_resume_carries_all_state() {
        let (g, sessions) = setup();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let inv_caps: Vec<f64> = g.edge_ids().map(|e| 1.0 / g.capacity(e)).collect();
        let mut engine = Engine::new(
            &g,
            &oracle,
            ScaledLengths::raw(&inv_caps),
            LengthGrowth::Online { rho: 10.0 },
        );
        let tree = engine.min_tree(0);
        engine.augment(tree, 1.0);
        let lengths_before = engine.stored_lengths().to_vec();

        // Detach, re-attach (fresh oracle, as a runtime would), continue.
        let state = engine.suspend();
        let oracle2 = FixedIpOracle::new(&g, &sessions);
        let mut engine = Engine::resume(&g, &oracle2, LengthGrowth::Online { rho: 10.0 }, state);
        assert_eq!(engine.stored_lengths(), lengths_before.as_slice());
        assert_eq!(engine.mst_ops(), 1);
        assert_eq!(engine.iterations(), 1);
        let tree = engine.min_tree(1);
        engine.augment(tree, 1.0);
        let run = engine.finish();
        assert_eq!(run.mst_ops, 2);
        assert_eq!(run.iterations, 2);
        assert!(run.load.iter().any(|l| *l > 0.0));
    }

    #[test]
    fn rollback_restores_counterfactual_state_bit_exactly() {
        // Three single-hop contributions on disjoint edges plus one
        // overlapping one; rolling the overlapper back must leave every
        // edge bit-identical to a state that only admitted the survivors.
        let g = canned::grid(3, 3, 10.0);
        let rho = 25.0;
        let session =
            |a: u32, b: u32| SessionSet::new(vec![Session::new(vec![NodeId(a), NodeId(b)], 1.0)]);
        let arrivals = [session(0, 1), session(0, 1), session(3, 4), session(7, 8)];

        let admit = |state: EngineState, set: &SessionSet, slot: usize| {
            let oracle = FixedIpOracle::new(&g, set);
            let mut engine = Engine::resume(&g, &oracle, LengthGrowth::Online { rho }, state);
            let mut tree = engine.min_tree(0);
            tree.session = slot;
            let edges = engine.augment(tree, 1.0);
            (engine.suspend(), Contribution { edges, amount: 1.0 })
        };

        let mut state = EngineState::online(&g);
        let mut contribs = Vec::new();
        for (slot, set) in arrivals.iter().enumerate() {
            state.store.push_session();
            let (next, c) = admit(state, set, slot);
            state = next;
            contribs.push(c);
        }
        // Roll back arrival 1 (shares its edge with arrival 0).
        let survivors: Vec<&Contribution> = [0usize, 2, 3].iter().map(|&i| &contribs[i]).collect();
        state.rollback(&g, rho, 1, &contribs[1], &survivors);
        assert_eq!(state.store.tree_count(1), 0);
        assert_eq!(state.store.tree_count(0), 1, "survivor flow untouched");

        // Counterfactual run that never admitted arrival 1.
        let mut fresh = EngineState::online(&g);
        for (slot, i) in [0usize, 2, 3].into_iter().enumerate() {
            fresh.store.push_session();
            let (next, _) = admit(fresh, &arrivals[i], slot);
            fresh = next;
        }
        for (a, b) in state.lengths.stored().iter().zip(fresh.lengths.stored()) {
            assert_eq!(a.to_bits(), b.to_bits(), "length not rolled back exactly");
        }
        for (a, b) in state.load.iter().zip(&fresh.load) {
            assert_eq!(a.to_bits(), b.to_bits(), "load not rolled back exactly");
        }
    }

    #[test]
    fn replay_edge_matches_incremental_fold() {
        let adds = [0.25, 0.5, 0.125];
        let rho = 30.0;
        let (mut load, mut len) = (0.0f64, 0.01f64);
        for &a in &adds {
            load += a;
            len *= 1.0 + rho * a;
        }
        let (rl, rlen) = replay_edge(0.01, rho, adds.iter().copied());
        assert_eq!(load.to_bits(), rl.to_bits());
        assert_eq!(len.to_bits(), rlen.to_bits());
    }

    #[test]
    fn observe_alpha_tracks_best_bound() {
        let (g, sessions) = setup();
        let oracle = FixedIpOracle::new(&g, &sessions);
        let lengths = ScaledLengths::raw(&vec![1.0; g.edge_count()]);
        let mut engine = Engine::new(&g, &oracle, lengths, LengthGrowth::Fptas { eps: 0.1 });
        engine.observe_alpha(2.0);
        let first = engine.dual_objective_stored() / 2.0;
        engine.observe_alpha(1.0); // worse (larger) bound: ignored
        let run = engine.finish();
        assert!((run.dual_bound - first).abs() < 1e-12);
    }
}
