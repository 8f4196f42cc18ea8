//! The minimum overlay spanning tree oracle.
//!
//! Both FPTAS algorithms and the online algorithm are parameterized over a
//! [`TreeOracle`]: given live per-physical-edge lengths, return the
//! minimum-length overlay spanning tree of one session. Two implementations
//! mirror the paper's two routing regimes (§II vs §V).
//!
//! ## Epoch-aware caching
//!
//! The solver engine (`omcf-core::engine`) passes a [`LengthView`] carrying
//! an [`EdgeEpochs`](crate::epoch::EdgeEpochs) touch clock alongside the
//! lengths. Because the engine
//! only ever *grows* lengths, an oracle may keep its last answer and serve
//! it again whenever no edge its cached routes traverse has been touched
//! since — the cached answer is provably the one a fresh computation would
//! produce (see `docs/ENGINE.md`). [`DynamicOracle`] caches per session
//! *member*: one shortest-path fan (distances + paths to the other members)
//! per source, recomputing only the sources whose routes crossed a touched
//! edge. [`FixedIpOracle`]'s routes are frozen, so it caches the finished
//! tree per session and revalidates against the session's covered edge set.
//! Plain [`TreeOracle::min_tree`] calls (no epochs) always recompute.

use crate::epoch::LengthView;
use crate::session::SessionSet;
use crate::tree::{OverlayHop, OverlayTree};
use omcf_routing::{fan_width, run_fan_chunks_with, FixedRoutes, Path, QueueKind, WorkspacePool};
use omcf_telemetry::{stats, OwnedCounter};
use omcf_topology::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Baseline for the cache auto-bypass: consecutive epoch-path misses
/// (with zero hits so far in the engine run) after which an oracle stops
/// probing its cache for the rest of that run. On runs where hits are
/// structurally impossible — a near-tree graph where every augmentation
/// touches every session's fan, or one of M2's single-session λ pre-pass
/// runs, where every augmentation touches the session's own fan — the
/// probe-and-maintain overhead is pure loss; once the threshold is reached
/// without a single hit the oracle routes the run's remaining epoch-backed
/// queries straight to the fresh-compute path. The first query round is
/// cold by construction (hits are only possible from the second round
/// onward), so each oracle's effective threshold is the larger of this
/// constant and **twice its total cacheable-entry count** — a large
/// instance cannot trip the gauge before its caches had a full round to
/// prove themselves. The gauge is scoped to one run, keyed on
/// [`EdgeEpochs::run_id`](crate::epoch::EdgeEpochs::run_id) like the cache
/// entries: any hit before the threshold disarms it for the rest of the
/// run, and the first query of the next run starts it over — unless runs
/// interleave on the oracle, after which it spans runs (see
/// `BypassGauge::engaged`). Results are unaffected either way: a bypassed
/// query computes exactly what a missed probe would.
const CACHE_BYPASS_MISSES: u64 = 256;

/// Miss-streak tracker backing the cache auto-bypass, scoped to one
/// engine run while runs on the oracle follow one another.
#[derive(Debug)]
struct BypassGauge {
    threshold: u64,
    /// The newest run seen; the streak and flags below belong to it (0 =
    /// none yet; real run ids start at 1).
    run_id: AtomicU64,
    /// Set once a query arrives from a run older than `run_id`: runs
    /// interleave on this oracle, so the gauge stops resetting.
    interleaved: AtomicBool,
    consecutive_misses: AtomicU64,
    tripped: AtomicBool,
    disarmed: AtomicBool,
}

impl BypassGauge {
    /// A gauge for an oracle with `entries` cacheable entries (member fans
    /// for the dynamic oracle, sessions for the fixed one).
    fn sized_for(entries: usize) -> Self {
        Self {
            threshold: CACHE_BYPASS_MISSES.max(2 * entries as u64),
            run_id: AtomicU64::new(0),
            interleaved: AtomicBool::new(false),
            consecutive_misses: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            disarmed: AtomicBool::new(false),
        }
    }

    /// Whether an epoch-backed query of run `run_id` skips the cache. The
    /// first query of a newer run resets the gauge, so a trip only bypasses
    /// the rest of the run that earned it. Run ids rise monotonically, so
    /// a query from an older run means runs interleave on this oracle (a
    /// parallel ratio sweep on a shared oracle). Their run-keyed entries
    /// evict each other there, so the gauge then spans runs and never
    /// resets again. The plain loads keep the common case read-only.
    fn engaged(&self, run_id: u64) -> bool {
        if !self.interleaved.load(Ordering::Relaxed) {
            let newest = self.run_id.load(Ordering::Relaxed);
            if newest > run_id {
                self.interleaved.store(true, Ordering::Relaxed);
            } else if newest < run_id && self.run_id.fetch_max(run_id, Ordering::Relaxed) < run_id {
                self.consecutive_misses.store(0, Ordering::Relaxed);
                self.tripped.store(false, Ordering::Relaxed);
                self.disarmed.store(false, Ordering::Relaxed);
                return false;
            }
        }
        self.tripped()
    }

    fn on_hit(&self) {
        self.consecutive_misses.store(0, Ordering::Relaxed);
        self.disarmed.store(true, Ordering::Relaxed);
    }

    fn on_miss(&self) {
        let streak = self.consecutive_misses.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.threshold && !self.disarmed.load(Ordering::Relaxed) {
            self.tripped.store(true, Ordering::Relaxed);
        }
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// Total member count across sessions — the dynamic oracle's
/// cacheable-fan count (one cached fan per member).
fn total_fans(sessions: &SessionSet) -> usize {
    sessions.sessions().iter().map(crate::session::Session::size).sum()
}

/// Oracle interface used by the solvers.
pub trait TreeOracle {
    /// Minimum overlay spanning tree of session `session_idx` under
    /// `lengths` (indexed by `EdgeId`). Always computes from scratch.
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree;

    /// Like [`Self::min_tree`], but the view may carry an epoch clock that
    /// allows the oracle to serve exact cached results. The default
    /// implementation ignores the clock and recomputes.
    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        self.min_tree(session_idx, view.lengths)
    }

    /// Batched form of [`Self::min_tree_view`]: one tree per entry of
    /// `session_ids`, in order, all under the same view — the engine
    /// queries whole schedule rounds through this entry point. Results
    /// and cache accounting are identical to calling
    /// [`Self::min_tree_view`] once per id (which is exactly what this
    /// default does); implementations may batch the underlying
    /// shortest-path work across sessions.
    fn min_trees_view(&self, session_ids: &[usize], view: LengthView<'_>) -> Vec<OverlayTree> {
        session_ids.iter().map(|&i| self.min_tree_view(i, view)).collect()
    }

    /// The sessions this oracle serves.
    fn sessions(&self) -> &SessionSet;

    /// Upper bound on the hop length of any unicast route the oracle may
    /// use — the paper's `U`, which parameterizes the FPTAS's δ.
    fn max_route_hops(&self) -> usize;
}

/// Dijkstra-level cache statistics of an epoch-aware oracle: how many
/// per-source (dynamic) or per-session (fixed) recomputations were avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a still-valid cache entry.
    pub hits: u64,
    /// Queries that had to recompute (including all uncached-path calls).
    pub misses: u64,
}

/// Dense Prim MST over `m` overlay nodes with a weight closure.
/// Deterministic: among equal-weight candidates the lowest-index vertex
/// attaches first. Returns `parent[i]` for `i ≥ 1` in attach order.
/// Degenerate inputs (`m < 2`) have no overlay links: returns no edges.
fn prim_dense(m: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    if m < 2 {
        // A single-member (or empty) overlay has an empty spanning tree;
        // returning early keeps release builds from underflowing `m - 1`.
        return Vec::new();
    }
    let mut in_tree = vec![false; m];
    let mut best = vec![f64::INFINITY; m];
    let mut parent = vec![0usize; m];
    in_tree[0] = true;
    for (j, slot) in best.iter_mut().enumerate().skip(1) {
        *slot = weight(0, j);
    }
    let mut edges = Vec::with_capacity(m - 1);
    for _ in 1..m {
        // Pick the cheapest fringe vertex (lowest index wins ties).
        let mut pick = usize::MAX;
        for j in 0..m {
            if !in_tree[j] && (pick == usize::MAX || best[j] < best[pick]) {
                pick = j;
            }
        }
        assert!(best[pick].is_finite(), "overlay graph must be complete/connected");
        in_tree[pick] = true;
        edges.push((parent[pick], pick));
        for j in 0..m {
            if !in_tree[j] {
                let w = weight(pick, j);
                if w < best[j] {
                    best[j] = w;
                    parent[j] = pick;
                }
            }
        }
    }
    edges
}

/// Cached finished tree of one fixed-routing session.
#[derive(Debug)]
struct FixedCache {
    run_id: u64,
    epoch: u64,
    tree: OverlayTree,
}

#[derive(Debug, Default)]
struct FixedState {
    entries: Vec<Option<FixedCache>>,
}

/// Oracle under **fixed IP routing**: every member pair communicates over
/// its frozen hop-count shortest path; the overlay edge weight is the sum
/// of live lengths along that frozen path.
#[derive(Debug)]
pub struct FixedIpOracle {
    sessions: SessionSet,
    routes: Vec<FixedRoutes>,
    /// Per session: sorted physical edges its routes cover (invalidation
    /// key for the cached tree).
    covered: Vec<Vec<u32>>,
    caching: bool,
    state: Mutex<FixedState>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
}

impl Clone for FixedIpOracle {
    fn clone(&self) -> Self {
        Self {
            sessions: self.sessions.clone(),
            routes: self.routes.clone(),
            covered: self.covered.clone(),
            caching: self.caching,
            state: Mutex::new(FixedState {
                entries: (0..self.sessions.len()).map(|_| None).collect(),
            }),
            hits: OwnedCounter::new(&stats::ORACLE_FIXED_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_FIXED_MISSES),
            bypass: BypassGauge::sized_for(self.sessions.len()),
        }
    }
}

impl FixedIpOracle {
    /// Precomputes the pairwise IP routes of every session.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        let routes: Vec<FixedRoutes> =
            sessions.sessions().iter().map(|s| FixedRoutes::new(g, &s.members)).collect();
        let covered =
            routes.iter().map(|r| r.covered_edges().iter().map(|e| e.0).collect()).collect();
        let state = Mutex::new(FixedState { entries: (0..sessions.len()).map(|_| None).collect() });
        Self {
            sessions: sessions.clone(),
            routes,
            covered,
            caching: true,
            state,
            hits: OwnedCounter::new(&stats::ORACLE_FIXED_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_FIXED_MISSES),
            bypass: BypassGauge::sized_for(sessions.len()),
        }
    }

    /// Like [`Self::new`] but with the per-session tree cache disabled:
    /// every epoch-backed query rebuilds the overlay weight matrix.
    /// Benchmark / verification aid.
    #[must_use]
    pub fn uncached(g: &Graph, sessions: &SessionSet) -> Self {
        Self { caching: false, ..Self::new(g, sessions) }
    }

    /// The frozen routes of session `i`.
    #[must_use]
    pub fn routes(&self, i: usize) -> &FixedRoutes {
        &self.routes[i]
    }

    /// Physical edges covered by at least one session route (the paper's
    /// "52 physical links" statistic in §III-E).
    #[must_use]
    pub fn covered_edges(&self) -> Vec<omcf_topology::EdgeId> {
        let mut all: Vec<omcf_topology::EdgeId> =
            self.routes.iter().flat_map(|r| r.covered_edges()).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Cache hit/miss counts since construction. Thin forwarding shim:
    /// the counts live in telemetry [`OwnedCounter`]s, which also mirror
    /// into the process-wide `oracle.fixed.cache.*` aggregates whenever
    /// telemetry is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// True once the auto-bypass tripped during the most recent engine run:
    /// that run's remaining epoch-backed queries skip the cache probe
    /// because max(256, 2 × sessions) consecutive misses accumulated in it
    /// without a single hit. The next run starts the gauge over, unless
    /// concurrent runs on this oracle interleave; then the gauge, and this
    /// flag, span all of them.
    #[must_use]
    pub fn cache_bypassed(&self) -> bool {
        self.bypass.tripped()
    }

    fn compute_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        let session = self.sessions.session(session_idx);
        let routes = &self.routes[session_idx];
        let members = &session.members;
        let m = members.len();
        // Materialize the m×m overlay weight matrix once (paths are reused
        // by reference afterwards).
        let mut w = vec![0.0f64; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let len = routes.route(members[i], members[j]).length(lengths);
                w[i * m + j] = len;
                w[j * m + i] = len;
            }
        }
        let edges = prim_dense(m, |i, j| w[i * m + j]);
        let hops = edges
            .into_iter()
            .map(|(a, b)| OverlayHop { a, b, path: routes.route(members[a], members[b]).clone() })
            .collect();
        OverlayTree { session: session_idx, hops }
    }
}

impl TreeOracle for FixedIpOracle {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.misses.inc();
        self.compute_tree(session_idx, lengths)
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        let Some(epochs) = view.epochs.filter(|e| self.caching && !self.bypass.engaged(e.run_id()))
        else {
            if view.epochs.is_some() && self.caching {
                stats::ORACLE_BYPASSED.inc();
            }
            return self.min_tree(session_idx, view.lengths);
        };
        // Contended (another solver run shares this oracle, e.g. a rayon
        // ratio sweep): compute lock-free instead of serializing on the
        // cache — the pre-engine baseline cost, never worse.
        let Ok(mut st) = self.state.try_lock() else {
            return self.min_tree(session_idx, view.lengths);
        };
        let valid = st.entries[session_idx].as_ref().is_some_and(|c| {
            c.run_id == epochs.run_id()
                && epochs.none_touched_since(&self.covered[session_idx], c.epoch)
        });
        if valid {
            self.hits.inc();
            self.bypass.on_hit();
            return st.entries[session_idx].as_ref().expect("validated above").tree.clone();
        }
        self.misses.inc();
        self.bypass.on_miss();
        let tree = self.compute_tree(session_idx, view.lengths);
        st.entries[session_idx] = Some(FixedCache {
            run_id: epochs.run_id(),
            epoch: epochs.current(),
            tree: tree.clone(),
        });
        tree
    }

    fn sessions(&self) -> &SessionSet {
        &self.sessions
    }

    fn max_route_hops(&self) -> usize {
        self.routes.iter().map(FixedRoutes::max_route_hops).max().unwrap_or(0)
    }
}

/// One session member's cached shortest-path fan: exactly the member-level
/// data the oracle ever reads back — distances and paths to the member's
/// co-members (indexed by member position) — plus the physical edges those
/// paths traverse (the invalidation key). Storing the extracted fan
/// instead of a whole retained Dijkstra workspace keeps entries compact
/// and lets misses recompute through shared [`BatchDijkstra`] lanes
/// (several stale members per CSR pass) rather than one workspace run per
/// member.
///
/// [`BatchDijkstra`]: omcf_routing::BatchDijkstra
#[derive(Debug, Default)]
struct FanCache {
    /// 0 = never filled (real run ids start at 1).
    run_id: u64,
    epoch: u64,
    fan_edges: Vec<u32>,
    /// `dists[b]` = shortest-path distance to member `b` of the session.
    dists: Vec<f64>,
    /// `paths[b]` = the realizing path (diagonal entry is the trivial
    /// self-path, never used by Prim).
    paths: Vec<Path>,
}

#[derive(Debug, Default)]
struct DynState {
    /// `fans[session][member]`, allocated lazily on first epoch-backed use.
    fans: Vec<Vec<Option<FanCache>>>,
}

impl DynState {
    fn new(sessions: &SessionSet) -> Self {
        Self {
            fans: sessions
                .sessions()
                .iter()
                .map(|s| (0..s.size()).map(|_| None).collect())
                .collect(),
        }
    }
}

/// Oracle under **arbitrary dynamic routing** (§V): overlay edges follow the
/// shortest path under the *current* lengths, recomputed per call via one
/// Dijkstra per session member. Both query paths run their member fans
/// through [`BatchDijkstra`](omcf_routing::BatchDijkstra) engines at the
/// calibrated [`fan_width`] — early-exit source
/// lanes, chunks split across the pool's
/// [`Parallelism`](omcf_numerics::Parallelism) workers —
/// and epoch-backed queries additionally skip the Dijkstra entirely for
/// members whose cached fan avoids every edge touched since it was
/// computed (exact under monotone length growth). The batched
/// [`TreeOracle::min_trees_view`] recomputes stale members of *different*
/// sessions in shared lanes. All results are bit-identical to per-source
/// serial recomputation. All Dijkstras run the CSR core with the oracle's
/// configured [`QueueKind`].
#[derive(Debug)]
pub struct DynamicOracle {
    g: Graph,
    sessions: SessionSet,
    caching: bool,
    state: Mutex<DynState>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
    /// Batch fan engines are leased from here around every query. Oracles
    /// built via [`Self::with_pool`] share the sweep driver's
    /// cross-instance pool; otherwise the oracle owns a private one so
    /// scratch still persists across calls.
    pool: Arc<WorkspacePool>,
    /// Priority-queue discipline of every Dijkstra this oracle runs
    /// (results are discipline-independent; see `docs/PERF.md`).
    queue: QueueKind,
}

impl Clone for DynamicOracle {
    fn clone(&self) -> Self {
        Self {
            g: self.g.clone(),
            sessions: self.sessions.clone(),
            caching: self.caching,
            state: Mutex::new(DynState::new(&self.sessions)),
            hits: OwnedCounter::new(&stats::ORACLE_DYNAMIC_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_DYNAMIC_MISSES),
            bypass: BypassGauge::sized_for(total_fans(&self.sessions)),
            pool: Arc::clone(&self.pool),
            queue: self.queue,
        }
    }
}

impl DynamicOracle {
    fn build(
        g: &Graph,
        sessions: &SessionSet,
        caching: bool,
        pool: Option<Arc<WorkspacePool>>,
    ) -> Self {
        Self {
            g: g.clone(),
            sessions: sessions.clone(),
            caching,
            state: Mutex::new(DynState::new(sessions)),
            hits: OwnedCounter::new(&stats::ORACLE_DYNAMIC_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_DYNAMIC_MISSES),
            bypass: BypassGauge::sized_for(total_fans(sessions)),
            pool: pool.unwrap_or_else(|| Arc::new(WorkspacePool::new())),
            queue: QueueKind::default_kind(),
        }
    }

    /// Selects the priority-queue discipline for this oracle's Dijkstras
    /// (default: binary heap). Every discipline computes bit-identical
    /// trees; pick per `docs/PERF.md` guidance.
    #[must_use]
    pub fn with_queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue = kind;
        self
    }

    /// The oracle's priority-queue discipline.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue
    }

    /// Creates the oracle over a clone of the physical graph, with the
    /// epoch-cached, workspace-reusing query path enabled.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, true, None)
    }

    /// Like [`Self::new`], but batch fan engines are leased from `pool`
    /// (and handed back after every query) instead of a private pool.
    /// Drivers that solve many instances over same-sized graphs (the
    /// scenario sweep) share one pool so the dense Dijkstra buffers are
    /// recycled across cells; the pool's
    /// [`Parallelism`](omcf_numerics::Parallelism) policy also governs how
    /// lane chunks are split across workers.
    #[must_use]
    pub fn with_pool(g: &Graph, sessions: &SessionSet, pool: Arc<WorkspacePool>) -> Self {
        Self::build(g, sessions, true, Some(pool))
    }

    /// Like [`Self::new`] but with the epoch path disabled: every query
    /// recomputes the whole member fan, exactly like the plain
    /// [`TreeOracle::min_tree`] interface. Benchmark / verification
    /// baseline.
    #[must_use]
    pub fn uncached(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, false, None)
    }

    /// Cache hit/miss counts (per member-level Dijkstra) since
    /// construction. Plain-interface queries count as misses. Thin
    /// forwarding shim: the counts live in telemetry [`OwnedCounter`]s,
    /// which also mirror into the process-wide `oracle.dynamic.cache.*`
    /// aggregates whenever telemetry is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// True once the auto-bypass tripped during the most recent engine run
    /// (see [`FixedIpOracle::cache_bypassed`]; here the threshold is
    /// max(256, 2 × total session members), one cacheable fan per member).
    #[must_use]
    pub fn cache_bypassed(&self) -> bool {
        self.bypass.tripped()
    }

    /// The uncached fan computation behind [`TreeOracle::min_tree`] and
    /// every cache-bypassing query path: *all* queried sessions' member
    /// fans run through [`BatchDijkstra`] engines at the calibrated
    /// [`fan_width`] — lanes packed in job order regardless of session
    /// boundaries — then each session's tree is assembled from its own
    /// lanes. One SPT per member under the live lengths (the §V-B
    /// procedure), each lane early-exiting once its session's members are
    /// all settled: Prim only ever reads member-to-member distances, and
    /// settled values are identical to full per-source runs.
    ///
    /// [`BatchDijkstra`]: omcf_routing::BatchDijkstra
    fn min_trees_batched(&self, session_ids: &[usize], lengths: &[f64]) -> Vec<OverlayTree> {
        let mut jobs: Vec<(NodeId, &[NodeId])> = Vec::new();
        for &s in session_ids {
            let members = &self.sessions.session(s).members;
            self.misses.add(members.len() as u64);
            // A single-member (or empty) overlay has an empty spanning
            // tree; no fan to compute.
            if members.len() >= 2 {
                jobs.extend(members.iter().map(|&src| (src, &members[..])));
            }
        }
        let engines = run_fan_chunks_with(
            &self.g,
            &jobs,
            lengths,
            &self.pool,
            self.queue,
            self.pool.parallelism(),
        );
        let width = fan_width(self.g.node_count());
        let lane = |a: usize| (&engines[a / width], a % width);
        let mut base = 0usize;
        let trees = session_ids
            .iter()
            .map(|&s| {
                let members = &self.sessions.session(s).members;
                let m = members.len();
                if m < 2 {
                    return OverlayTree { session: s, hops: Vec::new() };
                }
                let edges = prim_dense(m, |a, b| {
                    let (batch, l) = lane(base + a);
                    batch.dist(l, members[b])
                });
                let hops = edges
                    .into_iter()
                    .map(|(a, b)| {
                        let (batch, l) = lane(base + a);
                        OverlayHop {
                            a,
                            b,
                            path: batch
                                .path_to(l, members[b])
                                .expect("connected graph: member must be reachable"),
                        }
                    })
                    .collect();
                base += m;
                OverlayTree { session: s, hops }
            })
            .collect();
        for batch in engines {
            self.pool.give_back_batch(batch);
        }
        trees
    }
}

impl TreeOracle for DynamicOracle {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.min_trees_batched(std::slice::from_ref(&session_idx), lengths)
            .pop()
            .expect("one tree per queried session")
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        self.min_trees_view(std::slice::from_ref(&session_idx), view)
            .pop()
            .expect("one tree per queried session")
    }

    fn min_trees_view(&self, session_ids: &[usize], view: LengthView<'_>) -> Vec<OverlayTree> {
        let Some(epochs) = view.epochs.filter(|e| self.caching && !self.bypass.engaged(e.run_id()))
        else {
            if view.epochs.is_some() && self.caching {
                stats::ORACLE_BYPASSED.add(session_ids.len() as u64);
            }
            return self.min_trees_batched(session_ids, view.lengths);
        };
        // Contended (another solver run shares this oracle, e.g. a rayon
        // ratio sweep): compute lock-free instead of serializing on the
        // cache — the pre-engine baseline cost, never worse.
        let Ok(mut guard) = self.state.try_lock() else {
            return self.min_trees_batched(session_ids, view.lengths);
        };
        let st = &mut *guard;
        // Probe phase: per session in query order, per member in member
        // order — the exact hit/miss accounting of a sequential
        // `min_tree_view` loop. A repeated session id hits on its second
        // occurrence (the first occurrence's recompute restamps the entry
        // at the current epoch, and nothing can be touched mid-batch).
        let mut scheduled = std::collections::HashSet::new();
        let mut stale: Vec<(usize, usize)> = Vec::new();
        for &s in session_ids {
            for a in 0..self.sessions.session(s).members.len() {
                let valid = st.fans[s][a].as_ref().is_some_and(|c| {
                    c.run_id == epochs.run_id() && epochs.none_touched_since(&c.fan_edges, c.epoch)
                }) || scheduled.contains(&(s, a));
                if valid {
                    self.hits.inc();
                    self.bypass.on_hit();
                } else {
                    self.misses.inc();
                    self.bypass.on_miss();
                    scheduled.insert((s, a));
                    stale.push((s, a));
                }
            }
        }
        // Recompute phase: all stale members — possibly spanning several
        // sessions — in shared batch lanes, each lane early-exiting on its
        // own session's member set.
        if !stale.is_empty() {
            let jobs: Vec<(NodeId, &[NodeId])> = stale
                .iter()
                .map(|&(s, a)| {
                    let members = &self.sessions.session(s).members;
                    (members[a], &members[..])
                })
                .collect();
            let engines = run_fan_chunks_with(
                &self.g,
                &jobs,
                view.lengths,
                &self.pool,
                self.queue,
                self.pool.parallelism(),
            );
            let width = fan_width(self.g.node_count());
            for (idx, &(s, a)) in stale.iter().enumerate() {
                let batch = &engines[idx / width];
                let lane = idx % width;
                let members = &self.sessions.session(s).members;
                let fan = st.fans[s][a].get_or_insert_with(FanCache::default);
                fan.dists.clear();
                fan.paths.clear();
                fan.fan_edges.clear();
                for &t in members {
                    fan.dists.push(batch.dist(lane, t));
                    let reached = batch.path_edges_into(lane, t, &mut fan.fan_edges);
                    assert!(reached, "connected graph: member must be reachable");
                    fan.paths.push(batch.path_to(lane, t).expect("reached above"));
                }
                fan.fan_edges.sort_unstable();
                fan.fan_edges.dedup();
                fan.run_id = epochs.run_id();
                fan.epoch = epochs.current();
            }
            for batch in engines {
                self.pool.give_back_batch(batch);
            }
        }
        // Assembly phase: Prim per queried session over the (now all
        // valid) cached fans.
        session_ids
            .iter()
            .map(|&s| {
                let m = self.sessions.session(s).members.len();
                let fans = &st.fans[s];
                let fan = |a: usize| fans[a].as_ref().expect("filled above");
                let edges = prim_dense(m, |a, b| fan(a).dists[b]);
                let hops = edges
                    .into_iter()
                    .map(|(a, b)| OverlayHop { a, b, path: fan(a).paths[b].clone() })
                    .collect();
                OverlayTree { session: s, hops }
            })
            .collect()
    }

    fn sessions(&self) -> &SessionSet {
        &self.sessions
    }

    fn max_route_hops(&self) -> usize {
        // Dynamic routes can wander: the only safe bound is |V| − 1. The
        // FPTAS only needs an upper bound on route length; looser U costs
        // a constant factor in iteration count, not correctness.
        self.g.node_count() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EdgeEpochs;
    use crate::session::Session;
    use omcf_topology::{canned, NodeId};

    fn unit_lengths(g: &Graph) -> Vec<f64> {
        vec![1.0; g.edge_count()]
    }

    #[test]
    fn fixed_oracle_builds_valid_tree() {
        let g = canned::grid(3, 3, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4), NodeId(8)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let t = oracle.min_tree(0, &unit_lengths(&g));
        t.validate(sessions.session(0), &g);
        assert_eq!(t.session, 0);
        // MST over 0-4 (2 hops), 4-8 (2 hops), 0-8 (4 hops): picks the two
        // 2-hop overlay edges ⇒ total length 4.
        assert_eq!(t.length(&unit_lengths(&g)), 4.0);
    }

    #[test]
    fn fixed_oracle_reacts_to_lengths() {
        // Theta graph, session {0, 4}: single overlay edge, but its fixed
        // route never changes even if lengths change.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let t1 = oracle.min_tree(0, &unit_lengths(&g));
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let t2 = oracle.min_tree(0, &expensive);
        assert_eq!(t1.canonical_key(), t2.canonical_key(), "fixed routes must not change");
    }

    #[test]
    fn dynamic_oracle_reroutes_under_lengths() {
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let t1 = oracle.min_tree(0, &unit_lengths(&g));
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let t2 = oracle.min_tree(0, &expensive);
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "dynamic routing must detour");
        t2.validate(sessions.session(0), &g);
    }

    #[test]
    fn oracles_agree_on_unit_lengths() {
        let g = canned::grid(4, 4, 5.0);
        let sessions = SessionSet::new(vec![Session::new(
            vec![NodeId(0), NodeId(5), NodeId(10), NodeId(15)],
            1.0,
        )]);
        let fixed = FixedIpOracle::new(&g, &sessions);
        let dynamic = DynamicOracle::new(&g, &sessions);
        let lu = unit_lengths(&g);
        let tf = fixed.min_tree(0, &lu);
        let td = dynamic.min_tree(0, &lu);
        assert_eq!(tf.length(&lu), td.length(&lu), "same MST weight on fresh lengths");
    }

    #[test]
    fn min_tree_is_minimal_among_spanning_trees() {
        // Brute force over all 3 spanning trees of a 3-member session.
        let g = canned::ring(6, 1.0);
        let members = vec![NodeId(0), NodeId(2), NodeId(4)];
        let sessions = SessionSet::new(vec![Session::new(members, 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        lengths[0] = 3.0; // perturb
        let t = oracle.min_tree(0, &lengths);
        let tree_len = t.length(&lengths);
        // All spanning trees over 3 nodes: pairs {01,02},{01,12},{02,12}.
        let routes = oracle.routes(0);
        let m = sessions.session(0).members.clone();
        let w = |i: usize, j: usize| routes.route(m[i], m[j]).length(&lengths);
        let candidates = [w(0, 1) + w(0, 2), w(0, 1) + w(1, 2), w(0, 2) + w(1, 2)];
        let best = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((tree_len - best).abs() < 1e-12, "oracle {tree_len} vs brute {best}");
    }

    #[test]
    fn max_route_hops_exposed() {
        let g = canned::path(5, 1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let fixed = FixedIpOracle::new(&g, &sessions);
        assert_eq!(fixed.max_route_hops(), 4);
        let dynamic = DynamicOracle::new(&g, &sessions);
        assert_eq!(dynamic.max_route_hops(), 4);
    }

    #[test]
    fn prim_dense_handles_degenerate_member_counts() {
        assert!(prim_dense(0, |_, _| 1.0).is_empty());
        assert!(prim_dense(1, |_, _| 1.0).is_empty());
        assert_eq!(prim_dense(2, |_, _| 1.0), vec![(0, 1)]);
    }

    #[test]
    fn dynamic_cache_hits_on_untouched_requeries() {
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        let view = LengthView::with_epochs(&lengths, &epochs);
        let t1 = oracle.min_tree_view(0, view);
        let t2 = oracle.min_tree_view(0, view);
        assert_eq!(t1, t2);
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 3, "first query: one Dijkstra per member");
        assert_eq!(stats.hits, 3, "second query: all fans served from cache");
    }

    #[test]
    fn dynamic_cache_invalidates_touched_sources_only() {
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        // Grow the chosen route's edges (monotone update + touch).
        epochs.advance();
        for e in &t1.hops[0].path.edges {
            lengths[e.idx()] *= 100.0;
            epochs.touch(e.idx());
        }
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "grown route must be abandoned");
        // Cross-check against an uncached oracle on identical lengths.
        let reference = DynamicOracle::uncached(&g, &sessions);
        let fresh = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t2, fresh);
    }

    #[test]
    fn fixed_cache_serves_tree_until_covered_edge_touched() {
        let g = canned::grid(3, 3, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4), NodeId(8)], 1.0)]);
        let oracle = FixedIpOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t1, t2);
        assert_eq!(oracle.cache_stats(), CacheStats { hits: 1, misses: 1 });
        // Touch an edge on the cached tree: next query recomputes.
        epochs.advance();
        let e = t1.hops[0].path.edges[0];
        lengths[e.idx()] *= 10.0;
        epochs.touch(e.idx());
        let t3 = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        t3.validate(sessions.session(0), &g);
        assert_eq!(oracle.cache_stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn auto_bypass_trips_on_hitless_miss_streak_without_changing_results() {
        // Theta graph, one 2-member session: every augmentation touches the
        // chosen route, so the fan cache can never hit — the Scenario-A
        // pathology in miniature.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let reference = DynamicOracle::uncached(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        for step in 0..200 {
            let view = LengthView::with_epochs(&lengths, &epochs);
            let t = oracle.min_tree_view(0, view);
            let fresh = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(t, fresh, "bypass must not change results (step {step})");
            // Grow the chosen route (monotone) and stamp the clock.
            epochs.advance();
            for e in t.edge_multiplicities() {
                lengths[e.0.idx()] *= 1.01;
                epochs.touch(e.0.idx());
            }
        }
        // 200 queries × 2 members = 400 misses > threshold, zero hits.
        assert!(oracle.cache_bypassed(), "hitless streak must trip the bypass");
        assert_eq!(oracle.cache_stats().hits, 0);
        // Bypassed queries still count as misses on the plain path.
        assert!(oracle.cache_stats().misses >= super::CACHE_BYPASS_MISSES);
    }

    #[test]
    fn auto_bypass_disarmed_by_an_early_hit() {
        // Re-query without touching anything: the second query hits, which
        // disarms the gauge for the rest of the run no matter how many
        // misses follow.
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        let t = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert!(oracle.cache_stats().hits > 0);
        // Now force a long miss streak by touching the whole graph.
        for _ in 0..200 {
            epochs.advance();
            for (e, len) in lengths.iter_mut().enumerate() {
                *len *= 1.001;
                epochs.touch(e);
            }
            let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        }
        assert!(!oracle.cache_bypassed(), "a hit before the threshold disarms the bypass");
        drop(t);
    }

    #[test]
    fn auto_bypass_threshold_scales_with_instance_size() {
        // 100 sessions × 3 members = 300 fans > 256: the cold first query
        // round alone must NOT trip the gauge — hits only become possible
        // from the second round, and they must still disarm it.
        let g = canned::grid(6, 6, 10.0);
        let sessions = SessionSet::new(
            (0..100)
                .map(|i| {
                    Session::new(
                        vec![NodeId(i % 36), NodeId((i + 7) % 36), NodeId((i + 19) % 36)],
                        1.0,
                    )
                })
                .collect(),
        );
        let oracle = DynamicOracle::new(&g, &sessions);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        for i in 0..sessions.len() {
            let _ = oracle.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
        }
        assert_eq!(oracle.cache_stats().misses, 300, "cold round misses every fan");
        assert!(
            !oracle.cache_bypassed(),
            "the unavoidable cold round must not trip the bypass on a large instance"
        );
        // Second round: untouched clock ⇒ all hits; gauge disarmed for the run.
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert!(oracle.cache_stats().hits >= 3);
        assert!(!oracle.cache_bypassed());
    }

    /// 300 queries of session 0 on `clock`, each followed by lengthening
    /// and touching the tree's edges. On the theta graph with one 2-member
    /// session every query misses (see
    /// `auto_bypass_trips_on_hitless_miss_streak_without_changing_results`).
    fn hitless_streak<O: TreeOracle>(oracle: &O, lengths: &mut [f64], clock: &mut EdgeEpochs) {
        for _ in 0..300 {
            let t = oracle.min_tree_view(0, LengthView::with_epochs(lengths, clock));
            clock.advance();
            for e in t.edge_multiplicities() {
                lengths[e.0.idx()] *= 1.01;
                clock.touch(e.0.idx());
            }
        }
    }

    /// Run 1 on one clock trips the gauge on a hitless streak; run 2, on a
    /// fresh clock and the same oracle, must probe the cache again and hit
    /// when it re-queries an untouched session.
    fn assert_bypass_scoped_to_one_run<O: TreeOracle>(
        g: &Graph,
        oracle: &O,
        bypassed: impl Fn() -> bool,
        stats: impl Fn() -> CacheStats,
    ) {
        let mut lengths = unit_lengths(g);
        let mut run1 = EdgeEpochs::new(g.edge_count());
        hitless_streak(oracle, &mut lengths, &mut run1);
        assert!(bypassed(), "run 1's hitless streak must trip the gauge");
        assert_eq!(stats().hits, 0);
        let run2 = EdgeEpochs::new(g.edge_count());
        let view = LengthView::with_epochs(&lengths, &run2);
        let cold = oracle.min_tree_view(0, view);
        let warm = oracle.min_tree_view(0, view);
        assert_eq!(cold, warm);
        assert!(stats().hits > 0, "run 2 must hit on an untouched re-query");
        assert!(!bypassed(), "run 1's trip must not carry into run 2");
    }

    #[test]
    fn auto_bypass_is_scoped_to_one_run() {
        // Theta graph, one 2-member session: run 1 can never hit (see
        // `auto_bypass_trips_on_hitless_miss_streak_without_changing_results`).
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let dynamic = DynamicOracle::new(&g, &sessions);
        assert_bypass_scoped_to_one_run(
            &g,
            &dynamic,
            || dynamic.cache_bypassed(),
            || dynamic.cache_stats(),
        );
        let fixed = FixedIpOracle::new(&g, &sessions);
        assert_bypass_scoped_to_one_run(
            &g,
            &fixed,
            || fixed.cache_bypassed(),
            || fixed.cache_stats(),
        );
    }

    #[test]
    fn interleaved_runs_stop_resetting_the_gauge() {
        // Two runs in flight on one oracle, as in a parallel ratio sweep on
        // a shared oracle: the newer run trips the gauge, a later query
        // from the older run reads it rather than start it over, and from
        // then on not even a newer run resets it.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let mut lengths = unit_lengths(&g);
        let older = EdgeEpochs::new(g.edge_count());
        let mut newer = EdgeEpochs::new(g.edge_count());
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &older));
        hitless_streak(&oracle, &mut lengths, &mut newer);
        assert!(oracle.cache_bypassed(), "the newer run's hitless streak must trip the gauge");
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &older));
        assert!(oracle.cache_bypassed(), "an older run's query must not reset the gauge");
        let newest = EdgeEpochs::new(g.edge_count());
        let _ = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &newest));
        assert!(oracle.cache_bypassed(), "once runs interleave, a new run must not reset it");
    }

    #[test]
    fn queue_kinds_compute_identical_trees() {
        // The pluggable queues must be invisible in results: same overlay
        // trees from every discipline, on both the batch-fan-out path and
        // the epoch-cached path.
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(6), NodeId(15)], 1.0)]);
        let mut lengths = unit_lengths(&g);
        for (i, l) in lengths.iter_mut().enumerate() {
            *l += (i % 5) as f64 * 0.25;
        }
        let reference = DynamicOracle::new(&g, &sessions);
        let t_ref = reference.min_tree(0, &lengths);
        let epochs = EdgeEpochs::new(g.edge_count());
        let v_ref = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        for kind in QueueKind::ALL {
            let oracle = DynamicOracle::new(&g, &sessions).with_queue_kind(kind);
            assert_eq!(oracle.queue_kind(), kind);
            assert_eq!(oracle.min_tree(0, &lengths), t_ref, "{kind:?} batch path");
            let view = LengthView::with_epochs(&lengths, &epochs);
            assert_eq!(oracle.min_tree_view(0, view), v_ref, "{kind:?} epoch path");
        }
    }

    #[test]
    fn pooled_oracle_recycles_batch_engines() {
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let pool = Arc::new(WorkspacePool::new());
        let epochs = EdgeEpochs::new(g.edge_count());
        let lengths = unit_lengths(&g);
        let oracle = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let t = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        t.validate(sessions.session(0), &g);
        // One engine per fan-width chunk of the 3-member fan.
        let engines = 3usize.div_ceil(omcf_routing::fan_width(g.node_count()));
        assert_eq!(
            pool.idle_batches(),
            engines,
            "the cold query's batch engines are back in the shared pool"
        );
        // The plain path leases the same engines instead of allocating.
        let _ = oracle.min_tree(0, &lengths);
        assert_eq!(pool.idle_batches(), engines, "plain path reuses the pooled engines");
        // A second pooled oracle reuses the pool and computes the same tree.
        let oracle2 = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let reference = DynamicOracle::new(&g, &sessions);
        let t2 = oracle2.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let tr = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t2, tr);
        assert_eq!(pool.idle_batches(), engines);
    }

    #[test]
    fn batched_min_trees_view_matches_sequential_queries_and_counts() {
        // Two oracles over the same instance: one queried through the
        // batched entry point, one through per-session calls. Trees and
        // hit/miss accounting must be identical, across a cold round, a
        // warm round, and a partially-invalidated round.
        let g = canned::grid(4, 4, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
            Session::new(vec![NodeId(1), NodeId(6), NodeId(11), NodeId(14)], 1.0),
        ]);
        let batched = DynamicOracle::new(&g, &sessions);
        let sequential = DynamicOracle::new(&g, &sessions);
        let ids = [0usize, 1, 2];
        let mut lengths = unit_lengths(&g);
        let mut epochs = EdgeEpochs::new(g.edge_count());
        for round in 0..3 {
            let view = LengthView::with_epochs(&lengths, &epochs);
            let trees = batched.min_trees_view(&ids, view);
            let refs: Vec<OverlayTree> =
                ids.iter().map(|&i| sequential.min_tree_view(i, view)).collect();
            assert_eq!(trees, refs, "round {round}");
            assert_eq!(batched.cache_stats(), sequential.cache_stats(), "round {round}");
            // Invalidate session 0's tree edges for the next round.
            epochs.advance();
            for e in trees[0].edge_multiplicities() {
                lengths[e.0.idx()] *= 2.0;
                epochs.touch(e.0.idx());
            }
        }
        assert!(batched.cache_stats().hits > 0, "warm rounds must hit");
    }

    #[test]
    fn stale_run_ids_never_validate() {
        // A cache from one run must not leak into a new run even when the
        // new run's clock has not touched anything.
        let g = canned::theta(1.0);
        let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(4)], 1.0)]);
        let oracle = DynamicOracle::new(&g, &sessions);
        let cheap = unit_lengths(&g);
        let run1 = EdgeEpochs::new(g.edge_count());
        let t1 = oracle.min_tree_view(0, LengthView::with_epochs(&cheap, &run1));
        // New run, completely different lengths, untouched clock.
        let mut expensive = unit_lengths(&g);
        for e in &t1.hops[0].path.edges {
            expensive[e.idx()] = 100.0;
        }
        let run2 = EdgeEpochs::new(g.edge_count());
        let t2 = oracle.min_tree_view(0, LengthView::with_epochs(&expensive, &run2));
        assert_ne!(t1.canonical_key(), t2.canonical_key(), "run-id check must force recompute");
    }
}
