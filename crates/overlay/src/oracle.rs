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
//! an [`EdgeEpochs`] touch clock alongside the lengths. Because the engine
//! only ever *grows* lengths, an oracle may keep its last answer and serve
//! it again whenever no edge its cached routes traverse has been touched
//! since — the cached answer is provably the one a fresh computation would
//! produce (see `docs/ENGINE.md`). [`DynamicOracle`] lets Prim decide
//! which Dijkstras run: a member's shortest-path fan (distances and paths
//! to its co-members) is computed only when Prim reads its row, right
//! after the member joins the tree, so the member attached last never
//! runs one. Each fan is cached and served again while none of its paths
//! crossed a touched edge. [`FixedIpOracle`]'s routes are frozen, so it
//! caches the finished tree per session and revalidates against the
//! session's covered edge set.
//! Plain [`TreeOracle::min_tree`] calls (no epochs) always recompute.

use crate::epoch::{EdgeEpochs, LengthView};
use crate::session::SessionSet;
use crate::tree::{OverlayHop, OverlayTree};
use omcf_routing::{run_fan_chunks_with, DijkstraWorkspace, FixedRoutes, Path, WorkspacePool};
use omcf_telemetry::{stats, OwnedCounter};
use omcf_topology::{Graph, NodeId};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Baseline for the cache auto-bypass: consecutive epoch-path misses
/// (with zero hits so far in the engine run) after which an oracle stops
/// probing its cache for the rest of that run. A miss is one fan Prim
/// reads for the dynamic oracle (m − 1 per cold query of an m-member
/// session) and one query for the fixed oracle. On runs where hits are
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
/// [`EdgeEpochs::run_id`] like the cache entries: any hit before the
/// threshold disarms it for the rest of the run, and the first query of
/// the next run starts it over. Results are unaffected either way: a
/// bypassed query computes exactly what a missed probe would.
const CACHE_BYPASS_MISSES: u64 = 256;

/// Miss-streak tracker backing the cache auto-bypass, scoped to one
/// engine run.
#[derive(Debug)]
struct BypassGauge {
    threshold: u64,
    /// The run the streak and flags below belong to (0 = none yet; real
    /// run ids start at 1).
    run_id: Cell<u64>,
    consecutive_misses: Cell<u64>,
    tripped: Cell<bool>,
    disarmed: Cell<bool>,
}

impl BypassGauge {
    /// A gauge for an oracle with `entries` cacheable entries (member fans
    /// for the dynamic oracle, sessions for the fixed one).
    fn sized_for(entries: usize) -> Self {
        Self {
            threshold: CACHE_BYPASS_MISSES.max(2 * entries as u64),
            run_id: Cell::new(0),
            consecutive_misses: Cell::new(0),
            tripped: Cell::new(false),
            disarmed: Cell::new(false),
        }
    }

    /// Whether an epoch-backed query of run `run_id` skips the cache. The
    /// first query of another run resets the gauge, so a trip only
    /// bypasses the rest of the run that earned it.
    fn engaged(&self, run_id: u64) -> bool {
        if self.run_id.replace(run_id) != run_id {
            self.consecutive_misses.set(0);
            self.tripped.set(false);
            self.disarmed.set(false);
        }
        self.tripped()
    }

    fn on_hit(&self) {
        self.consecutive_misses.set(0);
        self.disarmed.set(true);
    }

    fn on_miss(&self) {
        let streak = self.consecutive_misses.get() + 1;
        self.consecutive_misses.set(streak);
        if streak >= self.threshold && !self.disarmed.get() {
            self.tripped.set(true);
        }
    }

    fn tripped(&self) -> bool {
        self.tripped.get()
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

/// Dense Prim MST over `m` overlay nodes, one attach per [`Self::step`].
/// Member 0 starts the tree. Each step reads the row of the member
/// attached last, at the members still outside the tree only, then
/// attaches the cheapest fringe vertex (lowest index wins ties). So a
/// row is read only after its member joins the tree, and the row of the
/// member attached last is never read. [`prim_dense`] drives it from a
/// weight closure; [`DynamicOracle`] steps many at once and computes only
/// the fans the next step reads.
struct Prim {
    in_tree: Vec<bool>,
    best: Vec<f64>,
    parent: Vec<usize>,
    /// `(parent, child)` per attach, in attach order.
    edges: Vec<(usize, usize)>,
    /// The member attached last: whose row the next step reads.
    last: usize,
}

impl Prim {
    fn new(m: usize) -> Self {
        let mut in_tree = vec![false; m];
        if let Some(root) = in_tree.first_mut() {
            *root = true;
        }
        Self {
            in_tree,
            best: vec![f64::INFINITY; m],
            parent: vec![0; m],
            edges: Vec::with_capacity(m.saturating_sub(1)),
            last: 0,
        }
    }

    /// The member whose row the next step reads, or `None` once the tree
    /// spans every member. A single-member (or empty) overlay has an empty
    /// spanning tree and reads nothing.
    fn reader(&self) -> Option<usize> {
        (self.edges.len() + 1 < self.in_tree.len()).then_some(self.last)
    }

    /// Relaxes the fringe with the reader's row (`row(j)` = its weight to
    /// member `j`), then attaches the cheapest fringe vertex. Call only
    /// while [`Self::reader`] is `Some`.
    fn step(&mut self, row: impl Fn(usize) -> f64) {
        let a = self.last;
        let mut pick = usize::MAX;
        for j in 0..self.in_tree.len() {
            if self.in_tree[j] {
                continue;
            }
            let w = row(j);
            if w < self.best[j] {
                self.best[j] = w;
                self.parent[j] = a;
            }
            if pick == usize::MAX || self.best[j] < self.best[pick] {
                pick = j;
            }
        }
        assert!(self.best[pick].is_finite(), "overlay graph must be complete/connected");
        self.in_tree[pick] = true;
        self.edges.push((self.parent[pick], pick));
        self.last = pick;
    }
}

/// Dense Prim MST over `m` overlay nodes with a weight closure.
/// Deterministic: among equal-weight candidates the lowest-index vertex
/// attaches first. Returns `(parent, child)` per attach, in attach order.
/// Degenerate inputs (`m < 2`) have no overlay links: returns no edges.
fn prim_dense(m: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    let mut prim = Prim::new(m);
    while let Some(a) = prim.reader() {
        prim.step(|j| weight(a, j));
    }
    prim.edges
}

/// Cached finished tree of one fixed-routing session.
#[derive(Debug)]
struct FixedCache {
    run_id: u64,
    epoch: u64,
    tree: OverlayTree,
}

/// Oracle under **fixed IP routing**: every member pair communicates over
/// its frozen hop-count shortest path; the overlay edge weight is the sum
/// of live lengths along that frozen path.
///
/// The oracle serves one run at a time: runs may follow one another on
/// it, but concurrent runs each build their own. Its cache sits in a
/// `RefCell` and its bypass gauge in `Cell`s, so it is `Send` but not
/// `Sync`, and sharing one across threads does not compile:
///
/// ```compile_fail
/// use omcf_overlay::{FixedIpOracle, Session, SessionSet};
/// use omcf_topology::{canned, NodeId};
/// fn shared(_: &impl Sync) {}
/// let g = canned::path(2, 1.0);
/// let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(1)], 1.0)]);
/// shared(&FixedIpOracle::new(&g, &sessions));
/// ```
#[derive(Debug)]
pub struct FixedIpOracle {
    sessions: SessionSet,
    routes: Vec<FixedRoutes>,
    /// Per session: sorted physical edges its routes cover (invalidation
    /// key for the cached tree).
    covered: Vec<Vec<u32>>,
    caching: bool,
    /// Per session: the cached finished tree.
    entries: RefCell<Vec<Option<FixedCache>>>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
}

impl FixedIpOracle {
    /// Precomputes the pairwise IP routes of every session.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        let routes: Vec<FixedRoutes> =
            sessions.sessions().iter().map(|s| FixedRoutes::new(g, &s.members)).collect();
        let covered =
            routes.iter().map(|r| r.covered_edges().iter().map(|e| e.0).collect()).collect();
        Self {
            sessions: sessions.clone(),
            routes,
            covered,
            caching: true,
            entries: RefCell::new((0..sessions.len()).map(|_| None).collect()),
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
    /// without a single hit. The next run starts the gauge over.
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
        let mut entries = self.entries.borrow_mut();
        let valid = entries[session_idx].as_ref().is_some_and(|c| {
            c.run_id == epochs.run_id()
                && epochs.none_touched_since(&self.covered[session_idx], c.epoch)
        });
        if valid {
            self.hits.inc();
            self.bypass.on_hit();
            return entries[session_idx].as_ref().expect("validated above").tree.clone();
        }
        self.misses.inc();
        self.bypass.on_miss();
        let tree = self.compute_tree(session_idx, view.lengths);
        entries[session_idx] = Some(FixedCache {
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

/// One session member's shortest-path fan: exactly the member-level data
/// Prim reads back — distances and paths to the member's co-members
/// (indexed by member position) — plus the physical edges those paths
/// traverse (the invalidation key). Cached fans live in the oracle's
/// epoch cache; uncached queries fill scratch fans that die with the
/// query.
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

impl FanCache {
    /// Whether a read in the run of `epochs` may use this entry: it is
    /// from this run and none of its path edges were touched since its
    /// epoch, so every path is exactly what a fresh run would settle
    /// (`docs/ENGINE.md`, "The caching contract").
    fn serves(&self, epochs: &EdgeEpochs) -> bool {
        self.run_id == epochs.run_id() && epochs.none_touched_since(&self.fan_edges, self.epoch)
    }

    /// Refills the fan from the run in `ws`, one entry per member.
    fn fill(&mut self, ws: &DijkstraWorkspace, members: &[NodeId]) {
        self.dists.clear();
        self.paths.clear();
        for &b in members {
            self.dists.push(ws.dist(b));
            self.paths.push(ws.path_to(b).expect("connected graph: member must be reachable"));
        }
    }

    /// Stamps a freshly filled fan as computed now under `epochs`, keyed
    /// on the edges of its paths.
    fn stamp(&mut self, epochs: &EdgeEpochs) {
        self.fan_edges.clear();
        for path in &self.paths {
            self.fan_edges.extend(path.edges.iter().map(|e| e.0));
        }
        self.fan_edges.sort_unstable();
        self.fan_edges.dedup();
        self.run_id = epochs.run_id();
        self.epoch = epochs.current();
    }
}

/// Never-filled fans for the `m` members of one session.
fn empty_fans(m: usize) -> Vec<FanCache> {
    (0..m).map(|_| FanCache::default()).collect()
}

/// Oracle under **arbitrary dynamic routing** (§V): overlay edges follow the
/// shortest path under the *current* lengths. Prim decides which
/// Dijkstras run. A query advances one `Prim` per queried session in
/// rounds: round 0 reads each session's member-0 fan, and round r the fan
/// of the member that session attached at step r. The member attached
/// last never runs a fan. Each round's fans, across all queried
/// sessions, go through one [`run_fan_chunks_with`] call: one early-exit
/// [`DijkstraWorkspace`] run per fan, on the calling thread. Epoch-backed
/// queries skip the Dijkstra for a fan whose cached entry avoids every
/// edge touched since it was computed (exact under monotone length
/// growth). Uncached and bypassed queries run the same
/// rounds with scratch fans. Trees are bit-identical to Prim over full
/// per-member Dijkstras: early exit settles each member exactly as a full
/// run does.
///
/// Like [`FixedIpOracle`], the oracle serves one run at a time and is
/// `Send` but not `Sync` (its fans sit in a `RefCell`):
///
/// ```compile_fail
/// use omcf_overlay::{DynamicOracle, Session, SessionSet};
/// use omcf_topology::{canned, NodeId};
/// fn shared(_: &impl Sync) {}
/// let g = canned::path(2, 1.0);
/// let sessions = SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(1)], 1.0)]);
/// shared(&DynamicOracle::new(&g, &sessions));
/// ```
#[derive(Debug)]
pub struct DynamicOracle {
    g: Graph,
    sessions: SessionSet,
    caching: bool,
    /// `fans[session][member]`.
    fans: RefCell<Vec<Vec<FanCache>>>,
    hits: OwnedCounter,
    misses: OwnedCounter,
    bypass: BypassGauge,
    /// Fan workspaces are leased from here around every query. Oracles
    /// built via [`Self::with_pool`] share the sweep driver's
    /// cross-instance pool; otherwise the oracle owns a private one so
    /// scratch still persists across calls.
    pool: Arc<WorkspacePool>,
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
            fans: RefCell::new(sessions.sessions().iter().map(|s| empty_fans(s.size())).collect()),
            hits: OwnedCounter::new(&stats::ORACLE_DYNAMIC_HITS),
            misses: OwnedCounter::new(&stats::ORACLE_DYNAMIC_MISSES),
            bypass: BypassGauge::sized_for(total_fans(sessions)),
            pool: pool.unwrap_or_else(|| Arc::new(WorkspacePool::new())),
        }
    }

    /// Creates the oracle over a clone of the physical graph, with the
    /// epoch-cached, workspace-reusing query path enabled.
    #[must_use]
    pub fn new(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, true, None)
    }

    /// Like [`Self::new`], but fan workspaces are leased from `pool`
    /// (and handed back after every query) instead of a private pool.
    /// Drivers that solve many instances over same-sized graphs (the
    /// scenario sweep) share one pool so the dense Dijkstra buffers are
    /// recycled across cells.
    #[must_use]
    pub fn with_pool(g: &Graph, sessions: &SessionSet, pool: Arc<WorkspacePool>) -> Self {
        Self::build(g, sessions, true, Some(pool))
    }

    /// Like [`Self::new`] but with the epoch path disabled: every query
    /// computes each fan Prim reads afresh, exactly like the plain
    /// [`TreeOracle::min_tree`] interface. Benchmark / verification
    /// baseline.
    #[must_use]
    pub fn uncached(g: &Graph, sessions: &SessionSet) -> Self {
        Self::build(g, sessions, false, None)
    }

    /// Cache hit/miss counts since construction, one per fan Prim reads
    /// (m − 1 per query of an m-member session). Plain-interface queries
    /// count as misses. Thin forwarding shim: the counts live in telemetry
    /// [`OwnedCounter`]s, which also mirror into the process-wide
    /// `oracle.dynamic.cache.*` aggregates whenever telemetry is enabled.
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

    /// The one query routine behind every path: the trees of `session_ids`
    /// under `lengths`, with Prim deciding which Dijkstras run. Each round
    /// steps every unfinished session's [`Prim`] once. The fans it reads
    /// come from `cache` (the oracle's fans, by session, probed against the
    /// epoch clock) or, without one, from scratch fans per queried
    /// session. Fans that cannot be served, all of the round's, are
    /// computed in one [`run_fan_chunks_with`] call, each stopping once its
    /// co-members are settled. On the cached path a repeated
    /// session id reads the fans of its first occurrence, so its reads are
    /// hits, as on an untouched re-query; scratch fans belong to one
    /// queried position, so there a repeated id computes its own.
    fn min_trees_rounds(
        &self,
        session_ids: &[usize],
        lengths: &[f64],
        cache: Option<(&mut Vec<Vec<FanCache>>, &EdgeEpochs)>,
    ) -> Vec<OverlayTree> {
        let members = |q: usize| &self.sessions.session(session_ids[q]).members[..];
        let mut scratch;
        let (fans, epochs) = match cache {
            Some((fans, epochs)) => (fans, Some(epochs)),
            None => {
                scratch = (0..session_ids.len()).map(|q| empty_fans(members(q).len())).collect();
                (&mut scratch, None)
            }
        };
        let slot = |q: usize| if epochs.is_some() { session_ids[q] } else { q };
        let mut prims: Vec<Prim> =
            (0..session_ids.len()).map(|q| Prim::new(members(q).len())).collect();
        // Per round: the fans to compute, as (query, member).
        let mut stale: Vec<(usize, usize)> = Vec::new();
        while prims.iter().any(|p| p.reader().is_some()) {
            stale.clear();
            for (q, prim) in prims.iter().enumerate() {
                let Some(a) = prim.reader() else { continue };
                if let Some(epochs) = epochs {
                    let served = fans[slot(q)][a].serves(epochs)
                        || stale.iter().any(|&(p, b)| slot(p) == slot(q) && b == a);
                    if served {
                        self.hits.inc();
                        self.bypass.on_hit();
                        continue;
                    }
                    self.bypass.on_miss();
                }
                self.misses.inc();
                stale.push((q, a));
            }
            if !stale.is_empty() {
                let jobs: Vec<(NodeId, &[NodeId])> =
                    stale.iter().map(|&(q, a)| (members(q)[a], members(q))).collect();
                let runs = run_fan_chunks_with(&self.g, &jobs, lengths, &self.pool);
                for (ws, &(q, a)) in runs.into_iter().zip(&stale) {
                    let fan = &mut fans[slot(q)][a];
                    fan.fill(&ws, members(q));
                    if let Some(epochs) = epochs {
                        fan.stamp(epochs);
                    }
                    self.pool.give_back(ws);
                }
            }
            for (q, prim) in prims.iter_mut().enumerate() {
                if let Some(a) = prim.reader() {
                    let fan = &fans[slot(q)][a];
                    prim.step(|b| fan.dists[b]);
                }
            }
        }
        prims
            .into_iter()
            .enumerate()
            .map(|(q, prim)| {
                let fans = &fans[slot(q)];
                let hops = prim
                    .edges
                    .into_iter()
                    .map(|(a, b)| OverlayHop { a, b, path: fans[a].paths[b].clone() })
                    .collect();
                OverlayTree { session: session_ids[q], hops }
            })
            .collect()
    }
}

impl TreeOracle for DynamicOracle {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.min_trees_rounds(std::slice::from_ref(&session_idx), lengths, None)
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
            return self.min_trees_rounds(session_ids, view.lengths, None);
        };
        let mut fans = self.fans.borrow_mut();
        self.min_trees_rounds(session_ids, view.lengths, Some((&mut fans, epochs)))
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
        assert_eq!(stats.misses, 2, "first query: one Dijkstra per fan Prim reads");
        assert_eq!(stats.hits, 2, "second query: every fan Prim reads served from cache");
    }

    #[test]
    fn cold_query_reads_one_fan_per_member_but_the_last() {
        // Prim reads a member's fan only once the member is in the tree, and
        // never the fan of the member it attaches last: a cold query of an
        // m-member session computes exactly m − 1 fans, on every path.
        let g = canned::grid(4, 4, 10.0);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        for m in 2..=6 {
            let members = (0..m).map(|i| NodeId(3 * i as u32)).collect();
            let sessions = SessionSet::new(vec![Session::new(members, 1.0)]);
            let cold = CacheStats { hits: 0, misses: m - 1 };
            let cached = DynamicOracle::new(&g, &sessions);
            let t = cached.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(cached.cache_stats(), cold, "cached, {m} members");
            let uncached = DynamicOracle::uncached(&g, &sessions);
            let tu = uncached.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
            assert_eq!(uncached.cache_stats(), cold, "uncached, {m} members");
            let plain = DynamicOracle::new(&g, &sessions);
            assert_eq!(plain.min_tree(0, &lengths), t);
            assert_eq!(plain.cache_stats(), cold, "plain, {m} members");
            assert_eq!(t, tu);
            assert_eq!(t.hops.len() as u64, m - 1);
        }
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
        for step in 0..300 {
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
        // 300 queries × 1 fan Prim reads = 300 misses > threshold, zero hits.
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
        // 100 sessions × 4 members = 400 fans, a threshold of 800: the cold
        // first query round (3 fans read per session, 300 misses, above the
        // 256 base) alone must NOT trip the gauge — hits only become
        // possible from the second round, and they must still disarm it.
        let g = canned::grid(6, 6, 10.0);
        let sessions = SessionSet::new(
            (0..100)
                .map(|i| {
                    let members = [0, 7, 19, 28].map(|k| NodeId((i + k) % 36));
                    Session::new(members.to_vec(), 1.0)
                })
                .collect(),
        );
        let oracle = DynamicOracle::new(&g, &sessions);
        let lengths = unit_lengths(&g);
        let epochs = EdgeEpochs::new(g.edge_count());
        for i in 0..sessions.len() {
            let _ = oracle.min_tree_view(i, LengthView::with_epochs(&lengths, &epochs));
        }
        let misses = oracle.cache_stats().misses;
        assert_eq!(misses, 300, "cold round misses every fan Prim reads");
        assert!(misses > super::CACHE_BYPASS_MISSES, "the cold round must outrun the base");
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
    fn pooled_oracle_recycles_fan_workspaces() {
        let g = canned::grid(4, 4, 10.0);
        let sessions =
            SessionSet::new(vec![Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0)]);
        let pool = Arc::new(WorkspacePool::new());
        let epochs = EdgeEpochs::new(g.edge_count());
        let lengths = unit_lengths(&g);
        let oracle = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let t = oracle.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        t.validate(sessions.session(0), &g);
        // One workspace per fan of a round: a single session reads one fan
        // per round, and each round hands its workspace back before the
        // next leases it again.
        assert_eq!(pool.idle(), 1, "the cold query's workspaces are back in the shared pool");
        // The plain path leases the same workspace instead of allocating.
        let _ = oracle.min_tree(0, &lengths);
        assert_eq!(pool.idle(), 1, "plain path reuses the pooled workspace");
        // A second pooled oracle reuses the pool and computes the same tree.
        let oracle2 = DynamicOracle::with_pool(&g, &sessions, Arc::clone(&pool));
        let reference = DynamicOracle::new(&g, &sessions);
        let t2 = oracle2.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        let tr = reference.min_tree_view(0, LengthView::with_epochs(&lengths, &epochs));
        assert_eq!(t2, tr);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn batched_min_trees_view_matches_sequential_queries_and_counts() {
        // Two oracles over the same instance: one queried through the
        // batched entry point, one through per-session calls. Trees and
        // hit/miss accounting must be identical, across a cold round, a
        // warm round, and two partially-invalidated rounds.
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
        for round in 0..4 {
            let view = LengthView::with_epochs(&lengths, &epochs);
            let trees = batched.min_trees_view(&ids, view);
            let refs: Vec<OverlayTree> =
                ids.iter().map(|&i| sequential.min_tree_view(i, view)).collect();
            assert_eq!(trees, refs, "round {round}");
            assert_eq!(batched.cache_stats(), sequential.cache_stats(), "round {round}");
            if round == 0 {
                continue;
            }
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
