//! The snapshot content and its validation, shared by the
//! [`crate::snapshot_v2`] binary writer and reader.
//!
//! A snapshot captures everything a resumed replay needs — topology
//! (capacities included, since [`Event::CapacityChange`] mutates them),
//! exponential lengths, load table, the admission log with live trees,
//! and the counters. Every `f64` is serialized as its IEEE-754 bit
//! pattern, so `save → restore` is **bit-identical**: a replay resumed
//! from a snapshot produces exactly the bytes an uninterrupted run would.
//!
//! [`Runtime::snapshot_v2`] captures a `SnapshotImage` and encodes it;
//! [`Runtime::restore_v2`] decodes one and hands it to
//! `SnapshotImage::assemble`, which performs every semantic check before
//! [`OnlineSystem::restore`] rebuilds the state. The line-based v1 text
//! format is no longer read or written.
//!
//! Not serialized (reconstructed on restore): the
//! [`TreeStore`](omcf_overlay::TreeStore) (rebuilt by
//! [`OnlineSystem::restore`] from the live trees at their demands —
//! bit-identical, flows were never mutated in place) and the epoch clock
//! (a fresh clock is correct because oracles are per-event; a restored
//! runtime's first queries simply miss).
//!
//! [`Event::CapacityChange`]: crate::Event::CapacityChange

use crate::runtime::Runtime;
use omcf_core::engine::EngineState;
use omcf_core::solver::RoutingMode;
use omcf_core::{Admitted, OnlineSystem};
use omcf_overlay::{OverlayHop, OverlayTree, Session};
use omcf_routing::Path;
use omcf_topology::{EdgeId, GraphBuilder, NodeId};
use std::sync::Arc;

/// Current snapshot format version ([`Runtime::snapshot_v2`]).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot failed to restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not lead with the v2 magic, or names an unknown
    /// format version.
    UnsupportedVersion(String),
    /// A v2 binary snapshot failed to decode or validate.
    CorruptBinary {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion(h) => {
                write!(f, "unsupported snapshot header `{h}` (expected the v2 binary magic)")
            }
            Self::CorruptBinary { offset, what } => write!(f, "snapshot byte {offset}: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One hop of a serialized overlay tree.
#[derive(Clone, Debug)]
pub(crate) struct HopImage {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) edges: Vec<u32>,
}

/// One admission-log entry of a serialized runtime.
#[derive(Clone, Debug)]
pub(crate) struct SessionImage {
    pub(crate) alive: bool,
    pub(crate) demand: f64,
    pub(crate) members: Vec<u32>,
    pub(crate) hops: Vec<HopImage>,
}

/// The content of a snapshot, decoded but not yet validated. One
/// [`Self::assemble`] owns every semantic check.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotImage {
    pub(crate) rho: f64,
    pub(crate) routing: RoutingMode,
    pub(crate) events: u64,
    pub(crate) mst_ops: u64,
    pub(crate) iterations: u64,
    /// Node positions, indexed by `NodeId`.
    pub(crate) nodes: Vec<(f64, f64)>,
    /// `(u, v, capacity)` per edge, in `EdgeId` order.
    pub(crate) edges: Vec<(u32, u32, f64)>,
    pub(crate) lengths: Vec<f64>,
    pub(crate) loads: Vec<f64>,
    pub(crate) sessions: Vec<SessionImage>,
}

impl SnapshotImage {
    /// Captures the full state of a live runtime.
    pub(crate) fn capture(rt: &Runtime) -> Self {
        let g = rt.graph();
        let state = rt.state();
        Self {
            rho: rt.rho(),
            routing: rt.routing(),
            events: rt.events_processed(),
            mst_ops: state.mst_ops,
            iterations: state.iterations,
            nodes: g.nodes().map(|n| g.position(n)).collect(),
            edges: g
                .edge_ids()
                .map(|e| {
                    let edge = g.edge(e);
                    (edge.u.0, edge.v.0, edge.capacity)
                })
                .collect(),
            lengths: state.lengths.stored().to_vec(),
            loads: state.load.clone(),
            sessions: rt
                .admitted()
                .iter()
                .map(|a| SessionImage {
                    alive: a.alive(),
                    demand: a.session().demand,
                    members: a.session().members.iter().map(|m| m.0).collect(),
                    hops: a
                        .tree()
                        .hops
                        .iter()
                        .map(|h| HopImage {
                            a: h.a as u32,
                            b: h.b as u32,
                            src: h.path.src.0,
                            dst: h.path.dst.0,
                            edges: h.path.edges.iter().map(|e| e.0).collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Validates every semantic invariant a flipped bit could violate —
    /// positive finite capacities/lengths/demands/ρ, in-range node/edge/
    /// member indices, distinct session members, trees that actually span
    /// and embed — and reassembles the runtime bit-identically. Errors
    /// are plain strings; the decoder wraps them with its offset context.
    pub(crate) fn assemble(self) -> Result<Runtime, String> {
        if !(self.rho > 0.0 && self.rho.is_finite()) {
            return Err(format!("step size must be positive and finite, got {}", self.rho));
        }
        let n = self.nodes.len();
        let m = self.edges.len();
        let mut b = GraphBuilder::new(n);
        for (idx, &(x, y)) in self.nodes.iter().enumerate() {
            b.set_position(NodeId(idx as u32), x, y);
        }
        for &(u, v, cap) in &self.edges {
            if u as usize >= n || v as usize >= n || u == v {
                return Err(format!("bad edge endpoints {u}-{v}"));
            }
            if !(cap > 0.0 && cap.is_finite()) {
                return Err(format!("capacity must be positive and finite, got {cap}"));
            }
            b.add_edge(NodeId(u), NodeId(v), cap);
        }
        let graph = Arc::new(b.finish());

        if self.lengths.len() != m {
            return Err(format!("expected {m} length words, got {}", self.lengths.len()));
        }
        if let Some(bad) = self.lengths.iter().find(|l| !(**l > 0.0 && l.is_finite())) {
            return Err(format!("length must be positive and finite, got {bad}"));
        }
        if self.loads.len() != m {
            return Err(format!("expected {m} load words, got {}", self.loads.len()));
        }
        if let Some(bad) = self.loads.iter().find(|l| !(**l >= 0.0 && l.is_finite())) {
            return Err(format!("load must be nonnegative and finite, got {bad}"));
        }

        let mut admitted = Vec::with_capacity(self.sessions.len());
        for (i, s) in self.sessions.into_iter().enumerate() {
            if !(s.demand > 0.0 && s.demand.is_finite()) {
                return Err(format!(
                    "session {i}: demand must be positive and finite, got {}",
                    s.demand
                ));
            }
            let k = s.members.len();
            if k < 2 {
                return Err(format!("session {i}: needs at least 2 members, got {k}"));
            }
            if s.members.iter().any(|node| *node as usize >= n) {
                return Err(format!("session {i}: member out of range"));
            }
            let mut dedup = s.members.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != k {
                return Err(format!("session {i}: duplicate session members"));
            }
            let session =
                Session::new(s.members.iter().map(|&mm| NodeId(mm)).collect::<Vec<_>>(), s.demand);

            let mut hops = Vec::with_capacity(s.hops.len());
            for h in &s.hops {
                if h.edges.iter().any(|e| *e as usize >= m) {
                    return Err(format!("session {i}: hop path edge out of range"));
                }
                hops.push(OverlayHop {
                    a: h.a as usize,
                    b: h.b as usize,
                    path: Path {
                        src: NodeId(h.src),
                        dst: NodeId(h.dst),
                        edges: h.edges.iter().map(|&e| EdgeId(e)).collect(),
                    },
                });
            }
            let tree = OverlayTree { session: i, hops };
            if let Err(what) = check_tree(&session, &tree, &graph) {
                return Err(format!("session {i}: {what}"));
            }
            admitted.push(Admitted::new(session, tree, s.alive));
        }

        // Bit-exact lengths/loads and the counters on a fresh epoch clock;
        // the core rebuilds the flow store from the admission log.
        let mut state = EngineState::online(&graph);
        for (e, bits) in self.lengths.iter().enumerate() {
            state.lengths.set_edge(e, *bits);
        }
        state.load = self.loads;
        state.mst_ops = self.mst_ops;
        state.iterations = self.iterations;
        let sys = OnlineSystem::restore(graph, self.rho, self.routing, state, admitted);
        Ok(Runtime { sys, events_processed: self.events })
    }
}

/// Non-panicking twin of `OverlayTree::validate` for untrusted snapshot
/// input: checks that the hops span the session's member indices without
/// cycles and that every hop's path is a walk through `g` joining the
/// right members. Indices into `g` must already be bounds-checked.
fn check_tree(
    session: &Session,
    tree: &OverlayTree,
    g: &omcf_topology::Graph,
) -> Result<(), String> {
    let k = session.size();
    if tree.hops.len() != k - 1 {
        return Err(format!("tree must have {} hops, got {}", k - 1, tree.hops.len()));
    }
    let mut parent: Vec<usize> = (0..k).collect();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for h in &tree.hops {
        if h.a >= k || h.b >= k || h.a == h.b {
            return Err(format!("bad hop endpoints {}-{}", h.a, h.b));
        }
        let (ra, rb) = (root(&mut parent, h.a), root(&mut parent, h.b));
        if ra == rb {
            return Err("cycle in overlay tree".to_string());
        }
        parent[ra] = rb;
        let (pa, pb) = (session.members[h.a], session.members[h.b]);
        if !((h.path.src == pa && h.path.dst == pb) || (h.path.src == pb && h.path.dst == pa)) {
            return Err("hop path endpoints disagree with members".to_string());
        }
        let mut cur = h.path.src;
        for &e in h.path.edges.iter() {
            let edge = g.edge(e);
            cur = if edge.u == cur {
                edge.v
            } else if edge.v == cur {
                edge.u
            } else {
                return Err(format!("path edge {e:?} not incident to walk"));
            };
        }
        if cur != h.path.dst {
            return Err("hop path does not reach its destination".to_string());
        }
    }
    Ok(())
}
