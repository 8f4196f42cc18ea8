//! A forwarding [`TreeOracle`] that times every call into the oracle layer
//! from outside. Each entry point forwards to the same entry point of the
//! wrapped oracle, so caching and batching behave exactly as without it.

use omcf_overlay::{LengthView, OverlayTree, SessionSet, TreeOracle};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Busy time and tree count of the oracle layer, with a per-call log so a
/// prefix of the calls (the M2 λ pre-pass) can be attributed afterwards.
pub struct TimedOracle<'a> {
    inner: &'a dyn TreeOracle,
    calls: Cell<u64>,
    trees: Cell<u64>,
    busy: Cell<Duration>,
    /// `(trees so far, busy so far)` after each call.
    log: RefCell<Vec<(u64, Duration)>>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(inner: &'a dyn TreeOracle) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            trees: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
            log: RefCell::new(Vec::new()),
        }
    }

    fn timed<T>(&self, trees: u64, call: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = call();
        let busy = self.busy.get() + t0.elapsed();
        self.busy.set(busy);
        self.calls.set(self.calls.get() + 1);
        self.trees.set(self.trees.get() + trees);
        self.log.borrow_mut().push((self.trees.get(), busy));
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn trees(&self) -> u64 {
        self.trees.get()
    }

    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    /// Busy time of the calls that returned the first `trees` trees, or
    /// `None` when no call ends exactly at that count.
    pub fn busy_through(&self, trees: u64) -> Option<Duration> {
        if trees == 0 {
            return Some(Duration::ZERO);
        }
        let log = self.log.borrow();
        let i = log.partition_point(|&(t, _)| t < trees);
        log.get(i).filter(|&&(t, _)| t == trees).map(|&(_, busy)| busy)
    }
}

impl TreeOracle for TimedOracle<'_> {
    fn min_tree(&self, session_idx: usize, lengths: &[f64]) -> OverlayTree {
        self.timed(1, || self.inner.min_tree(session_idx, lengths))
    }

    fn min_tree_view(&self, session_idx: usize, view: LengthView<'_>) -> OverlayTree {
        self.timed(1, || self.inner.min_tree_view(session_idx, view))
    }

    fn min_trees_view(&self, session_ids: &[usize], view: LengthView<'_>) -> Vec<OverlayTree> {
        self.timed(session_ids.len() as u64, || self.inner.min_trees_view(session_ids, view))
    }

    fn sessions(&self) -> &SessionSet {
        self.inner.sessions()
    }

    fn max_route_hops(&self) -> usize {
        self.inner.max_route_hops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_overlay::{FixedIpOracle, Session};
    use omcf_topology::{canned, NodeId};

    #[test]
    fn forwards_every_entry_point_and_counts_trees() {
        let g = canned::grid(4, 4, 10.0);
        let sessions = SessionSet::new(vec![
            Session::new(vec![NodeId(0), NodeId(5), NodeId(15)], 1.0),
            Session::new(vec![NodeId(3), NodeId(12)], 1.0),
        ]);
        let inner = FixedIpOracle::new(&g, &sessions);
        let probe = TimedOracle::new(&inner);
        let lengths = vec![1.0; g.edge_count()];
        let view = LengthView::plain(&lengths);
        assert_eq!(probe.min_tree(0, &lengths), inner.min_tree(0, &lengths));
        assert_eq!(probe.min_tree_view(1, view), inner.min_tree_view(1, view));
        assert_eq!(probe.min_trees_view(&[0, 1, 0], view), inner.min_trees_view(&[0, 1, 0], view));
        assert_eq!((probe.calls(), probe.trees()), (3, 5));
        assert_eq!(probe.max_route_hops(), inner.max_route_hops());
        assert_eq!(probe.sessions().len(), 2);
        assert!(probe.busy_through(2).is_some());
        assert_eq!(probe.busy_through(3), None, "no call ends at the third tree");
        assert_eq!(probe.busy_through(5), Some(probe.busy()));
        assert_eq!(probe.busy_through(0), Some(Duration::ZERO));
    }
}
