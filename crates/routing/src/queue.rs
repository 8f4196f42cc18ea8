//! The Dijkstra priority queue's entry type.
//!
//! [`crate::DijkstraWorkspace`] holds one `std::collections::BinaryHeap`
//! of [`HeapItem`]s and pushes and pops them directly in its relax loop.
//! The heap pops the minimum `(dist, node)` pair: distances ascending,
//! ties broken toward the smaller node id. That is exactly the pop order
//! of the frozen adjacency-list reference, so relaxations — and therefore
//! trees — stay bit-identical to it (pinned by `tests/prop.rs`).

use omcf_topology::NodeId;
use std::cmp::Ordering;

/// Heap entry: `(tentative distance, node)`, with the distance stored as
/// its raw IEEE-754 bits. Dijkstra distances are always non-negative
/// finite sums of non-negative lengths (`0.0 + x` never produces `-0.0`),
/// and for non-negative floats the bit pattern orders exactly like the
/// value — so `(bits, node)` lexicographic integer comparison realizes
/// the same `(dist, node)` total order as float comparison, one branch
/// cheaper per sift step. Equal values have equal bits in this range, so
/// even tie-breaking is unchanged and pop order is bit-identical.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapItem {
    bits: u64,
    node: NodeId,
}

impl HeapItem {
    /// The entry for `node` at tentative distance `dist`.
    #[inline]
    pub(crate) fn new(dist: f64, node: NodeId) -> Self {
        Self { bits: dist.to_bits(), node }
    }

    /// The entry's `(distance, node)` pair.
    #[inline]
    pub(crate) fn get(&self) -> (f64, NodeId) {
        (f64::from_bits(self.bits), self.node)
    }
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance bits, then on node id for determinism.
        other.bits.cmp(&self.bits).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::{Rng64, Xoshiro256pp};
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_in_dist_then_node_order_ties_included() {
        let mut rng = Xoshiro256pp::new(42);
        for _ in 0..20 {
            let n = 1 + rng.index(50);
            let items: Vec<(f64, u32)> = (0..n)
                // Coarse distances provoke ties; node ids break them.
                .map(|_| (rng.index(8) as f64 * 0.5, rng.index(12) as u32))
                .collect();
            let mut heap: BinaryHeap<HeapItem> =
                items.iter().map(|&(d, v)| HeapItem::new(d, NodeId(v))).collect();
            let popped: Vec<(f64, u32)> =
                std::iter::from_fn(|| heap.pop()).map(|i| (i.get().0, i.get().1 .0)).collect();
            let mut sorted = items;
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(popped, sorted);
        }
    }
}
