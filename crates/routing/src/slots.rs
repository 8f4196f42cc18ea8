//! Packed per-node relaxation state of the Dijkstra workspace.
//!
//! The relax loop's critical sequence — *read the state word, compare
//! the tentative distance, consult the tie-break parent, write all
//! three back* — used to touch three separate arrays (`dist`,
//! `parent: Option<(EdgeId, NodeId)>`, `state`), i.e. three cache
//! lines per visited node. [`NodeSlot`] packs the whole record into
//! one 24-byte struct (8-aligned: an `f64` distance, two `u32` parent
//! halves with [`NO_PARENT`] as the `None` sentinel, and the `u32`
//! generation/flag word), so [`crate::DijkstraWorkspace`] reads and
//! writes one location per relaxation.
//!
//! The packing is pure layout: the stored values, the relaxation
//! order and the deterministic tie-break are unchanged (the tie-break
//! must test `parent_node != NO_PARENT` explicitly — comparing a node
//! id against the sentinel alone would always succeed and flip tie
//! decisions), so results remain bit-identical to the frozen
//! adjacency-list reference (`tests/prop.rs`, `tests/packed_prop.rs`).

use omcf_topology::{EdgeId, NodeId};

/// Parent sentinel: "no parent" (a source, or a not-yet-relaxed slot).
/// Valid node ids are always `< u32::MAX` (graphs index nodes densely),
/// so the sentinel can never collide with a real predecessor.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One node's complete relaxation record.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub(crate) struct NodeSlot {
    /// Tentative distance; valid only when `state` stamps the current run.
    pub dist: f64,
    /// Edge of the parent link ([`NO_PARENT`] = none).
    pub parent_edge: u32,
    /// Predecessor node of the parent link ([`NO_PARENT`] = none).
    pub parent_node: u32,
    /// Generation stamp plus the target/done flag bits (see the state
    /// machine documented on [`crate::DijkstraWorkspace`]).
    pub state: u32,
}

impl NodeSlot {
    /// The untouched slot: unreached, parentless, generation 0.
    pub const UNREACHED: NodeSlot =
        NodeSlot { dist: f64::INFINITY, parent_edge: NO_PARENT, parent_node: NO_PARENT, state: 0 };

    /// The parent link in the `Option` shape the owned tree types use.
    #[inline]
    pub fn parent(&self) -> Option<(EdgeId, NodeId)> {
        (self.parent_node != NO_PARENT)
            .then_some((EdgeId(self.parent_edge), NodeId(self.parent_node)))
    }

    /// Clears the parent link back to the sentinel.
    #[inline]
    pub fn clear_parent(&mut self) {
        self.parent_edge = NO_PARENT;
        self.parent_node = NO_PARENT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_one_cache_line_friendly_record() {
        assert_eq!(std::mem::size_of::<NodeSlot>(), 24);
        assert_eq!(std::mem::align_of::<NodeSlot>(), 8);
    }

    #[test]
    fn parent_round_trips_through_the_sentinel() {
        let mut s = NodeSlot::UNREACHED;
        assert_eq!(s.parent(), None);
        s.parent_edge = 7;
        s.parent_node = 3;
        assert_eq!(s.parent(), Some((EdgeId(7), NodeId(3))));
        s.clear_parent();
        assert_eq!(s.parent(), None);
    }
}
