//! Instance generators shared by the property tests of this crate.

use omcf_numerics::{Rng64, Xoshiro256pp};
use omcf_topology::{Graph, GraphBuilder, NodeId};

/// A 3–5 × 3–5 grid with independent random capacities in [1, 50), so
/// the products `c_e·d_e` differ edge by edge.
pub fn random_grid(rng: &mut Xoshiro256pp) -> Graph {
    let (rows, cols) = (3 + rng.index(3), 3 + rng.index(3));
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.set_position(id(r, c), c as f64, r as f64);
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), rng.range_f64(1.0, 50.0));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), rng.range_f64(1.0, 50.0));
            }
        }
    }
    b.finish()
}
