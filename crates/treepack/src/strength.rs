//! Network strength: the Tutte/Nash-Williams partition bound.

use omcf_topology::Graph;

/// Exact strength `min_π f(π)/(|π|−1)` by enumerating all set partitions of
/// the vertices with at least two blocks. Partitions are generated as
/// restricted growth strings; complexity is the Bell number `B(n)`, so the
/// function asserts `n ≤ 12` (B(12) ≈ 4.2·10⁶).
///
/// The graph must be connected; strength of a disconnected graph is 0 and
/// is returned as such.
#[must_use]
pub fn strength_exact(g: &Graph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2, "strength needs at least two nodes");
    assert!(n <= 12, "partition enumeration is exponential; n must be at most 12");
    // Precompute edge endpoints and weights once.
    let edges: Vec<(usize, usize, f64)> = g
        .edge_ids()
        .map(|e| {
            let edge = g.edge(e);
            (edge.u.idx(), edge.v.idx(), edge.capacity)
        })
        .collect();

    let mut best = f64::INFINITY;
    // Restricted growth string a[0..n]: a[0] = 0, a[i] <= max(a[0..i]) + 1.
    let mut a = vec![0usize; n];
    let mut maxes = vec![0usize; n]; // maxes[i] = max(a[0..=i])
    loop {
        let blocks = maxes[n - 1] + 1;
        if blocks >= 2 {
            let crossing: f64 =
                edges.iter().filter(|&&(u, v, _)| a[u] != a[v]).map(|&(_, _, w)| w).sum();
            let ratio = crossing / (blocks as f64 - 1.0);
            if ratio < best {
                best = ratio;
            }
        }
        // Next restricted growth string (lexicographic increment from the
        // right).
        let mut i = n - 1;
        loop {
            if i == 0 {
                return best;
            }
            let cap = maxes[i - 1] + 1;
            if a[i] < cap {
                a[i] += 1;
                maxes[i] = maxes[i - 1].max(a[i]);
                for j in (i + 1)..n {
                    a[j] = 0;
                    maxes[j] = maxes[j - 1];
                }
                break;
            }
            i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::canned;

    #[test]
    fn strength_of_a_tree_is_min_weight() {
        // For a tree, every edge is a 2-partition cut; finer partitions only
        // average cuts, so strength = min edge weight.
        let g = canned::path(5, 3.0);
        assert!((strength_exact(&g) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn strength_of_unit_complete_graph() {
        // K_n with unit weights has strength n/2 (all-singletons partition:
        // C(n,2)/(n-1) = n/2, and this is the minimizer).
        for n in [3usize, 4, 5, 6] {
            let g = canned::complete(n, 1.0);
            let s = strength_exact(&g);
            assert!((s - n as f64 / 2.0).abs() < 1e-9, "K{n}: {s}");
        }
    }

    #[test]
    fn strength_of_cycle() {
        // A cycle with unit weights: every 2-partition cuts ≥ 2 edges;
        // the all-singleton partition gives n/(n−1); the minimum is the
        // 2-block bound 2 vs n/(n−1) — for n ≥ 3, n/(n−1) ≤ 2, so strength
        // = n/(n−1).
        let g = canned::ring(5, 1.0);
        assert!((strength_exact(&g) - 5.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_strength_is_17_over_3() {
        // The paper's Fig. 1 weighted K4: fractional packing optimum is
        // 17/3 (all-singletons partition), integral is 5.
        let g = canned::fig1_session_graph();
        let s = strength_exact(&g);
        assert!((s - 17.0 / 3.0).abs() < 1e-9, "fig1 strength {s}");
    }

    #[test]
    fn star_strength_equals_leaf_weight() {
        let g = canned::star(6, 4.0);
        assert!((strength_exact(&g) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn exact_rejects_large_graphs() {
        let g = canned::ring(13, 1.0);
        let _ = strength_exact(&g);
    }
}
