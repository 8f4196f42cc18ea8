//! Fig. 1 — the packing-spanning-trees worked example.
//!
//! The paper's problem S (§II-C) packs spanning trees into one session's
//! overlay graph. That is M1 with a single session holding every node,
//! under fixed routing: on a simple graph each node pair is routed on its
//! direct link, so the minimum overlay spanning tree is the graph's
//! minimum spanning tree and `MaxFlow` packs exactly problem S's trees.

use omcf_core::{max_flow, ApproxParams};
use omcf_overlay::{FixedIpOracle, Session, SessionSet};
use omcf_topology::canned;
use omcf_treepack::{pack_greedy, strength_exact};

/// Outcome of the Fig. 1 demonstration.
#[derive(Clone, Debug)]
pub struct Fig1Outcome {
    /// Exact Tutte/Nash-Williams bound (fractional optimum), 17/3.
    pub strength: f64,
    /// Greedy integral packing value (the paper's decomposition reaches 5).
    pub greedy_value: f64,
    /// Number of trees in the greedy packing.
    pub greedy_trees: usize,
    /// Fractional packing value of `MaxFlow` at ε = 0.02.
    pub fptas_value: f64,
    /// `MaxFlow`'s weak-duality bound: `strength ≤ dual_bound`.
    pub dual_bound: f64,
    /// Human-readable rendering.
    pub report: String,
}

/// Reproduces the paper's Fig. 1: the weighted K4 session graph packs into
/// spanning trees of aggregate rate 5 (integral) / 17/3 (fractional).
#[must_use]
pub fn fig1() -> Fig1Outcome {
    let g = canned::fig1_session_graph();
    let strength = strength_exact(&g);
    let greedy = pack_greedy(&g);
    greedy.validate(&g, 1e-9);
    let sessions = SessionSet::new(vec![Session::new(g.nodes().collect(), 1.0)]);
    let oracle = FixedIpOracle::new(&g, &sessions);
    let fptas = max_flow(&g, &oracle, ApproxParams::from_eps(0.02));
    let report = format!(
        "Fig 1: packing spanning trees on the weighted K4 session graph\n\
         Tutte/Nash-Williams bound (fractional optimum): {:.4} (= 17/3)\n\
         Greedy integral packing: value {:.4} using {} trees (paper: 5 with 3 trees)\n\
         Garg-Konemann fractional packing (MaxFlow, eps=0.02): value {:.4}, dual bound {:.4}\n",
        strength,
        greedy.value(),
        greedy.tree_count(),
        fptas.objective,
        fptas.dual_bound,
    );
    Fig1Outcome {
        strength,
        greedy_value: greedy.value(),
        greedy_trees: greedy.tree_count(),
        fptas_value: fptas.objective,
        dual_bound: fptas.dual_bound,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_values() {
        let out = fig1();
        assert!((out.strength - 17.0 / 3.0).abs() < 1e-9);
        assert!(out.greedy_value >= 5.0 - 1e-9);
        // MaxFlow's Lemma 3 guarantee, and weak duality on both sides.
        assert!(out.fptas_value >= (1.0 - 0.02) * (1.0 - 0.02) * out.strength);
        assert!(out.fptas_value <= out.strength + 1e-9);
        assert!(out.strength <= out.dual_bound + 1e-9);
        assert!(out.report.contains("17/3"));
    }
}
