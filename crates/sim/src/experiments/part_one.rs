//! Scenario A artifacts: Tables II/IV/VII/VIII and Figs. 2–11.

use super::{Config, RoutingMode};
use crate::experiment_params;
use crate::figures::{Figure, Series};
use crate::metrics;
use crate::scenarios::ScenarioA;
use crate::tables::RatioTable;
use omcf_core::solver::{Instance, SolverKind, SolverOutcome};
use omcf_core::{max_concurrent_flow_maxmin, online_min_congestion, rounding};
use omcf_numerics::{SplitMix64, Xoshiro256pp};
use omcf_overlay::{DynamicOracle, FixedIpOracle, TreeOracle};
use omcf_topology::EdgeId;
use rayon::prelude::*;

/// The Scenario A workload as a solver-layer [`Instance`] (default ε; the
/// ratio sweeps override it per run).
fn instance_for(scenario: &ScenarioA, mode: RoutingMode) -> Instance {
    Instance::new("scenario-a", scenario.graph.clone(), scenario.sessions.clone(), mode)
}

/// Physical edges belonging to at least one overlay link of a live session
/// (the paper's link-utilization universe). Under arbitrary routing the
/// covered set is taken from the fixed routes too — the universe of
/// comparable links, as in the paper's §V side-by-side plots.
#[must_use]
pub fn covered_edges(scenario: &ScenarioA) -> Vec<EdgeId> {
    FixedIpOracle::new(&scenario.graph, &scenario.sessions).covered_edges()
}

/// One run of `kind` per ratio (parallel over the sweep), each through
/// the [`omcf_core::Solver`] front door against its own epoch-cached
/// oracle.
#[must_use]
pub fn solver_ratio_sweep(
    cfg: &Config,
    mode: RoutingMode,
    kind: SolverKind,
) -> (ScenarioA, Vec<SolverOutcome>) {
    let scenario = ScenarioA::build(cfg.seed, cfg.scale);
    omcf_telemetry::verbose!(
        "part-one: {} ratio sweep, {} under {:?} routing ({} ratios)",
        kind.name(),
        scenario.graph.node_count(),
        mode,
        cfg.ratios().len()
    );
    let base = instance_for(&scenario, mode);
    let outs: Vec<SolverOutcome> = cfg
        .ratios()
        .par_iter()
        .map(|&r| kind.solver().run(&base.clone().with_eps(experiment_params(r).eps)))
        .collect();
    (scenario, outs)
}

/// One MaxFlow run per ratio (parallel over the sweep).
#[must_use]
pub fn max_flow_sweep(cfg: &Config, mode: RoutingMode) -> (ScenarioA, Vec<SolverOutcome>) {
    solver_ratio_sweep(cfg, mode, SolverKind::M1)
}

/// One max-min-completed MaxConcurrentFlow run per ratio (parallel over
/// the sweep).
#[must_use]
pub fn mcf_sweep(cfg: &Config, mode: RoutingMode) -> (ScenarioA, Vec<SolverOutcome>) {
    solver_ratio_sweep(cfg, mode, SolverKind::M2)
}

fn max_flow_table(cfg: &Config, mode: RoutingMode, title: &str) -> RatioTable {
    let (_, outs) = max_flow_sweep(cfg, mode);
    let ratios = cfg.ratios();
    let mut t = RatioTable::new(title, &ratios);
    let col = |f: &dyn Fn(&SolverOutcome) -> f64| outs.iter().map(f).collect::<Vec<_>>();
    t.push_row("Rate of Session 1", col(&|o| o.summary.session_rates[0]), 2);
    t.push_row("Rate of Session 2", col(&|o| o.summary.session_rates[1]), 2);
    t.push_row("Overall Throughput", col(&|o| o.summary.overall_throughput), 2);
    t.push_row("Number of Trees in Session 1", col(&|o| o.summary.tree_counts[0] as f64), 0);
    t.push_row("Number of Trees in Session 2", col(&|o| o.summary.tree_counts[1] as f64), 0);
    t.push_row("Running Time (number of MST operations)", col(&|o| o.mst_ops as f64), 0);
    t
}

fn mcf_table(cfg: &Config, mode: RoutingMode, title: &str) -> RatioTable {
    let (_, outs) = mcf_sweep(cfg, mode);
    let ratios = cfg.ratios();
    let mut t = RatioTable::new(title, &ratios);
    let col = |f: &dyn Fn(&SolverOutcome) -> f64| outs.iter().map(f).collect::<Vec<_>>();
    t.push_row("Rate of Session 1", col(&|o| o.summary.session_rates[0]), 2);
    t.push_row("Rate of Session 2", col(&|o| o.summary.session_rates[1]), 2);
    t.push_row("Overall Throughput", col(&|o| o.summary.overall_throughput), 2);
    t.push_row("Number of Trees in Session 1", col(&|o| o.summary.tree_counts[0] as f64), 0);
    t.push_row("Number of Trees in Session 2", col(&|o| o.summary.tree_counts[1] as f64), 0);
    t.push_row("Running Time: main loop (MST ops)", col(&|o| o.mst_ops as f64), 0);
    t.push_row("Running Time: lambda pre-pass (MST ops)", col(&|o| o.mst_ops_prepass as f64), 0);
    t
}

/// Table II — `MaxFlow` under fixed IP routing.
#[must_use]
pub fn table2(cfg: &Config) -> RatioTable {
    max_flow_table(cfg, RoutingMode::FixedIp, "Table II: MaxFlow (fixed IP routing)")
}

/// Table VII — `MaxFlow` under arbitrary routing.
#[must_use]
pub fn table7(cfg: &Config) -> RatioTable {
    max_flow_table(cfg, RoutingMode::Arbitrary, "Table VII: MaxFlow (arbitrary routing)")
}

/// Table IV — `MaxConcurrentFlow` under fixed IP routing.
#[must_use]
pub fn table4(cfg: &Config) -> RatioTable {
    mcf_table(cfg, RoutingMode::FixedIp, "Table IV: MaxConcurrentFlow (fixed IP routing)")
}

/// Table VIII — `MaxConcurrentFlow` under arbitrary routing.
#[must_use]
pub fn table8(cfg: &Config) -> RatioTable {
    mcf_table(cfg, RoutingMode::Arbitrary, "Table VIII: MaxConcurrentFlow (arbitrary routing)")
}

/// Figs. 2/7 — accumulative tree-rate distribution per session (MaxFlow).
#[must_use]
pub fn fig2_impl(cfg: &Config, mode: RoutingMode, name_prefix: &str) -> Vec<Figure> {
    let (_, outs) = max_flow_sweep(cfg, mode);
    rate_cdf_figures(cfg, name_prefix, outs.iter().map(|o| &o.store))
}

/// Figs. 3/8 — accumulative tree-rate distribution per session (MCF).
#[must_use]
pub fn fig3_impl(cfg: &Config, mode: RoutingMode, name_prefix: &str) -> Vec<Figure> {
    let (_, outs) = mcf_sweep(cfg, mode);
    rate_cdf_figures(cfg, name_prefix, outs.iter().map(|o| &o.store))
}

fn rate_cdf_figures<'a>(
    cfg: &Config,
    name_prefix: &str,
    stores: impl Iterator<Item = &'a omcf_overlay::TreeStore>,
) -> Vec<Figure> {
    let ratios = cfg.ratios();
    let mut figs = vec![
        Figure::new(
            &format!("{name_prefix}-session1"),
            "normalized tree rank",
            "accumulative rate distribution",
        ),
        Figure::new(
            &format!("{name_prefix}-session2"),
            "normalized tree rank",
            "accumulative rate distribution",
        ),
    ];
    for (store, r) in stores.zip(&ratios) {
        for (s, fig) in figs.iter_mut().enumerate() {
            fig.push(Series::new(
                format!("Approximation Ratio {:.0}%", r * 100.0),
                metrics::rate_cdf(store, s),
            ));
        }
    }
    figs
}

/// Fig. 2 — tree-rate CDFs under fixed IP routing.
#[must_use]
pub fn fig2(cfg: &Config) -> Vec<Figure> {
    fig2_impl(cfg, RoutingMode::FixedIp, "fig2-maxflow-rate-cdf")
}

/// Fig. 3 — tree-rate CDFs for MCF under fixed IP routing.
#[must_use]
pub fn fig3(cfg: &Config) -> Vec<Figure> {
    fig3_impl(cfg, RoutingMode::FixedIp, "fig3-mcf-rate-cdf")
}

/// Figs. 4/9 — link-utilization profiles for MaxFlow and MCF.
#[must_use]
pub fn fig4_impl(cfg: &Config, mode: RoutingMode, name_prefix: &str) -> Vec<Figure> {
    let (scenario, mf) = max_flow_sweep(cfg, mode);
    let (_, mcf) = mcf_sweep(cfg, mode);
    let covered = covered_edges(&scenario);
    let ratios = cfg.ratios();
    let mut figs = vec![
        Figure::new(
            &format!("{name_prefix}-maxflow"),
            "normalized edge rank",
            "utilization ratio distribution",
        ),
        Figure::new(
            &format!("{name_prefix}-mcf"),
            "normalized edge rank",
            "utilization ratio distribution",
        ),
    ];
    for (i, r) in ratios.iter().enumerate() {
        let label = format!("Approximation Ratio {:.0}%", r * 100.0);
        figs[0].push(Series::new(
            label.clone(),
            metrics::link_utilization(&mf[i].store, &scenario.graph, &covered),
        ));
        figs[1].push(Series::new(
            label,
            metrics::link_utilization(&mcf[i].store, &scenario.graph, &covered),
        ));
    }
    figs
}

/// Fig. 4 — link utilization under fixed IP routing.
#[must_use]
pub fn fig4(cfg: &Config) -> Vec<Figure> {
    fig4_impl(cfg, RoutingMode::FixedIp, "fig4-link-utilization")
}

/// Results of the Figs. 5/6 protocol: throughput, session-2 rate and tree
/// counts versus the tree budget, for the random-rounding algorithm and
/// the online algorithm at each ρ.
#[derive(Clone, Debug)]
pub struct LimitedTreesResult {
    /// Fig. 5(a): overall throughput vs budget, one series per algorithm.
    pub throughput: Figure,
    /// Fig. 5(b): session-2 rate vs budget.
    pub session2_rate: Figure,
    /// Fig. 6(a): distinct trees used by session 1 vs budget.
    pub trees_session1: Figure,
    /// Fig. 6(b): distinct trees used by session 2 vs budget.
    pub trees_session2: Figure,
}

/// Figs. 5 & 6 — tree-limited operation (§IV-D): randomized rounding of
/// the fractional MCF solution, and the online algorithm with replicated
/// sessions, swept over the tree budget.
#[must_use]
pub fn limited_trees(cfg: &Config, mode: RoutingMode, name_prefix: &str) -> LimitedTreesResult {
    let scenario = ScenarioA::build(cfg.seed, cfg.scale);
    let oracle = instance_for(&scenario, mode).oracle();
    let budgets = cfg.tree_budgets();
    let trials = cfg.trials();
    let root = SplitMix64::new(cfg.seed ^ 0xF15);

    // Fractional base solution at the paper's 95% setting.
    let frac = max_concurrent_flow_maxmin(
        &scenario.graph,
        oracle.as_ref(),
        experiment_params(match cfg.scale {
            crate::scenarios::Scale::Micro | crate::scenarios::Scale::Fast => 0.90,
            crate::scenarios::Scale::Paper => 0.95,
        }),
    );

    let mut throughput = Figure::new(
        &format!("{name_prefix}-throughput"),
        "maximum number of trees",
        "overall throughput",
    );
    let mut session2 = Figure::new(
        &format!("{name_prefix}-session2"),
        "maximum number of trees",
        "rate of session 2",
    );
    let mut trees1 = Figure::new(
        &format!("{name_prefix}-trees-s1"),
        "maximum number of trees",
        "number of trees",
    );
    let mut trees2 = Figure::new(
        &format!("{name_prefix}-trees-s2"),
        "maximum number of trees",
        "number of trees",
    );

    // Random rounding series.
    {
        let series: Vec<(usize, rounding::TrialStats)> = budgets
            .par_iter()
            .map(|&n| {
                let mut rng = Xoshiro256pp::new(root.derive_seed(n as u64));
                (
                    n,
                    rounding::rounding_trials(
                        &scenario.graph,
                        &scenario.sessions,
                        &frac,
                        n,
                        trials,
                        &mut rng,
                    ),
                )
            })
            .collect();
        throughput.push(Series::new(
            "Random",
            series.iter().map(|(n, s)| (*n as f64, s.throughput.mean)).collect(),
        ));
        session2.push(Series::new(
            "Random",
            series.iter().map(|(n, s)| (*n as f64, s.mean_session_rates[1])).collect(),
        ));
        trees1.push(Series::new(
            "Random",
            series.iter().map(|(n, s)| (*n as f64, s.mean_trees_used[0])).collect(),
        ));
        trees2.push(Series::new(
            "Random",
            series.iter().map(|(n, s)| (*n as f64, s.mean_trees_used[1])).collect(),
        ));
    }

    // Online series, one per ρ: replicate each session n times (demand 1),
    // average over arrival orders.
    for &rho in &cfg.rhos() {
        let per_budget: Vec<(usize, f64, f64, f64, f64)> = budgets
            .par_iter()
            .map(|&n| {
                let mut thr_acc = 0.0;
                let mut s2_acc = 0.0;
                let mut t1_acc = 0.0;
                let mut t2_acc = 0.0;
                for order in 0..trials {
                    let (set, groups) =
                        scenario.replicated_arrivals(n, cfg.seed ^ (order as u64) << 16 ^ n as u64);
                    let run_oracle: Box<dyn TreeOracle> = match mode {
                        RoutingMode::FixedIp => Box::new(FixedIpOracle::new(&scenario.graph, &set)),
                        RoutingMode::Arbitrary => {
                            Box::new(DynamicOracle::new(&scenario.graph, &set))
                        }
                    };
                    let out = online_min_congestion(&scenario.graph, run_oracle.as_ref(), rho);
                    let rates = out.aggregate_rates(&groups);
                    // Overall throughput weighs each original session's
                    // aggregated rate by its receiver count.
                    thr_acc += rates
                        .iter()
                        .enumerate()
                        .map(|(i, r)| scenario.sessions.session(i).receivers() as f64 * r)
                        .sum::<f64>();
                    s2_acc += rates[1];
                    t1_acc += out.aggregate_tree_count(&groups[0]) as f64;
                    t2_acc += out.aggregate_tree_count(&groups[1]) as f64;
                }
                let n_orders = trials as f64;
                (n, thr_acc / n_orders, s2_acc / n_orders, t1_acc / n_orders, t2_acc / n_orders)
            })
            .collect();
        let label = format!("Online (r={rho:.0})");
        throughput.push(Series::new(
            label.clone(),
            per_budget.iter().map(|&(n, thr, ..)| (n as f64, thr)).collect(),
        ));
        session2.push(Series::new(
            label.clone(),
            per_budget.iter().map(|&(n, _, s2, ..)| (n as f64, s2)).collect(),
        ));
        trees1.push(Series::new(
            label.clone(),
            per_budget.iter().map(|&(n, _, _, t1, _)| (n as f64, t1)).collect(),
        ));
        trees2.push(Series::new(
            label,
            per_budget.iter().map(|&(n, _, _, _, t2)| (n as f64, t2)).collect(),
        ));
    }

    LimitedTreesResult {
        throughput,
        session2_rate: session2,
        trees_session1: trees1,
        trees_session2: trees2,
    }
}

/// Figs. 5 & 6 under fixed IP routing.
#[must_use]
pub fn fig5_6(cfg: &Config) -> LimitedTreesResult {
    limited_trees(cfg, RoutingMode::FixedIp, "fig5-6-limited-trees")
}

/// Figs. 7–11 — the §V arbitrary-routing counterparts of Figs. 2–6.
#[must_use]
pub fn fig7_to_11(cfg: &Config) -> (Vec<Figure>, Vec<Figure>, Vec<Figure>, LimitedTreesResult) {
    let fig7 = fig2_impl(cfg, RoutingMode::Arbitrary, "fig7-maxflow-rate-cdf-arbitrary");
    let fig8 = fig3_impl(cfg, RoutingMode::Arbitrary, "fig8-mcf-rate-cdf-arbitrary");
    let fig9 = fig4_impl(cfg, RoutingMode::Arbitrary, "fig9-link-utilization-arbitrary");
    let fig10_11 = limited_trees(cfg, RoutingMode::Arbitrary, "fig10-11-limited-trees-arbitrary");
    (fig7, fig8, fig9, fig10_11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scale;

    fn tiny_cfg() -> Config {
        Config { scale: Scale::Fast, seed: 42 }
    }

    #[test]
    fn table2_has_expected_shape_and_trends() {
        let cfg = tiny_cfg();
        let t = table2(&cfg);
        assert_eq!(t.ratios, cfg.ratios());
        assert_eq!(t.rows.len(), 6);
        // Session 1 (7 members) should out-rate session 2 (5 members) under
        // MaxFlow — the paper's size-bias observation.
        let s1 = &t.rows[0].1;
        let s2 = &t.rows[1].1;
        assert!(s1.last().unwrap() > s2.last().unwrap(), "s1 {s1:?} vs s2 {s2:?}");
        // MST-op count grows with the ratio.
        let ops = &t.rows[5].1;
        assert!(ops.last().unwrap() > ops.first().unwrap());
    }

    #[test]
    fn table4_shows_fairness_recovery() {
        let cfg = tiny_cfg();
        let t2 = table2(&cfg);
        let t4 = table4(&cfg);
        // MCF lifts session 2 relative to MaxFlow and costs total
        // throughput (paper: Table IV vs II).
        let mf_s2 = t2.rows[1].1.last().unwrap();
        let mcf_s2 = t4.rows[1].1.last().unwrap();
        assert!(mcf_s2 > mf_s2, "MCF should raise the small session: {mcf_s2} vs {mf_s2}");
        let mf_total = t2.rows[2].1.last().unwrap();
        let mcf_total = t4.rows[2].1.last().unwrap();
        // The max-min completed MCF cannot exceed the true optimum; against
        // an eps-approximate MaxFlow the headroom is 1/ratio.
        assert!(
            *mcf_total <= mf_total * 1.12,
            "completed MCF {mcf_total} implausibly above MaxFlow {mf_total}"
        );
    }

    #[test]
    fn fig2_curves_are_valid_cdfs() {
        let figs = fig2(&tiny_cfg());
        assert_eq!(figs.len(), 2);
        for f in &figs {
            assert_eq!(f.series.len(), tiny_cfg().ratios().len());
            for s in &f.series {
                let last = s.points.last().unwrap();
                assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at 1");
            }
        }
    }

    #[test]
    fn fig4_utilization_bounded() {
        let figs = fig4(&tiny_cfg());
        for f in &figs {
            for s in &f.series {
                for (_, u) in &s.points {
                    assert!((0.0..=1.0 + 1e-9).contains(u));
                }
            }
        }
    }

    #[test]
    fn arbitrary_routing_changes_little_fast_scale() {
        // The paper's headline §V finding — arbitrary routing helps < 1% —
        // needs the 100-node paper topology (verified in the ignored test
        // below and in EXPERIMENTS.md). The 60-node fast instance is close
        // to a tree (~70 links), where routing freedom can matter more; we
        // still require the two regimes to be within 25%.
        let cfg = tiny_cfg();
        let fixed = table2(&cfg);
        let arb = table7(&cfg);
        let f = fixed.rows[2].1.last().unwrap();
        let a = arb.rows[2].1.last().unwrap();
        assert!(
            (a - f).abs() / f < 0.25,
            "arbitrary {a} vs fixed {f}: regimes diverged implausibly"
        );
    }

    #[test]
    #[ignore = "paper-scale run (~1 min in release); validates the <1% §V claim"]
    fn arbitrary_routing_changes_little_paper_scale() {
        let cfg = Config { scale: Scale::Paper, seed: 42 };
        let (scenario, fixed) =
            max_flow_sweep(&Config { scale: Scale::Paper, seed: cfg.seed }, RoutingMode::FixedIp);
        let (_, arb) = max_flow_sweep(&cfg, RoutingMode::Arbitrary);
        let _ = scenario;
        let f = fixed[0].summary.overall_throughput;
        let a = arb[0].summary.overall_throughput;
        assert!(
            (a - f).abs() / f < 0.01,
            "arbitrary {a} vs fixed {f}: the paper's <1% finding failed"
        );
    }
}
