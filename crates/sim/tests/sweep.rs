//! Sweep-driver integration tests: the full registry runs, and the CSV
//! is byte-identical across execution policies — serial, every tested
//! thread count, and repeated runs at the same count (which would catch
//! nondeterministic stealing-order leaks).

use omcf_core::solver::SolverKind;
use omcf_core::Parallelism;
use omcf_sim::registry;
use omcf_sim::sweep::{run_sweep, SweepConfig};
use omcf_sim::Scale;
use std::num::NonZeroUsize;

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(NonZeroUsize::new(n).expect("positive"))
}

// The determinism and whole-grid tests run the *standard* grid: the
// heavy (≥2k-node) scenarios take minutes per cell in debug builds and
// have their own targeted test below; `repro --micro sweep` (release,
// CI) covers them end to end every run.

#[test]
fn sweep_csv_is_byte_identical_across_thread_counts() {
    let base = SweepConfig::standard(Scale::Micro, vec![2004, 7]);
    // Threads(1) takes the serial path (a one-worker pool cannot
    // overlap); it doubles as the reference bytes here.
    let reference = run_sweep(&base.clone().with_parallelism(threads(1))).to_csv();
    assert_eq!(
        reference,
        run_sweep(&base.clone().with_parallelism(Parallelism::Serial)).to_csv(),
        "Threads(1) must equal Serial"
    );
    for n in [2usize, 4, 8] {
        let cfg = base.clone().with_parallelism(threads(n));
        let first = run_sweep(&cfg).to_csv();
        assert_eq!(reference, first, "sweep at {n} threads diverged from serial bytes");
        // Same count again: stealing order varies between runs, output
        // must not.
        let second = run_sweep(&cfg).to_csv();
        assert_eq!(first, second, "repeated sweep at {n} threads is unstable");
    }
}

#[test]
fn heavy_scenarios_solve_online_and_deterministically() {
    // One cheap solver over the ≥2k-node scenarios: the online algorithm
    // does one oracle call per session, so even a debug build routes the
    // full 32-session population over the thousand-node CSR core in
    // seconds — enough to pin shape and determinism without paying an
    // FPTAS solve per test run.
    let mut cfg = SweepConfig::full(Scale::Micro, vec![2004]).with_parallelism(Parallelism::Serial);
    cfg.scenarios = registry::heavy();
    cfg.solvers = vec![SolverKind::Online];
    let res = run_sweep(&cfg);
    assert_eq!(res.records.len(), 2);
    for r in &res.records {
        assert!(r.nodes >= 2048, "{} shrank below the scale floor", r.scenario);
        assert!(r.sessions >= 32, "{}", r.scenario);
        assert!(r.throughput > 0.0, "{} routed nothing", r.scenario);
        assert!(r.max_congestion <= 1.0 + 1e-6, "{}", r.scenario);
    }
    // Second run with a real worker pool: the byte-identical contract
    // must hold on the heavy cells too (shared WorkspacePool under
    // genuine work stealing).
    cfg = cfg.with_parallelism(threads(4));
    let again = run_sweep(&cfg);
    assert_eq!(res.to_csv(), again.to_csv(), "heavy parallel sweep diverged from serial");
}

#[test]
fn full_registry_times_all_solvers_produces_the_whole_grid() {
    let cfg = SweepConfig::standard(Scale::Micro, vec![11]);
    let res = run_sweep(&cfg);
    let expected = registry::standard().len() * SolverKind::ALL.len();
    assert!(expected >= 6 * 4, "acceptance floor: ≥ 6 scenarios × 4 solvers");
    assert_eq!(res.records.len(), expected);
    for r in &res.records {
        assert!(r.throughput > 0.0, "{}/{} routed nothing", r.scenario, r.solver.name());
        assert!(
            r.max_congestion <= 1.0 + 1e-6,
            "{}/{} infeasible: congestion {}",
            r.scenario,
            r.solver.name(),
            r.max_congestion
        );
        assert!(r.mst_ops > 0);
        assert!(r.nodes > 0 && r.edges > 0 && r.sessions > 0);
    }
    // Every standard scenario and every solver appears.
    for spec in registry::standard() {
        assert!(res.records.iter().any(|r| r.scenario == spec.name), "missing {}", spec.name);
    }
    for kind in SolverKind::ALL {
        assert!(res.records.iter().any(|r| r.solver == kind), "missing {kind:?}");
    }
}

#[test]
fn scenario_subset_selection_works() {
    let cfg = SweepConfig::full(Scale::Micro, vec![3]).with_scenarios(&["hotspot", "churn"]);
    let res = run_sweep(&cfg);
    assert_eq!(res.records.len(), 2 * SolverKind::ALL.len());
    assert!(res.records.iter().all(|r| r.scenario == "hotspot" || r.scenario == "churn"));
}
