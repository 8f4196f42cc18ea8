//! Integration contract of the telemetry subsystem against real
//! workloads — the acceptance tests of `docs/OBSERVABILITY.md`:
//!
//! 1. **Count-class bit-identity.** The deterministic view of a sweep's
//!    telemetry (every `Class::Count` counter/histogram plus span call
//!    counts) is byte-identical across `Parallelism::Serial` and
//!    `Threads{1,2,4}`, and across repeated runs at the same count, for
//!    the sweep grid and for the part-one ratio sweeps. Wall-clock
//!    metrics are excluded by construction — `deterministic_view` never
//!    renders them.
//! 2. **Schema round-trip.** The profile JSON renders through the
//!    sorted-key writer, passes the strict JSON/sorted-keys linter, and
//!    carries every metric family the wired subsystems emit.
//! 3. **Collection is invisible to artifacts.** Sweep CSV bytes are
//!    identical with telemetry enabled and disabled.
//!
//! All tests share process-global telemetry state, so they serialize on
//! one mutex and reset the registry around every run.

use omcf_core::solver::{SolverKind, SolverOutcome};
use omcf_core::Parallelism;
use omcf_runtime::{replay_churn, ReplayConfig};
use omcf_sim::experiments::{part_one, Config, RoutingMode};
use omcf_sim::registry;
use omcf_sim::sweep::{run_sweep, SweepConfig};
use omcf_sim::Scale;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

/// Serializes the tests (telemetry state is process-global).
static LOCK: Mutex<()> = Mutex::new(());

/// A small but subsystem-spanning grid: one fixed-IP and one
/// dynamic-routing scenario (the latter exercises the Dijkstra workspace
/// pool and the fan driver) × all four solvers.
fn micro_cfg(par: Parallelism) -> SweepConfig {
    SweepConfig::full(Scale::Micro, vec![7])
        .with_scenarios(&["ring-lattice", "scenario-a-dynamic"])
        .with_parallelism(par)
}

/// Runs `f` with telemetry freshly enabled, returning the deterministic
/// view of everything it recorded.
fn collect(f: impl FnOnce()) -> String {
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    f();
    let view = omcf_telemetry::snapshot().deterministic_view();
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
    view
}

#[test]
fn count_metrics_bit_identical_across_thread_counts_and_repeats() {
    let _guard = LOCK.lock().unwrap();
    let baseline = collect(|| {
        let _ = run_sweep(&micro_cfg(Parallelism::Serial));
    });
    // The baseline must actually have metrics in it, from every layer the
    // sweep exercises.
    for needle in [
        "counter engine.augment.count ",
        "counter engine.oracle.calls ",
        "counter oracle.dynamic.cache.hits ",
        "counter oracle.dynamic.cache.misses ",
        "counter oracle.fixed.cache.hits ",
        "counter oracle.fixed.cache.misses ",
        "counter routing.dijkstra.runs ",
        "counter routing.heap.pushes ",
        "counter routing.heap.pops ",
        "counter routing.relaxations ",
        "counter routing.pool.leases ",
        "counter sweep.cells 8",
        "histogram sweep.cell.mst_ops ",
        "span sweep.cell 8",
    ] {
        assert!(baseline.contains(needle), "baseline view missing `{needle}`:\n{baseline}");
    }
    // Wall-class metrics must NOT leak into the deterministic view.
    for forbidden in ["pool.allocs", "solve.us", "in_flight"] {
        assert!(!baseline.contains(forbidden), "wall-class `{forbidden}` leaked:\n{baseline}");
    }
    for threads in [1usize, 2, 4] {
        let view = collect(|| {
            let _ = run_sweep(&micro_cfg(threads_policy(threads)));
        });
        assert_eq!(baseline, view, "Threads({threads}) diverged from Serial");
    }
    let repeat = collect(|| {
        let _ = run_sweep(&micro_cfg(threads_policy(4)));
    });
    assert_eq!(baseline, repeat, "repeated Threads(4) run diverged");
}

fn threads_policy(threads: usize) -> Parallelism {
    Parallelism::Threads(NonZeroUsize::new(threads).unwrap())
}

#[test]
fn part_one_count_metrics_bit_identical_across_thread_counts_and_repeats() {
    // The part-one ratio sweeps solve their ratios in parallel, each run
    // against its own oracle, so even the oracle-cache counters depend
    // only on each run's query sequence. Fast has three ratios to
    // interleave; Micro has one.
    let _guard = LOCK.lock().unwrap();
    let cfg = Config { scale: Scale::Fast, seed: 2004 };
    let sweeps = |threads: usize| {
        let mut objectives = Vec::new();
        let view = collect(|| {
            objectives = threads_policy(threads).install(|| {
                [part_one::max_flow_sweep, part_one::mcf_sweep]
                    .iter()
                    .flat_map(|sweep| sweep(&cfg, RoutingMode::FixedIp).1)
                    .map(|out| out.objective.to_bits())
                    .collect::<Vec<u64>>()
            });
        });
        (view, objectives)
    };
    let (baseline, objectives) = sweeps(2);
    assert!(
        baseline.contains("counter oracle.cache.bypassed "),
        "baseline view missing the bypass counter:\n{baseline}"
    );
    for (threads, run) in [(4, "Threads(4)"), (4, "repeated Threads(4)")] {
        let (view, outs) = sweeps(threads);
        assert_eq!(baseline, view, "{run} view diverged from Threads(2)");
        assert_eq!(objectives, outs, "{run} objectives diverged from Threads(2)");
    }
}

#[test]
fn profile_json_round_trips_with_all_families() {
    let _guard = LOCK.lock().unwrap();
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    let _ = run_sweep(&micro_cfg(Parallelism::Serial));
    // One churn replay so the runtime family is populated too.
    let spec = registry::churn_bearing()[0];
    let inst = spec.instance(7, Scale::Micro);
    let churn = inst.churn.as_ref().expect("churn-bearing instance");
    let replay_cfg = ReplayConfig::new(inst.rho, inst.routing).with_reopt_every(4);
    let _ = replay_churn(Arc::clone(&inst.graph), churn, &replay_cfg);

    let snap = omcf_telemetry::snapshot();
    omcf_telemetry::set_enabled(false);
    for family in ["engine", "oracle", "routing", "runtime", "sweep"] {
        assert!(snap.has_family(family), "family `{family}` missing from snapshot");
    }
    let json = omcf_telemetry::render_profile_json(&snap);
    let objects = omcf_telemetry::lint_sorted_json(&json)
        .unwrap_or_else(|e| panic!("profile JSON failed lint: {e}\n{json}"));
    assert!(objects > 10, "suspiciously small profile ({objects} objects)");
    assert!(json.contains("\"schema\": \"omcf-telemetry-v1\""));
    // Wall metrics are exported — but marked.
    assert!(json.contains("\"class\": \"wall\""));
    assert!(json.contains("\"class\": \"count\""));
    omcf_telemetry::reset();
}

#[test]
fn collection_never_changes_artifact_bytes() {
    let _guard = LOCK.lock().unwrap();
    let cfg = micro_cfg(Parallelism::Serial);
    omcf_telemetry::set_enabled(false);
    let off = run_sweep(&cfg).to_csv();
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    let on = run_sweep(&cfg).to_csv();
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
    assert_eq!(off, on, "telemetry collection changed sweep CSV bytes");
    // And the per-instance oracle stats solvers report are unchanged:
    // mst_ops columns come from OwnedCounter locals that count regardless
    // of the global switch.
    let kind = SolverKind::M1;
    let inst = registry::find("ring-lattice").unwrap().instance(7, Scale::Micro);
    let oracle = inst.oracle();
    let out = kind.solver().solve(&inst, oracle.as_ref());
    assert!(out.mst_ops > 0, "per-instance mst_ops still counted while disabled");
}

/// Solves `scale-free-large@2004` at `Scale::Micro` with `kind` under
/// fresh telemetry, returning the outcome and the counter snapshot.
fn solve_large(kind: SolverKind) -> (SolverOutcome, omcf_telemetry::Snapshot) {
    let inst = registry::find("scale-free-large").unwrap().instance(2004, Scale::Micro);
    omcf_telemetry::set_enabled(true);
    omcf_telemetry::reset();
    let out = kind.solver().run(&inst);
    let snap = omcf_telemetry::snapshot();
    omcf_telemetry::set_enabled(false);
    omcf_telemetry::reset();
    (out, snap)
}

fn counter(snap: &omcf_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

#[test]
fn m2_stop_tests_rarely_need_a_full_dual_sum() {
    // Count-based guard on M2's stop test: one M2 solve of the
    // 4k-edge fixed-IP scenario makes thousands of `D ≥ 1` tests, and
    // the running dual sum decides all but a handful of them. A return
    // of the per-step O(|E|) sum shows up here as full_sums ≈ tests.
    let _guard = LOCK.lock().unwrap();
    let (_, snap) = solve_large(SolverKind::M2);
    let (tests, full_sums) =
        (counter(&snap, "engine.dual.tests"), counter(&snap, "engine.dual.full_sums"));
    assert!(tests >= 1000, "expected thousands of stop tests, got {tests}");
    assert!((1..=8).contains(&full_sums), "{full_sums} full sums for {tests} stop tests");
}

#[test]
fn only_solvers_that_report_a_bound_pay_for_bound_sums() {
    // Count-based guard on `observe_alpha`'s O(|E|) sums. M1 makes one
    // per iteration plus one for the tree that stops it, Fleischer one
    // after its first sweep and one after its last; M2 reports no bound,
    // so its λ pre-pass and residual MaxFlow runs make none.
    let _guard = LOCK.lock().unwrap();
    let bound_sums = |snap: &omcf_telemetry::Snapshot| counter(snap, "engine.dual.bound_sums");
    let (_, m2) = solve_large(SolverKind::M2);
    assert_eq!(bound_sums(&m2), 0, "M2 computed a bound it never reads");
    let (m1_out, m1) = solve_large(SolverKind::M1);
    assert_eq!(bound_sums(&m1), m1_out.iterations + 1, "M1 bound sums");
    let (_, fleischer) = solve_large(SolverKind::M1Fleischer);
    assert_eq!(bound_sums(&fleischer), 2, "Fleischer bound sums");
}
