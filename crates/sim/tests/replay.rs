//! Pinned integration tests for the `omcf-runtime` event loop against the
//! scenario registry — the acceptance contract of the runtime subsystem:
//!
//! 1. incremental replay of every churn-bearing scenario produces final
//!    session rates **bit-identical** to the cold batch `OnlineSolver`
//!    run on the same trace and seed;
//! 2. the replay's surviving population matches `ChurnSchedule`'s static
//!    final view (the `Instance` session set offline solvers answer for);
//! 3. replay output (drift CSV included) is byte-identical between
//!    serial and parallel metric collection, at every tested thread
//!    count and across repeated runs at the same count.

use omcf_core::solver::SolverKind;
use omcf_core::Parallelism;
use omcf_runtime::{replay_churn, Reoptimizer, ReplayConfig};
use omcf_sim::registry;
use omcf_sim::Scale;
use std::sync::Arc;

const SEEDS: [u64; 2] = [2004, 7];

#[test]
fn replay_matches_cold_batch_online_solver_bit_for_bit() {
    for spec in registry::churn_bearing() {
        for seed in SEEDS {
            let inst = spec.instance(seed, Scale::Micro);
            let churn = inst.churn.as_ref().expect("churn-bearing instance");
            let cfg = ReplayConfig::new(inst.rho, inst.routing).with_reopt_every(0);
            let report = replay_churn(Arc::clone(&inst.graph), churn, &cfg);
            let batch = SolverKind::Online.solver().run(&inst);
            assert_eq!(
                report.final_rates.len(),
                batch.summary.session_rates.len(),
                "{}/{seed}",
                spec.name
            );
            for (i, ((_, r), b)) in
                report.final_rates.iter().zip(&batch.summary.session_rates).enumerate()
            {
                assert_eq!(
                    r.to_bits(),
                    b.to_bits(),
                    "{}/{seed} survivor {i}: replay {r} vs batch {b}",
                    spec.name
                );
            }
            assert_eq!(report.joins as u64, batch.mst_ops, "one oracle call per join");
        }
    }
}

#[test]
fn replay_survivors_match_churn_schedules_static_view() {
    for spec in registry::churn_bearing() {
        let inst = spec.instance(SEEDS[0], Scale::Micro);
        let churn = inst.churn.as_ref().expect("churn-bearing instance");
        let cfg = ReplayConfig::new(inst.rho, inst.routing).with_reopt_every(0);
        let report = replay_churn(Arc::clone(&inst.graph), churn, &cfg);
        // The surviving join indices are exactly the schedule's static
        // final view, which is also the instance's session set.
        let surviving_joins: Vec<usize> = report.final_rates.iter().map(|&(i, _)| i).collect();
        assert_eq!(surviving_joins, churn.survivor_joins(), "{}", spec.name);
        assert_eq!(report.final_rates.len(), inst.sessions.len(), "{}", spec.name);
        assert_eq!(report.joins, churn.join_count(), "{}", spec.name);
        assert_eq!(report.leaves, churn.events().len() - churn.join_count(), "{}", spec.name);
    }
}

#[test]
fn replay_output_is_byte_identical_across_thread_counts() {
    for spec in registry::churn_bearing() {
        let inst = spec.instance(SEEDS[1], Scale::Micro);
        let churn = inst.churn.as_ref().expect("churn-bearing instance");
        let base = ReplayConfig::new(inst.rho, inst.routing)
            .with_reopt_every(2)
            .with_reoptimizer(Reoptimizer::new(SolverKind::M2));
        let serial = replay_churn(Arc::clone(&inst.graph), churn, &base);
        assert!(!serial.drift.is_empty(), "{}: cadence 2 must sample drift", spec.name);
        for threads in [1usize, 2, 4, 8] {
            let policy =
                Parallelism::Threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
            let parallel =
                replay_churn(Arc::clone(&inst.graph), churn, &base.with_parallelism(policy));
            assert_eq!(
                serial.drift_csv(),
                parallel.drift_csv(),
                "{}: drift series diverged at {threads} threads",
                spec.name
            );
            assert_eq!(serial.final_rates.len(), parallel.final_rates.len());
            for ((ia, ra), (ib, rb)) in serial.final_rates.iter().zip(&parallel.final_rates) {
                assert_eq!(ia, ib, "{}", spec.name);
                assert_eq!(ra.to_bits(), rb.to_bits(), "{}", spec.name);
            }
        }
        // Repeat at one fixed count: which worker claims which
        // checkpoint varies between runs, the drift bytes must not.
        let four = Parallelism::Threads(std::num::NonZeroUsize::new(4).expect("nonzero"));
        let a = replay_churn(Arc::clone(&inst.graph), churn, &base.with_parallelism(four));
        let b = replay_churn(Arc::clone(&inst.graph), churn, &base.with_parallelism(four));
        assert_eq!(a.drift_csv(), b.drift_csv(), "{}: repeat at 4 threads unstable", spec.name);
        // Drift is sane: online-vs-batch congestion ratios are positive
        // and finite on every checkpointed population.
        for s in &serial.drift {
            assert!(s.drift.is_finite() && s.drift > 0.0, "{}: {s:?}", spec.name);
        }
    }
}
