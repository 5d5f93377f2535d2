//! Cross-crate integration tests: record an observed execution with the
//! store, predict with the analysis, validate by replaying the workload.

use isopredict::{
    validate, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_history::{causal, serializability};
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};

fn predict(
    observed: &isopredict_history::History,
    strategy: Strategy,
    isolation: IsolationLevel,
) -> PredictionOutcome {
    Predictor::new(PredictorConfig {
        strategy,
        isolation,
        ..PredictorConfig::default()
    })
    .predict(observed, &Obs::off())
}

#[test]
fn every_benchmark_records_a_serializable_observed_execution() {
    for benchmark in Benchmark::all() {
        for seed in 0..3 {
            let config = WorkloadConfig::small(seed);
            let observed = run(
                benchmark,
                &config,
                StoreMode::SerializableRecord,
                &Schedule::RoundRobin,
            );
            assert!(
                serializability::check(&observed.history).is_serializable(),
                "{benchmark} seed {seed}"
            );
            assert!(observed.violations.is_empty(), "{benchmark} seed {seed}");
        }
    }
}

#[test]
fn predictions_are_unserializable_and_respect_the_isolation_level() {
    for benchmark in [Benchmark::Smallbank, Benchmark::Tpcc] {
        for isolation in IsolationLevel::ALL {
            // Three transactions per session keep the debug-mode solves quick
            // while still leaving room for cross-session anomalies; snapshot
            // isolation gets two, because its no-prediction proofs are the
            // most expensive solver calls in the workspace.
            let txns_per_session = if isolation == IsolationLevel::Snapshot {
                2
            } else {
                3
            };
            let config = WorkloadConfig {
                txns_per_session,
                ..WorkloadConfig::small(0)
            };
            let observed = run(
                benchmark,
                &config,
                StoreMode::SerializableRecord,
                &Schedule::RoundRobin,
            );
            let outcome = predict(&observed.history, Strategy::ApproxRelaxed, isolation);
            if let PredictionOutcome::Prediction(prediction) = outcome {
                assert!(
                    !serializability::check(&prediction.predicted).is_serializable(),
                    "{benchmark} under {isolation}: prediction must be unserializable"
                );
                assert!(
                    isolation.is_conformant(&prediction.predicted),
                    "{benchmark} under {isolation}: prediction must conform to its level"
                );
            }
        }
    }
}

#[test]
fn rc_predictions_are_at_least_as_frequent_as_causal_ones() {
    // rc is strictly weaker than causal, so every causal prediction
    // opportunity is also an rc one (Tables 4 vs 5). A shortened workload
    // keeps the debug-mode unsatisfiability proofs cheap; the full sweep is
    // the table4_5 binary's job.
    for benchmark in Benchmark::all() {
        let mut causal_found = 0;
        let mut rc_found = 0;
        for seed in 0..1 {
            let config = WorkloadConfig {
                txns_per_session: 2,
                ..WorkloadConfig::small(seed)
            };
            let observed = run(
                benchmark,
                &config,
                StoreMode::SerializableRecord,
                &Schedule::RoundRobin,
            );
            if predict(
                &observed.history,
                Strategy::ApproxRelaxed,
                IsolationLevel::Causal,
            )
            .is_prediction()
            {
                causal_found += 1;
            }
            if predict(
                &observed.history,
                Strategy::ApproxRelaxed,
                IsolationLevel::ReadCommitted,
            )
            .is_prediction()
            {
                rc_found += 1;
            }
        }
        assert!(
            rc_found >= causal_found,
            "{benchmark}: rc found {rc_found}, causal found {causal_found}"
        );
    }
}

#[test]
fn smallbank_validation_confirms_the_prediction() {
    // Find a seed with a causal prediction and validate it end to end.
    for seed in 0..5 {
        let config = WorkloadConfig::small(seed);
        let observed = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        let outcome = predict(
            &observed.history,
            Strategy::ApproxRelaxed,
            IsolationLevel::Causal,
        );
        let PredictionOutcome::Prediction(prediction) = outcome else {
            continue;
        };
        let plan = validate::plan_validation(&prediction, &observed.committed_indices);
        assert!(!plan.schedule.is_empty());
        let validating = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::Controlled {
                level: IsolationLevel::Causal,
                script: plan.script.clone(),
            },
            &Schedule::Explicit(plan.schedule.clone()),
        );
        let assessment = validate::assess(&validating.history, &validating.divergences);
        // The validating execution must at least conform to the isolation level.
        assert!(causal::is_causal(&validating.history), "seed {seed}");
        // In the overwhelmingly common case (>99% in the paper) it is also
        // unserializable; accept a rare serializable divergence but require
        // that at least one seed validates.
        if assessment.validated {
            return;
        }
    }
    panic!("no seed in 0..5 produced a validated Smallbank prediction under causal");
}

/// The write-skew application: two sessions share a two-key invariant
/// (`x + y` must cover each withdrawal); each withdraws from its own key
/// after checking the combined balance. Balances are high enough that both
/// withdrawals commit even serially — so the observed history contains both
/// writes, and the predictable anomaly is the crossed stale reads (write
/// skew), not a suppressed guard. Drives the store directly (no workload
/// crate) so the test controls every event.
fn run_withdrawals(
    mode: isopredict_store::StoreMode,
    order: &[usize],
) -> (
    isopredict_history::History,
    Vec<isopredict_store::Divergence>,
) {
    let engine = isopredict_store::Engine::new(mode);
    engine.set_initial("x", isopredict_store::Value::Int(100));
    engine.set_initial("y", isopredict_store::Value::Int(100));
    let clients = [engine.client("alice"), engine.client("bob")];
    let own_keys = ["x", "y"];
    for &session in order {
        let mut t = clients[session].begin();
        t.declare_writes([own_keys[session]]);
        let x = t.get_int("x", 0);
        let y = t.get_int("y", 0);
        if x + y >= 60 {
            let own = if session == 0 { x } else { y };
            t.put(own_keys[session], own - 60);
        }
        t.commit();
    }
    (engine.history(), engine.divergences())
}

#[test]
fn snapshot_isolation_write_skew_predicts_and_validates_end_to_end() {
    // Record the serializable observation: both withdrawals commit, the
    // second observing the first's effect.
    let (observed, _) = run_withdrawals(StoreMode::SerializableRecord, &[0, 1]);
    assert!(serializability::check(&observed).is_serializable());

    // Predict under snapshot isolation: the only anomaly here is write skew.
    let outcome = predict(&observed, Strategy::ApproxRelaxed, IsolationLevel::Snapshot);
    let PredictionOutcome::Prediction(prediction) = outcome else {
        panic!("write skew must be predicted under snapshot isolation");
    };
    assert!(
        isopredict_history::si::is_si(&prediction.predicted),
        "prediction must be SI-legal"
    );
    assert!(
        !serializability::check(&prediction.predicted).is_serializable(),
        "prediction must be unserializable"
    );

    // Validate by steering a replay of the same application.
    let committed = vec![vec![0], vec![0]];
    let plan = validate::plan_validation(&prediction, &committed);
    let schedule: Vec<usize> = plan.schedule.iter().map(|&(session, _)| session).collect();
    let (validating, divergences) = run_withdrawals(
        StoreMode::Controlled {
            level: IsolationLevel::Snapshot,
            script: plan.script.clone(),
        },
        &schedule,
    );
    let assessment = validate::assess(&validating, &divergences);
    assert!(
        assessment.validated,
        "the validating execution must be unserializable: {assessment:?}"
    );
    assert!(!assessment.diverged, "{:?}", assessment.divergences);
    assert!(
        isopredict_history::si::is_si(&validating),
        "the validating execution must stay SI"
    );
}

#[test]
fn voter_reproduces_the_causal_rc_asymmetry() {
    let mut rc_predictions = 0;
    for seed in 0..2 {
        let config = WorkloadConfig {
            txns_per_session: 2,
            ..WorkloadConfig::small(seed)
        };
        let observed = run(
            Benchmark::Voter,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        let causal_outcome = predict(
            &observed.history,
            Strategy::ApproxRelaxed,
            IsolationLevel::Causal,
        );
        assert!(
            causal_outcome.is_no_prediction(),
            "seed {seed}: Voter must have no causal prediction"
        );
        if predict(
            &observed.history,
            Strategy::ApproxRelaxed,
            IsolationLevel::ReadCommitted,
        )
        .is_prediction()
        {
            rc_predictions += 1;
        }
    }
    assert!(rc_predictions > 0, "Voter must have rc predictions");
}
