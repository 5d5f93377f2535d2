//! Property test: sharding is lossless.
//!
//! For histories whose sessions are key-disjoint (each session touches only
//! its own component's keys — the invariant the communication decomposition
//! guarantees), merging per-component predictions must land in the same
//! outcome class as whole-history analysis, and an embedded component
//! prediction must be a genuine whole-history anomaly.

use proptest::prelude::*;

use isopredict::Strategy as PredictionStrategy;
use isopredict::{IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig};
use isopredict_history::{serializability, History, HistoryBuilder, TxnId};
use isopredict_orchestrator::{merge_outcomes, ShardPlan, ShardPolicy};

/// Builds one serializable-by-construction component on its own sessions and
/// keys: every read observes the latest committed write, as the recording
/// store would produce. `layout[s][t]` lists the key indices (within this
/// component's private key space) of session `s`'s transaction `t`.
fn build_component(builder: &mut HistoryBuilder, component: usize, layout: &[Vec<Vec<u8>>]) {
    let sessions: Vec<_> = (0..layout.len())
        .map(|s| builder.session(format!("c{component}-s{s}")))
        .collect();
    let mut latest: Vec<TxnId> = vec![TxnId::INITIAL; 3];
    let max_txns = layout.iter().map(Vec::len).max().unwrap_or(0);
    for txn_index in 0..max_txns {
        for (s, session_txns) in layout.iter().enumerate() {
            let Some(keys) = session_txns.get(txn_index) else {
                continue;
            };
            let txn = builder.begin(sessions[s]);
            for &key in keys {
                let key = (key % 3) as usize;
                let name = format!("c{component}-k{key}");
                builder.read(txn, &name, latest[key]);
                builder.write(txn, &name);
                latest[key] = txn;
            }
            builder.commit(txn);
        }
    }
}

/// A history of 2–3 key-disjoint components, each 2 sessions × ≤2 txns.
fn history_from(layouts: &[Vec<Vec<Vec<u8>>>]) -> History {
    let mut builder = HistoryBuilder::new();
    for (component, layout) in layouts.iter().enumerate() {
        build_component(&mut builder, component, layout);
    }
    builder.finish()
}

fn layouts_strategy() -> impl Strategy<Value = Vec<Vec<Vec<Vec<u8>>>>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u8..3, 1..3), 1..3),
            2..3,
        ),
        2..4,
    )
}

fn outcome_class(outcome: &PredictionOutcome) -> &'static str {
    match outcome {
        PredictionOutcome::Prediction(_) => "prediction",
        PredictionOutcome::NoPrediction { .. } => "no_prediction",
        PredictionOutcome::Unknown { .. } => "unknown",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Merged per-component analysis ≡ whole-history analysis (outcome
    /// class), for every isolation level of the seam.
    #[test]
    fn merged_component_predictions_match_whole_history_analysis(
        layouts in layouts_strategy()
    ) {
        let observed = history_from(&layouts);
        prop_assert!(serializability::check(&observed).is_serializable());

        let plan = ShardPlan::new(&observed, ShardPolicy::Always);
        prop_assert!(
            plan.components.len() >= 2,
            "construction must yield multiple components"
        );

        // Causal and read committed only: whole-history *no-prediction*
        // proofs under snapshot isolation routinely exhaust the solver budget
        // in debug builds (SI equivalence is covered by the campaign smoke
        // test and the core predictor tests on smaller histories).
        for isolation in [IsolationLevel::Causal, IsolationLevel::ReadCommitted] {
            let predictor = Predictor::new(PredictorConfig {
                strategy: PredictionStrategy::ApproxRelaxed,
                isolation,
                conflict_budget: Some(500_000),
                ..PredictorConfig::default()
            });

            let whole = predictor.predict(&observed, &Obs::off());
            let per_unit: Vec<PredictionOutcome> = plan
                .units
                .iter()
                .map(|unit| predictor.predict(&plan.history_for(&observed, unit), &Obs::off()))
                .collect();
            let merged = merge_outcomes(&observed, &per_unit, plan.sharded);

            // Budget exhaustion is machine-load dependent; only compare
            // decisive verdicts.
            if whole.is_unknown() || merged.outcome.is_unknown() {
                continue;
            }
            prop_assert_eq!(
                outcome_class(&whole),
                outcome_class(&merged.outcome),
                "{}: whole-history and merged shard verdicts disagree",
                isolation
            );

            // An embedded prediction must hold up against the independent
            // whole-history checkers.
            if let PredictionOutcome::Prediction(prediction) = &merged.outcome {
                prop_assert!(
                    !serializability::check(&prediction.predicted).is_serializable(),
                    "embedded prediction must be unserializable"
                );
                prop_assert!(
                    isolation.is_conformant(&prediction.predicted),
                    "{}: embedded prediction must conform to its level",
                    isolation
                );
                prop_assert!(!prediction.changed_reads.is_empty());
            }
        }
    }
}
