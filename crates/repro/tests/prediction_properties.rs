//! Property-based tests of the predictive analysis itself: whatever the
//! predictor reports must hold up against the independent history-level
//! checkers.

use proptest::prelude::*;

use isopredict::Strategy as PredictionStrategy;
use isopredict::{IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig};
use isopredict_history::{serializability, History, HistoryBuilder, TxnId};

/// Builds a random *serializable-by-construction* observed history: sessions
/// execute read-modify-write transactions over a few keys, and every read
/// observes the globally latest committed write (as the recording store would).
fn observed_history(layout: &[Vec<Vec<u8>>]) -> History {
    let mut builder = HistoryBuilder::new();
    let sessions: Vec<_> = (0..layout.len())
        .map(|i| builder.session(format!("s{i}")))
        .collect();
    // latest writer per key (by key index).
    let mut latest: Vec<TxnId> = vec![TxnId::INITIAL; 4];

    let max_txns = layout.iter().map(Vec::len).max().unwrap_or(0);
    for txn_index in 0..max_txns {
        for (s, session_txns) in layout.iter().enumerate() {
            let Some(keys) = session_txns.get(txn_index) else {
                continue;
            };
            let txn = builder.begin(sessions[s]);
            for &key in keys {
                let key = (key % 4) as usize;
                let name = format!("k{key}");
                builder.read(txn, &name, latest[key]);
                builder.write(txn, &name);
                latest[key] = txn;
            }
            builder.commit(txn);
        }
    }
    builder.finish()
}

fn layout_strategy() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0u8..4, 1..3), 1..3),
        2..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the approximate encoding: every prediction is a feasible
    /// prefix (observed histories here are serializable), unserializable, and
    /// valid under the requested isolation level.
    #[test]
    fn approx_predictions_are_sound(layout in layout_strategy()) {
        let observed = observed_history(&layout);
        prop_assert!(serializability::check(&observed).is_serializable());

        // Causal and read committed only: these generator layouts are
        // read-modify-write chains, where snapshot-isolation predictions
        // essentially never exist and the solver would spend the whole
        // budget on unsat proofs (SI soundness is covered by the dedicated
        // write-skew tests and the campaign smoke test).
        for isolation in [IsolationLevel::Causal, IsolationLevel::ReadCommitted] {
            let predictor = Predictor::new(PredictorConfig {
                strategy: PredictionStrategy::ApproxRelaxed,
                isolation,
                conflict_budget: Some(200_000),
                ..PredictorConfig::default()
            });
            match predictor.predict(&observed, &Obs::off()) {
                PredictionOutcome::Prediction(prediction) => {
                    prop_assert!(
                        !serializability::check(&prediction.predicted).is_serializable(),
                        "prediction must be unserializable"
                    );
                    prop_assert!(
                        isolation.is_conformant(&prediction.predicted),
                        "{}: prediction must conform to its level",
                        isolation
                    );
                    prop_assert!(!prediction.changed_reads.is_empty());
                }
                PredictionOutcome::NoPrediction { .. } | PredictionOutcome::Unknown { .. } => {}
            }
        }
    }

    /// Agreement between the approximate and exact strategies on the strict
    /// boundary: the approximate encoding is a sufficient condition, so it
    /// must never predict when the exact search proves nothing exists — and
    /// in the paper's experiments the two always coincide.
    #[test]
    fn approx_strict_never_contradicts_exact_strict(layout in layout_strategy()) {
        let observed = observed_history(&layout);
        let approx = Predictor::new(PredictorConfig {
            strategy: PredictionStrategy::ApproxStrict,
            isolation: IsolationLevel::Causal,
            conflict_budget: Some(200_000),
            ..PredictorConfig::default()
        })
        .predict(&observed, &Obs::off());
        let exact = Predictor::new(PredictorConfig {
            strategy: PredictionStrategy::ExactStrict,
            isolation: IsolationLevel::Causal,
            conflict_budget: Some(200_000),
            max_exact_candidates: 64,
            ..PredictorConfig::default()
        })
        .predict(&observed, &Obs::off());

        if approx.is_prediction() {
            prop_assert!(
                !exact.is_no_prediction(),
                "approximate strategy predicted but exact proved no prediction exists"
            );
        }
    }
}
