//! Lossless merging of per-shard verdicts into whole-history verdicts.
//!
//! Soundness rests on the communication-closure property of shards (see
//! [`crate::shard`]): no constraint of the analysis links two shards, so
//!
//! * a prediction found in any shard *embeds* into the full observed history
//!   — the other shards keep their observed (serializable) behavior, the
//!   embedded execution stays feasible and isolation-conforming, and the
//!   shard's witness cycle still witnesses unserializability;
//! * if every shard has no prediction, the whole history has none;
//! * a shard that exhausted its solver budget makes the merged verdict
//!   `Unknown` (unless another shard already found a prediction).

#![warn(clippy::iter_over_hash_type)]

use std::time::Duration;

use isopredict::{NoPredictionReason, Prediction, PredictionOutcome};
use isopredict_history::History;
use isopredict_smt::{EncodingStats, SolverPostmortem};

/// A merged whole-history verdict with shard-aggregated measurements.
#[derive(Debug)]
pub struct MergedOutcome {
    /// The whole-history verdict (predictions are embedded; see [`embed`]).
    pub outcome: PredictionOutcome,
    /// Encoding statistics summed over every shard that produced a
    /// prediction (an unsat or unknown unit reports none).
    pub stats: EncodingStats,
    /// Constraint generation time summed over predicting shards.
    pub constraint_gen_time: Duration,
    /// Solving time summed over predicting shards.
    pub solving_time: Duration,
    /// Index of the shard whose prediction was embedded, if any.
    pub predicting_unit: Option<usize>,
}

fn add_stats(total: &mut EncodingStats, other: &EncodingStats) {
    total.variables += other.variables;
    total.clauses += other.clauses;
    total.literals += other.literals;
    total.terms += other.terms;
}

/// Lifts a component-restricted prediction back into the full observed
/// history: transactions of the predicted component keep their predicted
/// events (rewired reads, boundary cuts), every other transaction keeps its
/// observed events, and sessions outside the component get an unbounded
/// prediction boundary.
///
/// Transaction/session identifiers and event positions are preserved by
/// [`History::restrict`], so the embedding is a per-event lookup.
#[must_use]
pub fn embed(observed: &History, prediction: &Prediction) -> Prediction {
    let component = &prediction.predicted;

    let predicted = observed.map_events(|txn, event| {
        let in_component = component.txn(txn.id).session.is_some();
        if in_component {
            // Take the predicted form of this event; absent means the
            // prediction boundary cut it.
            component
                .txn(txn.id)
                .events
                .iter()
                .find(|predicted_event| predicted_event.pos == event.pos)
                .copied()
        } else {
            Some(*event)
        }
    });

    let boundaries = observed
        .sessions()
        .map(|session| {
            let session_in_component = component
                .session_transactions(session)
                .iter()
                .any(|&t| component.txn(t).session.is_some());
            let limit = if session_in_component {
                prediction.boundaries.get(&session).copied().flatten()
            } else {
                None // outside the component: the whole session is included
            };
            (session, limit)
        })
        .collect();

    Prediction {
        predicted,
        boundaries,
        changed_reads: prediction.changed_reads.clone(),
        isolation: prediction.isolation,
        strategy: prediction.strategy,
        stats: prediction.stats,
        constraint_gen_time: prediction.constraint_gen_time,
        solving_time: prediction.solving_time,
        pco_cycle: prediction.pco_cycle.clone(),
    }
}

/// Merges per-unit outcomes (ordered as the shard plan's units) into a
/// whole-history verdict. `sharded` tells whether the units are component
/// restrictions (predictions need embedding) or a single whole-history unit
/// (passed through). Accepts owned outcomes or references — only the winning
/// prediction is ever copied.
#[must_use]
pub fn merge_outcomes<O: std::borrow::Borrow<PredictionOutcome>>(
    observed: &History,
    outcomes: &[O],
    sharded: bool,
) -> MergedOutcome {
    let mut stats = EncodingStats::default();
    let mut constraint_gen_time = Duration::ZERO;
    let mut solving_time = Duration::ZERO;
    let mut winner: Option<(usize, &Prediction)> = None;
    let mut saw_exhausted = false;
    let mut unknown_postmortem: Option<&SolverPostmortem> = None;

    for (index, outcome) in outcomes.iter().enumerate() {
        match outcome.borrow() {
            PredictionOutcome::Prediction(prediction) => {
                add_stats(&mut stats, &prediction.stats);
                constraint_gen_time += prediction.constraint_gen_time;
                solving_time += prediction.solving_time;
                if winner.is_none() {
                    winner = Some((index, prediction));
                }
            }
            PredictionOutcome::Unknown { postmortem } => {
                // The merged verdict keeps the first exhausted unit's
                // post-mortem: good enough to explain *a* budget failure;
                // per-unit detail lives in the campaign report.
                unknown_postmortem.get_or_insert(postmortem);
            }
            PredictionOutcome::NoPrediction {
                reason: NoPredictionReason::ExhaustedCandidates,
            } => saw_exhausted = true,
            PredictionOutcome::NoPrediction { .. } => {}
        }
    }

    let (outcome, predicting_unit) = match (winner, unknown_postmortem) {
        (Some((index, prediction)), _) => {
            let lifted = if sharded {
                Box::new(embed(observed, prediction))
            } else {
                Box::new(prediction.clone())
            };
            (PredictionOutcome::Prediction(lifted), Some(index))
        }
        (None, Some(postmortem)) => (
            PredictionOutcome::Unknown {
                postmortem: Box::new(postmortem.clone()),
            },
            None,
        ),
        (None, None) => (
            PredictionOutcome::NoPrediction {
                reason: if saw_exhausted {
                    NoPredictionReason::ExhaustedCandidates
                } else {
                    NoPredictionReason::Unsatisfiable
                },
            },
            None,
        ),
    };

    MergedOutcome {
        outcome,
        stats,
        constraint_gen_time,
        solving_time,
        predicting_unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardPlan, ShardPolicy};
    use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
    use isopredict_history::{serializability, HistoryBuilder, TxnId};

    /// Two key-disjoint racing-deposit pairs: both components admit causal
    /// predictions, the whole history is observed-serializable.
    fn double_racing_deposits() -> History {
        let mut b = HistoryBuilder::new();
        for key in ["acct-a", "acct-b"] {
            let s1 = b.session(format!("{key}-1"));
            let s2 = b.session(format!("{key}-2"));
            let t1 = b.begin(s1);
            b.read(t1, key, TxnId::INITIAL);
            b.write(t1, key);
            b.commit(t1);
            let t2 = b.begin(s2);
            b.read(t2, key, t1);
            b.write(t2, key);
            b.commit(t2);
        }
        b.finish()
    }

    fn predictor() -> Predictor {
        Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            ..PredictorConfig::default()
        })
    }

    #[test]
    fn embedded_shard_prediction_is_a_valid_whole_history_prediction() {
        let observed = double_racing_deposits();
        assert!(serializability::check(&observed).is_serializable());
        let plan = ShardPlan::new(&observed, ShardPolicy::Always);
        assert_eq!(plan.units.len(), 2);

        let predictor = predictor();
        let outcomes: Vec<PredictionOutcome> = plan
            .units
            .iter()
            .map(|unit| predictor.predict(&plan.history_for(&observed, unit), &Obs::off()))
            .collect();

        let merged = merge_outcomes(&observed, &outcomes, plan.sharded);
        let prediction = merged.outcome.prediction().expect("a shard predicts");
        assert_eq!(merged.predicting_unit, Some(0));
        // The embedded prediction is a genuine whole-history anomaly…
        assert!(!serializability::check(&prediction.predicted).is_serializable());
        assert!(isopredict_history::causal::is_causal(&prediction.predicted));
        // …and the untouched component kept all of its observed events.
        assert_eq!(prediction.predicted.num_reads(), observed.num_reads());
        assert!(!prediction.changed_reads.is_empty());
        assert!(merged.stats.literals > 0);
    }

    #[test]
    fn merged_verdict_classes_follow_the_lattice() {
        let observed = double_racing_deposits();
        let plan = ShardPlan::new(&observed, ShardPolicy::Always);
        let unsat = || PredictionOutcome::NoPrediction {
            reason: NoPredictionReason::Unsatisfiable,
        };
        let unknown = || PredictionOutcome::Unknown {
            postmortem: Box::default(),
        };

        let merged = merge_outcomes(&observed, &[unsat(), unsat()], true);
        assert!(merged.outcome.is_no_prediction());
        assert!(merged.predicting_unit.is_none());

        let merged = merge_outcomes(&observed, &[unsat(), unknown()], true);
        assert!(merged.outcome.is_unknown());

        let merged = merge_outcomes(
            &observed,
            &[
                unknown(),
                predictor().predict(&plan.history_for(&observed, &plan.units[1]), &Obs::off()),
            ],
            true,
        );
        assert!(
            merged.outcome.is_prediction(),
            "a prediction beats an unknown shard"
        );
        assert_eq!(merged.predicting_unit, Some(1));
    }

    #[test]
    fn whole_unit_outcomes_pass_through_unembedded() {
        let observed = double_racing_deposits();
        let whole = predictor().predict(&observed, &Obs::off());
        assert!(whole.is_prediction());
        let reads_before = whole.prediction().unwrap().predicted.num_reads();
        let merged = merge_outcomes(&observed, &[whole], false);
        let prediction = merged.outcome.prediction().unwrap();
        assert_eq!(prediction.predicted.num_reads(), reads_before);
    }
}
