//! Validation of predicted executions (Section 5 of the paper).
//!
//! A prediction may be infeasible in practice: replaying the application and
//! steering each read toward the predicted writer can *diverge* (the
//! application takes a different branch, aborts, or the predicted writer is
//! unavailable), and the execution that actually occurs — the *validating
//! execution* — may turn out to be serializable after all. Validation
//! therefore:
//!
//! 1. computes a transaction schedule that executes every transaction on or
//!    happens-before the prediction boundary, in an order consistent with the
//!    predicted happens-before relation ([`ValidationPlan`]);
//! 2. replays the application against the store in
//!    [`isopredict_store::StoreMode::Controlled`] mode with a
//!    [`ReplayScript`] derived from the prediction;
//! 3. checks whether the resulting validating execution is unserializable
//!    ([`assess`]).
//!
//! Step 2 requires driving the actual application, so it is performed by the
//! caller (the workload crate's runner or a user's own harness); this module
//! provides the planning and assessment halves, which are application
//! agnostic.

use isopredict_history::{serializability, History, SerializabilityResult};
use isopredict_store::{Divergence, DivergenceKind, IsolationLevel, ReplayScript};

use crate::prediction::Prediction;

/// Everything a caller needs to replay a predicted execution.
#[derive(Debug, Clone)]
pub struct ValidationPlan {
    /// `(session index, plan index)` steps, in an order consistent with the
    /// predicted happens-before relation. Only transactions on or before the
    /// prediction boundary (plus any earlier aborted attempts needed to keep
    /// event positions aligned) are scheduled.
    pub schedule: Vec<(usize, usize)>,
    /// The per-read writer dictation derived from the predicted history.
    pub script: ReplayScript,
    /// The isolation level the validating execution must preserve.
    pub isolation: IsolationLevel,
}

/// Builds a validation plan from a prediction.
///
/// `committed_plan_indices[s]` lists, for session `s`, the plan indices of the
/// transactions that committed in the *observed* run, in session order (the
/// workload runner reports this as `RunOutput::committed_indices`). Sessions
/// that executed no transactions may be absent (treated as empty).
#[must_use]
pub fn plan_validation(
    prediction: &Prediction,
    committed_plan_indices: &[Vec<usize>],
) -> ValidationPlan {
    let predicted = &prediction.predicted;

    // Transactions that are part of the predicted prefix.
    let included: Vec<bool> = predicted
        .transactions()
        .iter()
        .map(|t| !t.id.is_initial() && !t.events.is_empty())
        .collect();

    // Order the included transactions consistently with predicted hb.
    let hb = isopredict_history::relations::hb_graph(predicted);
    let topo = hb
        .topological_order()
        .unwrap_or_else(|| predicted.transactions().iter().map(|t| t.id).collect());

    // Emit steps: before each included transaction, emit any not-yet-emitted
    // plan entries of the same session with a smaller plan index (these are
    // the attempts that aborted in the observed run — they must still run so
    // that event positions stay aligned with the prediction).
    let mut next_plan_index: Vec<usize> = vec![0; predicted.num_sessions()];
    let mut emitted_per_session: Vec<usize> = vec![0; predicted.num_sessions()];
    let mut schedule = Vec::new();
    for txn_id in topo {
        if !included.get(txn_id.index()).copied().unwrap_or(false) {
            continue;
        }
        let txn = predicted.txn(txn_id);
        let Some(session) = txn.session else { continue };
        let s = session.index();
        let committed_for_session: &[usize] = committed_plan_indices
            .get(s)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let order_in_session = emitted_per_session[s];
        let Some(&plan_index) = committed_for_session.get(order_in_session) else {
            continue;
        };
        while next_plan_index[s] < plan_index {
            schedule.push((s, next_plan_index[s]));
            next_plan_index[s] += 1;
        }
        schedule.push((s, plan_index));
        next_plan_index[s] = plan_index + 1;
        emitted_per_session[s] += 1;
    }

    ValidationPlan {
        schedule,
        script: ReplayScript::from_history(predicted),
        isolation: prediction.isolation,
    }
}

/// The result of validating a prediction.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// Whether the validating execution is unserializable — i.e. the
    /// prediction is confirmed as a real, feasible anomaly.
    pub validated: bool,
    /// Whether the validating execution diverged from the predicted one
    /// (different keys, missing writers, or isolation conflicts).
    pub diverged: bool,
    /// The recorded divergences.
    pub divergences: Vec<Divergence>,
    /// The serializability verdict on the validating execution, including a
    /// witness commit order when it is serializable.
    pub serializability: SerializabilityResult,
}

/// Assesses a validating execution produced by replaying the application with
/// the plan from [`plan_validation`].
#[must_use]
pub fn assess(validating_history: &History, divergences: &[Divergence]) -> ValidationOutcome {
    let serializability = serializability::check(validating_history);
    let diverged = divergences
        .iter()
        .any(|d| d.kind != DivergenceKind::PastPrediction);
    ValidationOutcome {
        validated: !serializability.is_serializable(),
        diverged,
        divergences: divergences.to_vec(),
        serializability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorConfig, Strategy};
    use crate::encode::test_support::chained_deposits;
    use crate::predict::Predictor;
    use isopredict_history::SessionId;
    use isopredict_obs::Obs;
    use isopredict_store::IsolationLevel as Iso;

    fn example_prediction() -> Prediction {
        let observed = chained_deposits();
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: Iso::Causal,
            ..PredictorConfig::default()
        });
        match predictor.predict(&observed, &Obs::off()) {
            crate::PredictionOutcome::Prediction(p) => *p,
            other => panic!("expected a prediction, got {other:?}"),
        }
    }

    #[test]
    fn plan_schedules_every_included_transaction_in_hb_order() {
        let prediction = example_prediction();
        // Both sessions committed their only transaction at plan index 0.
        let committed = vec![vec![0], vec![0]];
        let plan = plan_validation(&prediction, &committed);
        assert_eq!(plan.schedule.len(), 2);
        assert!(plan.schedule.contains(&(0, 0)));
        assert!(plan.schedule.contains(&(1, 0)));
        assert_eq!(plan.isolation, Iso::Causal);
        assert!(plan.script.num_sessions() >= 2);
    }

    #[test]
    fn plan_inserts_earlier_aborted_attempts() {
        let prediction = example_prediction();
        // Pretend session 1's committed transaction was plan entry 2 (entries
        // 0 and 1 aborted in the observed run): they must be replayed first.
        let committed = vec![vec![2], vec![0]];
        let plan = plan_validation(&prediction, &committed);
        let session0: Vec<usize> = plan
            .schedule
            .iter()
            .filter(|(s, _)| *s == 0)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(session0, vec![0, 1, 2]);
    }

    #[test]
    fn assessment_distinguishes_serializable_and_unserializable_replays() {
        let prediction = example_prediction();
        // If the replay reproduced the predicted history exactly, validation succeeds.
        let outcome = assess(&prediction.predicted, &[]);
        assert!(outcome.validated);
        assert!(!outcome.diverged);

        // A serializable replay (the observed history) fails validation.
        let observed = chained_deposits();
        let divergences = vec![Divergence {
            session: SessionId(1),
            position: 0,
            kind: isopredict_store::DivergenceKind::IsolationViolation,
            key: "acct".to_string(),
        }];
        let outcome = assess(&observed, &divergences);
        assert!(!outcome.validated);
        assert!(outcome.diverged);

        // Past-prediction reads do not count as divergence.
        let benign = vec![Divergence {
            session: SessionId(0),
            position: 5,
            kind: isopredict_store::DivergenceKind::PastPrediction,
            key: "acct".to_string(),
        }];
        assert!(!assess(&observed, &benign).diverged);
    }
}
