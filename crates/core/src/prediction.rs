//! Predicted executions and their extraction from solver models.

use std::collections::BTreeMap;
use std::time::Duration;

use isopredict_history::{EventKind, History, SessionId, TxnId};
use isopredict_smt::EncodingStats;
use isopredict_store::IsolationLevel;

use crate::config::Strategy;
use crate::encode::{BoundaryPoint, Encoder};

/// A read whose writer differs between the observed and predicted executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangedRead {
    /// The session the read belongs to.
    pub session: SessionId,
    /// The read's session-wide position.
    pub position: usize,
    /// The key read.
    pub key: String,
    /// The writer observed in the input execution.
    pub observed: TxnId,
    /// The writer the prediction assigns.
    pub predicted: TxnId,
}

/// A predicted unserializable execution.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted execution history (the prefix up to each session's
    /// prediction boundary, with the predicted write–read relation).
    /// Transaction identifiers and event positions match the observed
    /// history's.
    pub predicted: History,
    /// Per session, the last event position included in the prediction
    /// (`None` means the whole session is included).
    pub boundaries: BTreeMap<SessionId, Option<usize>>,
    /// The reads whose writers changed relative to the observed execution.
    pub changed_reads: Vec<ChangedRead>,
    /// The isolation level the prediction conforms to.
    pub isolation: IsolationLevel,
    /// The strategy that produced the prediction.
    pub strategy: Strategy,
    /// Size of the generated constraint system.
    pub stats: EncodingStats,
    /// Time spent generating constraints.
    pub constraint_gen_time: Duration,
    /// Time spent solving (including, for the exact strategy, the
    /// per-candidate serializability checks).
    pub solving_time: Duration,
    /// For the approximate strategies, the `pco` cycle that witnesses
    /// unserializability (transaction ids refer to the observed history).
    pub pco_cycle: Option<Vec<TxnId>>,
}

impl Prediction {
    /// Number of transactions of the predicted prefix that still contain
    /// events.
    #[must_use]
    pub fn included_transactions(&self) -> usize {
        self.predicted
            .committed_transactions()
            .filter(|t| !t.events.is_empty())
            .count()
    }
}

/// Extracts the predicted history, boundaries and changed reads from the
/// encoder's current model.
///
/// # Panics
///
/// Panics if the encoder has no model (callers only invoke this after a
/// satisfiable check).
pub(crate) fn extract(
    encoder: &Encoder<'_>,
    observed: &History,
) -> (
    History,
    BTreeMap<SessionId, Option<usize>>,
    Vec<ChangedRead>,
) {
    let mut boundaries = BTreeMap::new();
    for session in observed.sessions() {
        let point = encoder
            .model_boundary(session)
            .expect("model assigns every boundary variable");
        let limit = match point {
            BoundaryPoint::At {
                include_through, ..
            } => Some(include_through),
            BoundaryPoint::Infinity => None,
        };
        boundaries.insert(session, limit);
    }

    let mut changed = Vec::new();
    let predicted = observed.map_events(|txn, event| {
        let Some(session) = txn.session else {
            return Some(*event);
        };
        let limit = boundaries.get(&session).copied().flatten();
        if let Some(limit) = limit {
            if event.pos > limit {
                return None;
            }
        }
        match event.kind {
            EventKind::Write => Some(*event),
            EventKind::Read { from } => {
                let predicted_writer = encoder.model_choice(session, event.pos).unwrap_or(from);
                if predicted_writer != from {
                    changed.push(ChangedRead {
                        session,
                        position: event.pos,
                        key: observed.key_name(event.key).to_string(),
                        observed: from,
                        predicted: predicted_writer,
                    });
                }
                Some(isopredict_history::Event {
                    key: event.key,
                    pos: event.pos,
                    kind: EventKind::Read {
                        from: predicted_writer,
                    },
                })
            }
        }
    });

    (predicted, boundaries, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::test_support::{chained_deposits, encoded};
    use isopredict_smt::SmtResult;

    #[test]
    fn extraction_reports_the_changed_read_and_prefix() {
        let observed = chained_deposits();
        let mut encoder = encoded(&observed, Strategy::ApproxRelaxed, IsolationLevel::Causal);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);

        let (predicted, boundaries, changed) = extract(&encoder, &observed);
        // The racing-deposits prediction changes exactly one read, in session 2.
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].observed, TxnId(1));
        assert_eq!(changed[0].predicted, TxnId::INITIAL);
        assert_eq!(changed[0].key, "acct");
        // The predicted history keeps both transactions' events.
        assert_eq!(predicted.num_reads(), 2);
        assert_eq!(predicted.num_writes(), 2);
        // Session 1 is unchanged, so its boundary may be ∞ or cover its whole
        // transaction; session 2's boundary includes its transaction.
        assert!(boundaries.contains_key(&SessionId(0)));
        assert!(boundaries.contains_key(&SessionId(1)));
        assert!(
            !isopredict_history::serializability::check(&predicted).is_serializable(),
            "the extracted prediction must be unserializable"
        );
        assert!(isopredict_history::causal::is_causal(&predicted));
    }
}
