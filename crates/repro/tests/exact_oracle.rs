//! A brute-force oracle for the exact strategy: on tiny histories, enumerate
//! every candidate execution the strict boundary admits and check that
//! Exact-Strict predicts exactly when some candidate is weak-isolation
//! conformant yet unserializable.
//!
//! The oracle uses only the paper's definitions and the history-level
//! checkers (`IsolationLevel::is_conformant`, `serializability::check`),
//! never the encoder, so it checks the encoding and the refinement loop
//! together.

use proptest::prelude::*;

use isopredict::Strategy as PredictionStrategy;
use isopredict::{IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig};
use isopredict_history::{serializability, EventKind, History, HistoryBuilder, TxnId};

/// A tiny serializable observed history: `layout[s]` lists session `s`'s
/// transactions, each a list of `(key, op)` with op 0 = read, 1 = write,
/// 2 = read then write. Transactions run round-robin, one at a time, and
/// every read observes the latest committed writer.
fn observed_history(layout: &[Vec<Vec<(u8, u8)>>]) -> History {
    let mut builder = HistoryBuilder::new();
    let sessions: Vec<_> = (0..layout.len())
        .map(|s| builder.session(format!("s{s}")))
        .collect();
    let mut latest = [TxnId::INITIAL; 3];
    let rounds = layout.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (s, txns) in layout.iter().enumerate() {
            let Some(ops) = txns.get(round) else { continue };
            let txn = builder.begin(sessions[s]);
            for &(key, op) in ops {
                let key = usize::from(key % 3);
                let name = format!("k{key}");
                if op != 1 {
                    builder.read(txn, &name, latest[key]);
                }
                if op != 0 {
                    builder.write(txn, &name);
                    latest[key] = txn;
                }
            }
            builder.commit(txn);
        }
    }
    builder.finish()
}

/// 2–3 sessions of 1–2 transactions (at most 6), each 1–2 operations over
/// three keys.
fn layout() -> impl Strategy<Value = Vec<Vec<Vec<(u8, u8)>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec((0u8..3, 0u8..3), 1..3), 1..3),
        2..4,
    )
}

/// One session's strict prediction boundary: the boundary read's position
/// and the writer it reads from, or `None` for ∞ (the whole session,
/// unchanged).
type Boundary = Option<(usize, TxnId)>;

/// Every feasible strict-boundary candidate (Section 4.1): per session, a
/// boundary at one of its reads or ∞; reads before the boundary keep their
/// observed writer, the boundary read may read from any other writer of its
/// key, and later events are excluded. A candidate is feasible when every
/// included read's writer has its write included, and it counts only if
/// some included read changed.
fn candidates(observed: &History) -> Vec<History> {
    let per_session: Vec<Vec<Boundary>> = observed
        .sessions()
        .map(|session| {
            let mut options = vec![None];
            for &txn in observed.session_transactions(session) {
                for event in &observed.txn(txn).events {
                    if event.is_read() {
                        for writer in observed.writers_of(event.key) {
                            if writer != txn {
                                options.push(Some((event.pos, writer)));
                            }
                        }
                    }
                }
            }
            options
        })
        .collect();

    let mut result = Vec::new();
    let mut choice = vec![0usize; per_session.len()];
    loop {
        let bounds: Vec<Boundary> = choice
            .iter()
            .zip(&per_session)
            .map(|(&i, options)| options[i])
            .collect();
        if let Some(candidate) = candidate(observed, &bounds) {
            result.push(candidate);
        }
        // Next combination (odometer order).
        let mut s = 0;
        loop {
            if s == choice.len() {
                return result;
            }
            choice[s] += 1;
            if choice[s] < per_session[s].len() {
                break;
            }
            choice[s] = 0;
            s += 1;
        }
    }
}

/// The candidate for one boundary per session, if it is feasible and
/// changes some read.
fn candidate(observed: &History, bounds: &[Boundary]) -> Option<History> {
    let bound_of = |txn: &isopredict_history::Transaction| {
        txn.session.and_then(|session| bounds[session.index()])
    };
    let mut changed = false;
    let predicted = observed.map_events(|txn, event| {
        let Some((limit, writer)) = bound_of(txn) else {
            return Some(*event);
        };
        if event.pos > limit {
            return None;
        }
        match event.kind {
            EventKind::Read { from } if event.pos == limit => {
                changed |= writer != from;
                Some(isopredict_history::Event {
                    kind: EventKind::Read { from: writer },
                    ..*event
                })
            }
            _ => Some(*event),
        }
    });
    let writes_included = predicted
        .wr_tuples()
        .into_iter()
        .all(|(writer, _, key, _)| {
            writer.is_initial() || predicted.txn(writer).write_position(key).is_some()
        });
    (changed && writes_included).then_some(predicted)
}

fn exact(isolation: IsolationLevel, preprocess: bool) -> Predictor {
    Predictor::new(PredictorConfig {
        strategy: PredictionStrategy::ExactStrict,
        isolation,
        preprocess,
        ..PredictorConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact-Strict predicts iff the enumeration finds a conformant,
    /// unserializable candidate, at every level, with preprocessing on and
    /// off; and every prediction is one of the enumerated candidates.
    #[test]
    fn exact_strict_agrees_with_enumeration(layout in layout()) {
        let observed = observed_history(&layout);
        prop_assert!(serializability::check(&observed).is_serializable());
        let candidates: Vec<History> = candidates(&observed)
            .into_iter()
            .filter(|c| !serializability::check(c).is_serializable())
            .collect();
        for isolation in IsolationLevel::ALL {
            let exists = candidates.iter().any(|c| isolation.is_conformant(c));
            for preprocess in [true, false] {
                match exact(isolation, preprocess).predict(&observed, &Obs::off()) {
                    PredictionOutcome::Prediction(prediction) => {
                        prop_assert!(
                            candidates.contains(&prediction.predicted),
                            "{}: the prediction is not an unserializable candidate \
                             (layout {:?}, preprocess {})",
                            isolation, layout, preprocess
                        );
                        prop_assert!(
                            isolation.is_conformant(&prediction.predicted),
                            "{}: the prediction does not conform (layout {:?}, preprocess {})",
                            isolation, layout, preprocess
                        );
                    }
                    PredictionOutcome::NoPrediction { .. } => prop_assert!(
                        !exists,
                        "{}: a conformant unserializable candidate exists but none was \
                         predicted (layout {:?}, preprocess {})",
                        isolation, layout, preprocess
                    ),
                    PredictionOutcome::Unknown { .. } => prop_assert!(
                        false,
                        "{}: unknown on a tiny history (layout {:?}, preprocess {})",
                        isolation, layout, preprocess
                    ),
                }
            }
        }
    }
}

#[test]
fn enumeration_finds_the_stale_read_of_figure_9() {
    // Figure 9: a deposit in one session, a withdrawal and a deposit in
    // another. Moving the last read back to the first deposit skips the
    // withdrawal: allowed by read committed, forbidden by causal (the
    // withdrawal happens before the read), and unserializable.
    let observed = observed_history(&[vec![vec![(0, 2)]], vec![vec![(0, 2)], vec![(0, 2)]]]);
    let unserializable: Vec<History> = candidates(&observed)
        .into_iter()
        .filter(|c| !serializability::check(c).is_serializable())
        .collect();
    for (isolation, expected) in [
        (IsolationLevel::Causal, false),
        (IsolationLevel::ReadCommitted, true),
    ] {
        let exists = unserializable.iter().any(|c| isolation.is_conformant(c));
        assert_eq!(exists, expected, "{isolation}");
        let outcome = exact(isolation, true).predict(&observed, &Obs::off());
        assert_eq!(
            outcome.is_prediction(),
            expected,
            "{isolation}: {outcome:?}"
        );
    }
}
