//! Constraint generation (Section 4 and Appendix B of the paper).
//!
//! The `Encoder` owns an SMT solver and the symbol tables that mirror the
//! paper's SMT functions:
//!
//! | paper symbol        | representation here                                    |
//! |---------------------|---------------------------------------------------------|
//! | `φ_so(t1, t2)`      | a compile-time constant (session order is observed)     |
//! | `φ_choice(s, i)`    | a finite-domain variable per read event                  |
//! | `φ_obs(s, i)`       | a constant (the observed writer)                         |
//! | `φ_boundary(s)`     | a finite-domain variable over boundary points            |
//! | `φ_wr_k / φ_wr`     | formulas built from `φ_choice` and `φ_boundary`          |
//! | `φ_hb(t1, t2)`      | a boolean variable per ordered transaction pair          |
//! | `φ_ww / φ_rw / φ_pco` | boolean variables per ordered pair (approximate encoding) |
//! | `rank(t1, t2)`      | a strict-order node per ordered pair                     |
//! | `φ_co(t)`           | a strict-order node per transaction                      |
//!
//! # Prediction boundaries
//!
//! A *boundary point* of a session bundles the two thresholds the constraints
//! need (Section 4.5, Table 1):
//!
//! * `match_before` — reads at positions strictly before it must keep their
//!   observed writer;
//! * `include_through` — events at positions up to it are part of the
//!   predicted execution (later events are excluded).
//!
//! With the **strict** boundary the points are the session's read positions
//! (`match_before = include_through =` the read's position): only the
//! boundary read itself may change, and everything after it is excluded. With
//! the **relaxed** boundary the points are whole transactions
//! (`match_before` = the transaction's first event, `include_through` = its
//! last): every read of the boundary transaction may change and the whole
//! transaction stays included. Both variants also offer `∞` (no change in
//! that session).

pub(crate) mod feasibility;
pub(crate) mod isolation;
pub(crate) mod refinement;
pub(crate) mod unserializability;

use std::collections::{BTreeMap, HashMap};

use isopredict_history::{History, KeyId, SessionId, TxnId};
use isopredict_smt::{FdVar, OrderNode, SmtSolver, TermId};

use crate::config::BoundaryKind;

/// A writer-choice variable for one read event (`φ_choice(s, i)`).
#[derive(Debug, Clone)]
pub(crate) struct ChoiceVar {
    /// The finite-domain variable.
    pub(crate) var: FdVar,
    /// The key the read accesses.
    pub(crate) key: KeyId,
    /// The transaction the read belongs to.
    pub(crate) txn: TxnId,
    /// Candidate writer transactions (the variable's domain, in order).
    pub(crate) candidates: Vec<TxnId>,
    /// The writer observed in the input execution (`φ_obs(s, i)`).
    pub(crate) observed: TxnId,
}

/// One admissible value of a session's boundary variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoundaryPoint {
    /// A finite boundary.
    At {
        /// Reads strictly before this position must keep their observed writer.
        match_before: usize,
        /// Events up to (and including) this position are part of the
        /// predicted execution.
        include_through: usize,
    },
    /// No boundary: the whole session is included and unchanged.
    Infinity,
}

/// The prediction-boundary variable of one session (`φ_boundary(s)`).
#[derive(Debug, Clone)]
pub(crate) struct BoundaryVar {
    pub(crate) var: FdVar,
    /// Domain values; [`BoundaryPoint::Infinity`] is always last.
    pub(crate) domain: Vec<BoundaryPoint>,
}

/// Constraint generator for one observed history.
pub(crate) struct Encoder<'h> {
    pub(crate) history: &'h History,
    pub(crate) smt: SmtSolver,
    pub(crate) boundary_kind: BoundaryKind,
    pub(crate) choice: BTreeMap<(SessionId, usize), ChoiceVar>,
    pub(crate) boundary: BTreeMap<SessionId, BoundaryVar>,
    pub(crate) hb: BTreeMap<(TxnId, TxnId), TermId>,
    /// Memoized `φ_wr_k(t1, t2)` formulas.
    wr_k_cache: HashMap<(TxnId, TxnId, KeyId), TermId>,
    /// Memoized `φ_wr(t1, t2)` formulas.
    wr_cache: HashMap<(TxnId, TxnId), TermId>,
    /// Commit-order nodes (`φ_co(t)`), created on demand per isolation level.
    co_nodes: HashMap<TxnId, OrderNode>,
}

/// The transactions that participate in the analysis: `t0` plus every
/// transaction that still has a session or events. Slots emptied by
/// [`History::restrict`] (component-restricted prediction) are excluded —
/// they take part in no relation, and enumerating them would blow the
/// pair/triple constraint sets back up to whole-history size.
pub(crate) fn active_txns(history: &History) -> Vec<TxnId> {
    history
        .transactions()
        .iter()
        .filter(|t| t.id.is_initial() || t.session.is_some() || !t.events.is_empty())
        .map(|t| t.id)
        .collect()
}

impl<'h> Encoder<'h> {
    /// Creates the symbol tables for `history`.
    pub(crate) fn new(history: &'h History, boundary_kind: BoundaryKind) -> Self {
        let mut smt = SmtSolver::new();
        let mut choice = BTreeMap::new();
        let mut boundary = BTreeMap::new();
        let mut hb = BTreeMap::new();

        // φ_choice(s, i): one finite-domain variable per read event.
        for txn in history.committed_transactions() {
            // Transactions dropped by `History::restrict` (component-restricted
            // prediction) keep their slot but have no session and no events.
            let Some(session) = txn.session else { continue };
            for event in &txn.events {
                let Some(observed) = event.read_from() else {
                    continue;
                };
                let candidates: Vec<TxnId> = history
                    .writers_of(event.key)
                    .into_iter()
                    .filter(|&w| w != txn.id)
                    .collect();
                debug_assert!(candidates.contains(&observed));
                let var = smt.fd_var(format!("choice({session},{})", event.pos), candidates.len());
                choice.insert(
                    (session, event.pos),
                    ChoiceVar {
                        var,
                        key: event.key,
                        txn: txn.id,
                        candidates,
                        observed,
                    },
                );
            }
        }

        // φ_boundary(s): a boundary point per session (see the module docs).
        for session in history.sessions() {
            let mut points: Vec<BoundaryPoint> = Vec::new();
            match boundary_kind {
                BoundaryKind::Strict => {
                    for &txn in history.session_transactions(session) {
                        for pos in history.txn(txn).read_positions() {
                            points.push(BoundaryPoint::At {
                                match_before: pos,
                                include_through: pos,
                            });
                        }
                    }
                }
                BoundaryKind::Relaxed => {
                    for &txn in history.session_transactions(session) {
                        let txn = history.txn(txn);
                        let positions: Vec<usize> = txn.events.iter().map(|e| e.pos).collect();
                        let (Some(&first), Some(&last)) =
                            (positions.iter().min(), positions.iter().max())
                        else {
                            continue;
                        };
                        points.push(BoundaryPoint::At {
                            match_before: first,
                            include_through: last,
                        });
                    }
                }
            }
            points.sort_by_key(|p| match p {
                BoundaryPoint::At { match_before, .. } => *match_before,
                BoundaryPoint::Infinity => usize::MAX,
            });
            points.dedup();
            points.push(BoundaryPoint::Infinity);
            let var = smt.fd_var(format!("boundary({session})"), points.len());
            boundary.insert(
                session,
                BoundaryVar {
                    var,
                    domain: points,
                },
            );
        }

        // φ_hb(t1, t2): a boolean variable per ordered pair of *active*
        // transactions. Slots emptied by `History::restrict` take part in no
        // relation, so skipping them keeps a component-restricted encoding
        // proportional to the component, not to the whole history.
        let active = active_txns(history);
        for &t1 in &active {
            for &t2 in &active {
                if t1 == t2 {
                    continue;
                }
                let var = smt.bool_var(format!("hb({t1},{t2})"));
                hb.insert((t1, t2), var);
            }
        }

        Encoder {
            history,
            smt,
            boundary_kind,
            choice,
            boundary,
            hb,
            wr_k_cache: HashMap::new(),
            wr_cache: HashMap::new(),
            co_nodes: HashMap::new(),
        }
    }

    /// The observed session order, which the predicted execution preserves.
    pub(crate) fn so(&self, t1: TxnId, t2: TxnId) -> bool {
        self.history.so(t1, t2)
    }

    /// The atom `φ_choice(s, i) = writer`, or the constant false if `writer`
    /// is not a candidate for that read.
    pub(crate) fn choice_eq(&mut self, session: SessionId, pos: usize, writer: TxnId) -> TermId {
        let Some(choice) = self.choice.get(&(session, pos)) else {
            return self.smt.false_term();
        };
        match choice.candidates.iter().position(|&c| c == writer) {
            Some(index) => {
                let var = choice.var;
                self.smt.fd_eq(var, index)
            }
            None => self.smt.false_term(),
        }
    }

    /// The formula "the read at `pos` must keep its observed writer"
    /// (`pos < φ_boundary(s)` in the paper's strict encoding).
    pub(crate) fn must_match(&mut self, session: SessionId, pos: usize) -> TermId {
        self.boundary_predicate(session, |point| match point {
            BoundaryPoint::At { match_before, .. } => pos < match_before,
            BoundaryPoint::Infinity => true,
        })
    }

    /// The formula "the event at `pos` is part of the predicted execution"
    /// (`pos ≤ φ_boundary(s)` in the paper's strict encoding).
    pub(crate) fn included(&mut self, session: SessionId, pos: usize) -> TermId {
        self.boundary_predicate(session, |point| match point {
            BoundaryPoint::At {
                include_through, ..
            } => pos <= include_through,
            BoundaryPoint::Infinity => true,
        })
    }

    fn boundary_predicate<F>(&mut self, session: SessionId, predicate: F) -> TermId
    where
        F: Fn(BoundaryPoint) -> bool,
    {
        let Some(boundary) = self.boundary.get(&session) else {
            return self.smt.true_term();
        };
        let var = boundary.var;
        let matching: Vec<usize> = boundary
            .domain
            .iter()
            .enumerate()
            .filter(|&(_, &point)| predicate(point))
            .map(|(index, _)| index)
            .collect();
        if matching.len() == boundary.domain.len() {
            return self.smt.true_term();
        }
        let atoms: Vec<TermId> = matching.iter().map(|&i| self.smt.fd_eq(var, i)).collect();
        self.smt.or(atoms)
    }

    /// The formula `wrpos_k(writer) < φ_boundary(session(writer))`: the
    /// writer's (last) write of `key` is part of the predicted execution.
    /// True for the initial-state transaction.
    pub(crate) fn write_included(&mut self, writer: TxnId, key: KeyId) -> TermId {
        if writer.is_initial() {
            return self.smt.true_term();
        }
        let txn = self.history.txn(writer);
        let Some(pos) = txn.write_position(key) else {
            return self.smt.false_term();
        };
        let session = txn
            .session
            .expect("non-initial transactions have a session");
        self.included(session, pos)
    }

    /// The formula `φ_wr_k(writer, reader)`: some read of `key` in `reader`
    /// (within the boundary) reads from `writer` (Appendix B.1).
    pub(crate) fn wr_k(&mut self, writer: TxnId, reader: TxnId, key: KeyId) -> TermId {
        if let Some(&term) = self.wr_k_cache.get(&(writer, reader, key)) {
            return term;
        }
        let term = if writer == reader {
            self.smt.false_term()
        } else {
            let reader_txn = self.history.txn(reader);
            let session = reader_txn.session;
            let positions = reader_txn.read_positions_of_key(key);
            let mut disjuncts = Vec::new();
            if let Some(session) = session {
                for pos in positions {
                    let eq = self.choice_eq(session, pos, writer);
                    let within = self.included(session, pos);
                    disjuncts.push(self.smt.and([eq, within]));
                }
            }
            self.smt.or(disjuncts)
        };
        self.wr_k_cache.insert((writer, reader, key), term);
        term
    }

    /// The formula `φ_wr(writer, reader)`: the union of `φ_wr_k` over all keys.
    pub(crate) fn wr(&mut self, writer: TxnId, reader: TxnId) -> TermId {
        if let Some(&term) = self.wr_cache.get(&(writer, reader)) {
            return term;
        }
        let keys: Vec<KeyId> = self.history.txn(reader).read_keys();
        let disjuncts: Vec<TermId> = keys
            .into_iter()
            .map(|key| self.wr_k(writer, reader, key))
            .collect();
        let term = self.smt.or(disjuncts);
        self.wr_cache.insert((writer, reader), term);
        term
    }

    /// The boolean variable `φ_hb(t1, t2)`.
    pub(crate) fn hb(&self, t1: TxnId, t2: TxnId) -> TermId {
        self.hb[&(t1, t2)]
    }

    /// The commit-order node `φ_co(t)` used by the isolation constraints.
    pub(crate) fn co(&mut self, txn: TxnId) -> OrderNode {
        if let Some(&node) = self.co_nodes.get(&txn) {
            return node;
        }
        let node = self.smt.order_node();
        self.co_nodes.insert(txn, node);
        node
    }

    /// Requires at least one read within its session's boundary to read from a
    /// different writer than observed: the observed execution is
    /// serializable, so an unserializable prediction must change something.
    pub(crate) fn encode_require_change(&mut self) {
        let reads: Vec<(SessionId, usize, TxnId)> = self
            .choice
            .iter()
            .map(|(&(session, pos), choice)| (session, pos, choice.observed))
            .collect();
        let mut disjuncts = Vec::new();
        for (session, pos, observed) in reads {
            let same = self.choice_eq(session, pos, observed);
            let different = self.smt.not(same);
            let within = self.included(session, pos);
            disjuncts.push(self.smt.and([different, within]));
        }
        let any_change = self.smt.or(disjuncts);
        self.smt.assert_term(any_change);
    }

    // ------------------------------------------------------------------
    // Model extraction
    // ------------------------------------------------------------------

    /// The boundary point of `session` in the current model. Returns `None`
    /// when there is no model.
    pub(crate) fn model_boundary(&self, session: SessionId) -> Option<BoundaryPoint> {
        let boundary = self.boundary.get(&session)?;
        let index = self.smt.model_fd(boundary.var)?;
        boundary.domain.get(index).copied()
    }

    /// The writer chosen for the read at `(session, pos)` in the current
    /// model. Returns `None` when there is no model or no such read.
    pub(crate) fn model_choice(&self, session: SessionId, pos: usize) -> Option<TxnId> {
        let choice = self.choice.get(&(session, pos))?;
        let index = self.smt.model_fd(choice.var)?;
        choice.candidates.get(index).copied()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use isopredict_history::{History, HistoryBuilder, TxnId};
    use isopredict_obs::Obs;
    use isopredict_store::IsolationLevel;

    use super::Encoder;
    use crate::{Predictor, PredictorConfig, Strategy};

    /// The predictor's encode phase for `strategy` under `isolation`.
    pub(crate) fn encoded(
        history: &History,
        strategy: Strategy,
        isolation: IsolationLevel,
    ) -> Encoder<'_> {
        Predictor::new(PredictorConfig {
            strategy,
            isolation,
            ..PredictorConfig::default()
        })
        .encode(history, &Obs::off())
        .encoder
    }

    /// Figure 1a / 2a: the second deposit reads the first (serializable).
    pub(crate) fn chained_deposits() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("client-1");
        let s2 = b.session("client-2");
        let t1 = b.begin(s1);
        b.read(t1, "acct", TxnId::INITIAL);
        b.write(t1, "acct");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "acct", t1);
        b.write(t2, "acct");
        b.commit(t2);
        b.finish()
    }

    /// Figure 9a/9b: a deposit, then a withdrawal and another deposit in a
    /// second session.
    pub(crate) fn deposit_withdraw_deposit() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("client-1");
        let s2 = b.session("client-2");
        let t1 = b.begin(s1);
        b.read(t1, "acct", TxnId::INITIAL);
        b.write(t1, "acct");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "acct", t1);
        b.write(t2, "acct");
        b.commit(t2);
        let t3 = b.begin(s2);
        b.read(t3, "acct", t2);
        b.write(t3, "acct");
        b.commit(t3);
        b.finish()
    }

    /// An observed Voter-like history: one writer, several read-only txns.
    pub(crate) fn single_writer_history() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let s3 = b.session("s3");
        let tw = b.begin(s1);
        b.read(tw, "votes", TxnId::INITIAL);
        b.write(tw, "votes");
        b.commit(tw);
        for s in [s2, s3] {
            let t = b.begin(s);
            b.read(t, "votes", tw);
            b.commit(t);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::Strategy;
    use isopredict_smt::SmtResult;
    use isopredict_store::IsolationLevel;

    #[test]
    fn symbol_tables_cover_reads_sessions_and_pairs() {
        let history = chained_deposits();
        let encoder = Encoder::new(&history, BoundaryKind::Strict);
        assert_eq!(encoder.choice.len(), 2);
        assert_eq!(encoder.boundary.len(), 2);
        // 3 transactions (incl. t0) → 6 ordered pairs.
        assert_eq!(encoder.hb.len(), 6);
        assert_eq!(encoder.boundary_kind, BoundaryKind::Strict);
    }

    #[test]
    fn boundary_domains_differ_between_strict_and_relaxed() {
        let history = chained_deposits();
        let strict = Encoder::new(&history, BoundaryKind::Strict);
        let relaxed = Encoder::new(&history, BoundaryKind::Relaxed);
        let s0 = SessionId(0);
        // Strict: the session's one read position plus ∞.
        assert_eq!(
            strict.boundary[&s0].domain,
            vec![
                BoundaryPoint::At {
                    match_before: 0,
                    include_through: 0
                },
                BoundaryPoint::Infinity
            ]
        );
        // Relaxed: the transaction (first event 0, last event 1) plus ∞.
        assert_eq!(
            relaxed.boundary[&s0].domain,
            vec![
                BoundaryPoint::At {
                    match_before: 0,
                    include_through: 1
                },
                BoundaryPoint::Infinity
            ]
        );
    }

    #[test]
    fn choice_eq_is_false_for_non_candidates() {
        let history = chained_deposits();
        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        let s2 = SessionId(1);
        // t2's read of acct at position 0 can read from t0 or t1 but not from itself.
        let own = encoder.choice_eq(s2, 0, TxnId(2));
        assert_eq!(own, encoder.smt.false_term());
        let t1 = encoder.choice_eq(s2, 0, TxnId(1));
        assert_ne!(t1, encoder.smt.false_term());
    }

    #[test]
    fn feasibility_alone_is_satisfiable_with_the_observed_choices() {
        let history = chained_deposits();
        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
    }

    #[test]
    fn model_extraction_reports_boundaries_and_choices() {
        let history = chained_deposits();
        let mut encoder = encoded(&history, Strategy::ApproxRelaxed, IsolationLevel::Causal);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
        let s2 = SessionId(1);
        let boundary = encoder.model_boundary(s2).expect("model has a boundary");
        assert_ne!(boundary, BoundaryPoint::Infinity);
        let choice = encoder.model_choice(s2, 0).expect("model has a choice");
        assert_eq!(choice, TxnId::INITIAL);
    }
}
