//! Weak-isolation constraints (Section 4.3 and Appendix B.3) — the encoder
//! half of the isolation seam.
//!
//! The predicted execution must be valid under the target isolation level:
//! there must exist a commit order consistent with happens-before and the
//! level's arbitration order. Commit-order positions are strict-order nodes
//! (`φ_co(t)`), so the constraints are implications whose consequents are
//! `co(t1) < co(t2)` atoms; the strict-order theory guarantees an acyclic —
//! hence realizable — set of comparisons.
//!
//! Per-level axiom emitters are rows of the [`AXIOMS`] table, keyed by the
//! same [`IsolationLevel`] whose checker/chooser semantics live in
//! [`isopredict_history::isolation`]. Together the two tables are the only
//! level-dispatch sites in the workspace: a new level adds one row here (its
//! SMT axioms) and one row there (its concrete-history checker).

use std::collections::BTreeMap;

use isopredict_history::{KeyId, TxnId};
use isopredict_store::IsolationLevel;

use super::Encoder;
use crate::config::BoundaryKind;

/// The encoder-side seam row: how to emit one level's SMT axioms.
pub(crate) struct IsolationAxioms {
    /// The level this row encodes.
    pub(crate) level: IsolationLevel,
    /// Emits the level's constraints into the encoder's solver.
    pub(crate) emit: fn(&mut Encoder<'_>),
}

/// One axiom emitter per supported level, in [`IsolationLevel::ALL`] order.
pub(crate) const AXIOMS: [IsolationAxioms; 3] = [
    IsolationAxioms {
        level: IsolationLevel::Causal,
        emit: |encoder| encoder.encode_causal(),
    },
    IsolationAxioms {
        level: IsolationLevel::ReadCommitted,
        emit: |encoder| encoder.encode_read_committed(),
    },
    IsolationAxioms {
        level: IsolationLevel::Snapshot,
        emit: |encoder| encoder.encode_snapshot(),
    },
];

impl Encoder<'_> {
    /// Generates the constraints for the chosen isolation level.
    ///
    /// # Panics
    ///
    /// Panics if the level has no [`AXIOMS`] row, which would be a bug: the
    /// table is required to cover every variant.
    pub(crate) fn encode_isolation(&mut self, level: IsolationLevel) {
        let axioms = AXIOMS
            .iter()
            .find(|axioms| axioms.level == level)
            .expect("every isolation level has an axiom emitter");
        (axioms.emit)(self);
    }

    /// `hb(t1, t2) ⇒ co(t1) < co(t2)` for every ordered pair.
    fn encode_hb_in_commit_order(&mut self) {
        let txns: Vec<TxnId> = crate::encode::active_txns(self.history);
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 == t2 {
                    continue;
                }
                let hb = self.hb(t1, t2);
                let co1 = self.co(t1);
                let co2 = self.co(t2);
                let less = self.smt.less(co1, co2);
                let constraint = self.smt.implies(hb, less);
                self.smt.assert_term(constraint);
            }
        }
    }

    /// Causal consistency (Section 4.3.1, Appendix B.3.1):
    /// `wr_k(t2, t3) ∧ hb(t1, t3) ∧ wrpos_k(t1) < boundary(s1) ⇒ co(t1) < co(t2)`.
    fn encode_causal(&mut self) {
        self.encode_hb_in_commit_order();
        let keys: Vec<_> = self.history.keys().collect();
        for key in keys {
            let writers = self.history.writers_of(key);
            let readers = self.history.readers_of(key);
            for &t1 in &writers {
                for &t2 in &writers {
                    if t1 == t2 {
                        continue;
                    }
                    for &t3 in &readers {
                        if t3 == t1 || t3 == t2 {
                            continue;
                        }
                        let wr = self.wr_k(t2, t3, key);
                        let hb = self.hb(t1, t3);
                        let within = self.write_included(t1, key);
                        let antecedent = self.smt.and([wr, hb, within]);
                        let co1 = self.co(t1);
                        let co2 = self.co(t2);
                        let less = self.smt.less(co1, co2);
                        let constraint = self.smt.implies(antecedent, less);
                        self.smt.assert_term(constraint);
                    }
                }
            }
        }
    }

    /// Read committed (Section 4.3.2, Appendix B.3.2):
    /// `choice(s3, i) = t1 ∧ choice(s3, j) = t2 ∧ j ≤ boundary(s3) ∧
    /// wrpos_k(t1) < boundary(s1) ⇒ co(t1) < co(t2)` for reads `i < j` of
    /// transaction `t3` where `j` reads key `k`, and `t1` and `t2` both write
    /// `k`.
    fn encode_read_committed(&mut self) {
        self.encode_hb_in_commit_order();
        let keys: Vec<_> = self.history.keys().collect();
        for key in keys {
            let writers = self.history.writers_of(key);
            let readers = self.history.readers_of(key);
            for &t3 in &readers {
                if t3.is_initial() {
                    continue;
                }
                let txn = self.history.txn(t3);
                let Some(session) = txn.session else { continue };
                let all_read_positions = txn.read_positions();
                let key_read_positions = txn.read_positions_of_key(key);
                for &t1 in &writers {
                    for &t2 in &writers {
                        if t1 == t2 || t1 == t3 || t2 == t3 {
                            continue;
                        }
                        for &j in &key_read_positions {
                            for &i in &all_read_positions {
                                if i >= j {
                                    continue;
                                }
                                let beta = self.choice_eq(session, i, t1);
                                if beta == self.smt.false_term() {
                                    continue;
                                }
                                let alpha = self.choice_eq(session, j, t2);
                                if alpha == self.smt.false_term() {
                                    continue;
                                }
                                let within = self.included(session, j);
                                // The strict boundary can cut `t1` between
                                // its writes: the write β reads may be
                                // included while `t1`'s write of `k` is not,
                                // and then `t1` is no `k`-writer of the
                                // predicted history. The relaxed boundary
                                // keeps `t1` whole, so there β's feasibility
                                // already implies the guard.
                                let visible = if self.boundary_kind == BoundaryKind::Strict {
                                    self.write_included(t1, key)
                                } else {
                                    self.smt.true_term()
                                };
                                let antecedent = self.smt.and([beta, alpha, within, visible]);
                                let co1 = self.co(t1);
                                let co2 = self.co(t2);
                                let less = self.smt.less(co1, co2);
                                let constraint = self.smt.implies(antecedent, less);
                                self.smt.assert_term(constraint);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Snapshot isolation with first-committer-wins write conflicts (the
    /// level the paper names as the natural next step; the axioms of
    /// [`isopredict_history::si`] over *symbolic* `wr`, boundaries and commit
    /// order).
    ///
    /// Two constraint groups, both sound consequences of the exact SI
    /// axioms:
    ///
    /// 1. **The causal axioms** — in this framework `bs ⊇ hb` makes SI
    ///    strictly stronger than causal consistency, so every causal
    ///    constraint is an SI constraint (and torn snapshots are already
    ///    causal violations).
    /// 2. **Pairwise first-committer-wins**: two transactions whose writes of
    ///    a common key are both inside the prediction boundary can never
    ///    overlap, so one commits entirely before the other's snapshot —
    ///    `conflict(t1, t2) ⇒ D(t1 → t2) ∨ D(t2 → t1)`, where `D(t1 → t2)`
    ///    says `co(t1) < co(t2)` and every included read of `t2` on a key
    ///    that `t1` (visibly) writes observes `t1` or a co-later writer.
    ///    This is what rejects lost updates (both readers would have to
    ///    observe the other's predecessor) while admitting write skew
    ///    (disjoint write sets never conflict).
    ///
    /// Commit-order atoms appear only positively (in conclusions and
    /// disjunctions), as the strict-order theory requires — which is also why
    /// the *transitive* snapshot-prefix closure is not encoded: chasing `co`
    /// chains needs `co` in premises, i.e. per-pair order booleans, and the
    /// resulting search space makes the solver's no-prediction proofs blow
    /// up. Like the paper's approximate unserializability condition, the
    /// encoding instead stays slightly under-constrained (a prediction may
    /// very occasionally overshoot SI; replay validation and the exact
    /// [`isopredict_history::si`] checker are the backstop).
    fn encode_snapshot(&mut self) {
        self.encode_causal();
        // t0 commits first by construction, so only committed transactions
        // can genuinely conflict.
        let txns: Vec<TxnId> = crate::encode::active_txns(self.history)
            .into_iter()
            .filter(|t| !t.is_initial())
            .collect();
        let written: BTreeMap<TxnId, Vec<KeyId>> = txns
            .iter()
            .map(|&t| (t, self.history.txn(t).written_keys()))
            .collect();

        for (i, &t1) in txns.iter().enumerate() {
            for &t2 in txns.iter().skip(i + 1) {
                let common: Vec<KeyId> = written[&t1]
                    .iter()
                    .copied()
                    .filter(|k| written[&t2].contains(k))
                    .collect();
                if common.is_empty() {
                    continue;
                }
                let conflicts: Vec<_> = common
                    .into_iter()
                    .map(|k| {
                        let w1 = self.write_included(t1, k);
                        let w2 = self.write_included(t2, k);
                        self.smt.and([w1, w2])
                    })
                    .collect();
                let conflict = self.smt.or(conflicts);
                let forward = self.commits_before_snapshot(t1, t2);
                let backward = self.commits_before_snapshot(t2, t1);
                let ordered = self.smt.or([forward, backward]);
                let constraint = self.smt.implies(conflict, ordered);
                self.smt.assert_term(constraint);
            }
        }
    }

    /// `D(t1 → t2)`: `t1` commits entirely before `t2`'s snapshot —
    /// `co(t1) < co(t2)`, and every included read of `t2` on a key whose
    /// `t1`-write is inside the boundary observes `t1` itself or a writer
    /// co-after `t1`.
    fn commits_before_snapshot(&mut self, t1: TxnId, t2: TxnId) -> isopredict_smt::TermId {
        let co1 = self.co(t1);
        let co2 = self.co(t2);
        let mut conjuncts = vec![self.smt.less(co1, co2)];
        let reader = self.history.txn(t2);
        let Some(session) = reader.session else {
            return self.smt.and(conjuncts);
        };
        let reads: Vec<(usize, KeyId)> = reader
            .events
            .iter()
            .filter(|e| e.is_read())
            .map(|e| (e.pos, e.key))
            .collect();
        for (pos, key) in reads {
            if t1.is_initial() || self.history.txn(t1).write_position(key).is_none() {
                continue;
            }
            let candidates = self
                .choice
                .get(&(session, pos))
                .map(|choice| choice.candidates.clone())
                .unwrap_or_default();
            let mut sees_t1_or_later = Vec::new();
            for writer in candidates {
                let chosen = self.choice_eq(session, pos, writer);
                if writer == t1 {
                    sees_t1_or_later.push(chosen);
                } else {
                    let cow = self.co(writer);
                    let co1 = self.co(t1);
                    let later = self.smt.less(co1, cow);
                    sees_t1_or_later.push(self.smt.and([chosen, later]));
                }
            }
            let sees = self.smt.or(sees_t1_or_later);
            let visible = self.write_included(t1, key);
            let within = self.included(session, pos);
            let applicable = self.smt.and([visible, within]);
            conjuncts.push(self.smt.implies(applicable, sees));
        }
        self.smt.and(conjuncts)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::BoundaryKind;
    use crate::encode::test_support::*;
    use crate::encode::Encoder;
    use isopredict_history::{History, HistoryBuilder, SessionId, TxnId};
    use isopredict_smt::SmtResult;
    use isopredict_store::IsolationLevel;

    /// The Figure 7c/7d situation: forcing a same-session later read back to
    /// the initial state is not causal, so the constraints must reject it.
    #[test]
    fn causal_constraints_reject_non_causal_choices() {
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(sb);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        let t3 = b.begin(sa);
        b.read(t3, "x", t2);
        b.commit(t3);
        let history = b.finish();

        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::Causal);

        // Force t3 (session A, read at its recorded position) to read from t0.
        let pos = history.txn(TxnId(3)).read_positions()[0];
        let from_initial = encoder.choice_eq(SessionId(0), pos, TxnId::INITIAL);
        encoder.smt.assert_term(from_initial);
        assert_eq!(encoder.smt.check(), SmtResult::Unsat);
    }

    /// The same choice is allowed under read committed (Figure 7's discussion:
    /// rc admits strictly more predictions than causal).
    #[test]
    fn read_committed_accepts_what_causal_rejects() {
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(sb);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        let t3 = b.begin(sa);
        b.read(t3, "x", t2);
        b.commit(t3);
        let history = b.finish();

        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::ReadCommitted);
        let pos = history.txn(TxnId(3)).read_positions()[0];
        let from_initial = encoder.choice_eq(SessionId(0), pos, TxnId::INITIAL);
        encoder.smt.assert_term(from_initial);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
    }

    /// Reading an older value after a newer one inside one transaction
    /// violates read committed.
    #[test]
    fn read_committed_rejects_intra_transaction_time_travel() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(s1);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        let t3 = b.begin(s2);
        b.read(t3, "x", t2);
        b.read(t3, "x", t2);
        b.commit(t3);
        let history = b.finish();

        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::ReadCommitted);
        // Force the second read of t3 to go back to t1 after the first read
        // observed t2, and keep both reads inside the prediction boundary.
        let positions = history.txn(TxnId(3)).read_positions();
        let first = encoder.choice_eq(SessionId(1), positions[0], TxnId(2));
        let second = encoder.choice_eq(SessionId(1), positions[1], TxnId(1));
        encoder.smt.assert_term(first);
        encoder.smt.assert_term(second);
        let boundary = encoder.boundary[&SessionId(1)].clone();
        let second_read_index = boundary
            .domain
            .iter()
            .position(|&p| {
                p == crate::encode::BoundaryPoint::At {
                    match_before: positions[1],
                    include_through: positions[1],
                }
            })
            .expect("the second read is a boundary candidate");
        let pin = encoder.smt.fd_eq(boundary.var, second_read_index);
        encoder.smt.assert_term(pin);
        assert_eq!(encoder.smt.check(), SmtResult::Unsat);
    }

    /// Both deposits reading the initial state is causal (Figure 1b / 3a), so
    /// feasibility + causal constraints accept it.
    #[test]
    fn causal_constraints_accept_the_racing_deposits() {
        let history = chained_deposits();
        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::Causal);
        let from_initial = encoder.choice_eq(SessionId(1), 0, TxnId::INITIAL);
        encoder.smt.assert_term(from_initial);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
    }

    /// The racing-deposit choice is a lost update: first-committer-wins
    /// rejects what causal accepts. (With the relaxed boundary the second
    /// deposit's own write stays included, so the write–write conflict is
    /// real.)
    #[test]
    fn snapshot_constraints_reject_the_forced_lost_update() {
        let history = chained_deposits();
        for (level, expected) in [
            (IsolationLevel::Causal, SmtResult::Sat),
            (IsolationLevel::Snapshot, SmtResult::Unsat),
        ] {
            let mut encoder = Encoder::new(&history, BoundaryKind::Relaxed);
            encoder.encode_feasibility();
            encoder.encode_isolation(level);
            let from_initial = encoder.choice_eq(SessionId(1), 0, TxnId::INITIAL);
            encoder.smt.assert_term(from_initial);
            // Pin the first deposit's read to its observed writer too, so the
            // predicted execution really is both deposits reading t0.
            let first_read = encoder.choice_eq(SessionId(0), 0, TxnId::INITIAL);
            encoder.smt.assert_term(first_read);
            let not_infinity = {
                let boundary = encoder.boundary[&SessionId(1)].clone();
                let infinity_index = boundary.domain.len() - 1;
                let infinity = encoder.smt.fd_eq(boundary.var, infinity_index);
                encoder.smt.not(infinity)
            };
            encoder.smt.assert_term(not_infinity);
            assert_eq!(encoder.smt.check(), expected, "{level}");
        }
    }

    /// An observed two-key history whose stale-read variant is the classic
    /// write skew: disjoint write sets, crossed reads.
    fn write_skew_observed() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "x", TxnId::INITIAL);
        b.read(t1, "y", TxnId::INITIAL);
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "y", t1);
        b.read(t2, "x", TxnId::INITIAL);
        b.write(t2, "x");
        b.commit(t2);
        b.finish()
    }

    /// Forcing t2's read of y back to the initial state creates write skew —
    /// no write–write conflict, so the snapshot constraints accept it.
    #[test]
    fn snapshot_constraints_accept_the_forced_write_skew() {
        let history = write_skew_observed();
        let mut encoder = Encoder::new(&history, BoundaryKind::Relaxed);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::Snapshot);
        let y_read = history
            .txn(TxnId(2))
            .read_positions_of_key(history.key_id("y").expect("history interns y"))[0];
        let from_initial = encoder.choice_eq(SessionId(1), y_read, TxnId::INITIAL);
        encoder.smt.assert_term(from_initial);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
    }

    /// The axiom table covers every level: encoding each level on a small
    /// history with no forced choices stays satisfiable (the observed
    /// execution itself is a model).
    #[test]
    fn every_level_encodes_and_accepts_the_observed_execution() {
        let history = chained_deposits();
        for level in IsolationLevel::ALL {
            let mut encoder = Encoder::new(&history, BoundaryKind::Relaxed);
            encoder.encode_feasibility();
            encoder.encode_isolation(level);
            assert_eq!(encoder.smt.check(), SmtResult::Sat, "{level}");
        }
    }
}
