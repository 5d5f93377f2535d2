//! Deciding serializability of a concrete history.
//!
//! A history is serializable iff there exists a total commit order `co` that
//! contains `hb` and the arbitration order `ww` (Equation 1), where `ww`
//! itself depends on `co`. Deciding this is NP-hard in general (Biswas and
//! Enea), so the check is encoded propositionally: one boolean per ordered
//! transaction pair plus totality/antisymmetry/transitivity constraints, `hb`
//! edges as unit clauses, and one implication per arbitration instance.

use isopredict_sat::{Lit, SolveOutcome, Solver, Var};

use crate::history::History;
use crate::ids::TxnId;
use crate::relations::{hb_graph, ww_graph_for_commit_order};

/// Outcome of a serializability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializabilityResult {
    /// The history is serializable; the witness lists every transaction
    /// (including `t0`) in one admissible serial order.
    Serializable {
        /// A total commit order witnessing serializability.
        witness: Vec<TxnId>,
    },
    /// The history is not serializable.
    Unserializable,
}

impl SerializabilityResult {
    /// Whether the history was found serializable.
    #[must_use]
    pub fn is_serializable(&self) -> bool {
        matches!(self, SerializabilityResult::Serializable { .. })
    }
}

/// Decides whether `history` is serializable.
#[must_use]
pub fn check(history: &History) -> SerializabilityResult {
    let n = history.len();
    if n <= 1 {
        return SerializabilityResult::Serializable {
            witness: vec![TxnId::INITIAL],
        };
    }

    let mut solver = Solver::new();
    // ord[a][b] for a < b: true means "a commits before b".
    let mut ord = vec![vec![None::<Var>; n]; n];
    for (a, row) in ord.iter_mut().enumerate() {
        for slot in row.iter_mut().skip(a + 1) {
            *slot = Some(solver.new_var());
        }
    }
    // co(a, b) as a literal, for any ordered pair of distinct transactions.
    let co = |ord: &Vec<Vec<Option<Var>>>, a: usize, b: usize| -> Lit {
        if a < b {
            Lit::positive(ord[a][b].expect("pair variable exists"))
        } else {
            Lit::negative(ord[b][a].expect("pair variable exists"))
        }
    };

    // Transitivity: co(a,b) ∧ co(b,c) ⇒ co(a,c).
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            for c in 0..n {
                if c == a || c == b {
                    continue;
                }
                solver.add_clause([
                    co(&ord, a, b).negate(),
                    co(&ord, b, c).negate(),
                    co(&ord, a, c),
                ]);
            }
        }
    }

    // hb ⊆ co. A cyclic hb (closed into a self-loop) fits no commit order.
    let hb = hb_graph(history);
    for (from, to) in hb.edge_list() {
        if from == to {
            return SerializabilityResult::Unserializable;
        }
        solver.add_clause([co(&ord, from.index(), to.index())]);
    }

    // Arbitration: for every key k, writers t1 ≠ t2 of k, and reader t3 of k
    // reading from t2 (t3 ∉ {t1, t2}): co(t1, t3) ⇒ co(t1, t2).
    for key in history.keys() {
        let writers = history.writers_of(key);
        for (t2, t3, wr_key, _pos) in history.wr_tuples() {
            if wr_key != key {
                continue;
            }
            for &t1 in &writers {
                if t1 == t2 || t1 == t3 {
                    continue;
                }
                solver.add_clause([
                    co(&ord, t1.index(), t3.index()).negate(),
                    co(&ord, t1.index(), t2.index()),
                ]);
            }
        }
    }

    solver.preprocess();
    match solver.solve() {
        SolveOutcome::Sat => {
            let model = solver.model().expect("sat outcome has a model");
            // Position of a transaction = number of transactions ordered before it.
            let mut order: Vec<TxnId> = (0..n).map(|i| TxnId(i as u32)).collect();
            order.sort_by_key(|&t| {
                (0..n)
                    .filter(|&other| other != t.index())
                    .filter(|&other| model.lit_value(co(&ord, other, t.index())))
                    .count()
            });
            debug_assert!(commit_order_is_valid(history, &order));
            SerializabilityResult::Serializable { witness: order }
        }
        SolveOutcome::Unsat => SerializabilityResult::Unserializable,
        SolveOutcome::Unknown => unreachable!("no conflict budget configured"),
    }
}

/// Verifies that a total order satisfies the serializability axioms — used as
/// an internal sanity check and by tests.
#[must_use]
pub fn commit_order_is_valid(history: &History, order: &[TxnId]) -> bool {
    let n = history.len();
    if order.len() != n {
        return false;
    }
    let mut positions = vec![usize::MAX; n];
    for (pos, &txn) in order.iter().enumerate() {
        positions[txn.index()] = pos;
    }
    if positions.contains(&usize::MAX) {
        return false;
    }
    // hb ⊆ co.
    let hb = hb_graph(history);
    for (from, to) in hb.edge_list() {
        if positions[from.index()] >= positions[to.index()] {
            return false;
        }
    }
    // ww (computed against this commit order) ⊆ co.
    let ww = ww_graph_for_commit_order(history, &positions);
    for (from, to) in ww.edge_list() {
        if positions[from.index()] >= positions[to.index()] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryBuilder, TxnId};

    fn chained_deposits() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
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

    fn racing_deposits() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "acct", TxnId::INITIAL);
        b.write(t1, "acct");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "acct", TxnId::INITIAL);
        b.write(t2, "acct");
        b.commit(t2);
        b.finish()
    }

    #[test]
    fn figure_2a_is_serializable_with_the_expected_witness() {
        let h = chained_deposits();
        let result = check(&h);
        match result {
            SerializabilityResult::Serializable { witness } => {
                assert!(commit_order_is_valid(&h, &witness));
                let pos = |t: TxnId| witness.iter().position(|&x| x == t).unwrap();
                assert!(pos(TxnId::INITIAL) < pos(TxnId(1)));
                assert!(pos(TxnId(1)) < pos(TxnId(2)));
            }
            SerializabilityResult::Unserializable => panic!("figure 2a must be serializable"),
        }
    }

    #[test]
    fn figure_3a_is_unserializable() {
        let h = racing_deposits();
        assert_eq!(check(&h), SerializabilityResult::Unserializable);
    }

    #[test]
    fn lost_update_is_unserializable_even_with_three_sessions() {
        // Two racing read-modify-writes plus an unrelated reader.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let s3 = b.session("s3");
        let t1 = b.begin(s1);
        b.read(t1, "x", TxnId::INITIAL);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "x", TxnId::INITIAL);
        b.write(t2, "x");
        b.commit(t2);
        let t3 = b.begin(s3);
        b.read(t3, "y", TxnId::INITIAL);
        b.commit(t3);
        let h = b.finish();
        assert_eq!(check(&h), SerializabilityResult::Unserializable);
    }

    #[test]
    fn write_skew_is_unserializable() {
        // Classic write skew: t1 reads x writes y, t2 reads y writes x, both
        // reading the initial state.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "x", TxnId::INITIAL);
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "y", TxnId::INITIAL);
        b.write(t2, "x");
        b.commit(t2);
        let h = b.finish();
        // Write skew *is* serializable under the commit-order axioms only if
        // some order avoids the arbitration conflicts; here t1 reading x0 and
        // t2 reading y0 while writing each other's keys admits no such order?
        // In fact ⟨t1 before t2⟩ forces ww(t1 … ) — check the decision rather
        // than assert blindly: the axioms say this history is unserializable.
        assert_eq!(check(&h), SerializabilityResult::Unserializable);
    }

    #[test]
    fn read_only_transactions_are_always_serializable() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        for s in [s1, s2] {
            for _ in 0..3 {
                let t = b.begin(s);
                b.read(t, "x", TxnId::INITIAL);
                b.read(t, "y", TxnId::INITIAL);
                b.commit(t);
            }
        }
        let h = b.finish();
        assert!(check(&h).is_serializable());
    }

    #[test]
    fn cyclic_happens_before_is_unserializable() {
        // Each transaction reads the other's write: wr closes an hb cycle.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        let t2 = b.begin(s2);
        b.read(t1, "x", t2);
        b.write(t1, "y");
        b.read(t2, "y", t1);
        b.write(t2, "x");
        b.commit(t1);
        b.commit(t2);
        let h = b.finish();
        assert_eq!(check(&h), SerializabilityResult::Unserializable);
    }

    #[test]
    fn empty_history_is_serializable() {
        let h = HistoryBuilder::new().finish();
        assert!(check(&h).is_serializable());
    }

    #[test]
    fn witness_validation_rejects_bad_orders() {
        let h = chained_deposits();
        // Reversed order violates hb.
        assert!(!commit_order_is_valid(
            &h,
            &[TxnId(2), TxnId(1), TxnId::INITIAL]
        ));
        // Wrong length.
        assert!(!commit_order_is_valid(&h, &[TxnId::INITIAL]));
        // Duplicates.
        assert!(!commit_order_is_valid(
            &h,
            &[TxnId::INITIAL, TxnId(1), TxnId(1)]
        ));
    }
}
