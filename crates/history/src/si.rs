//! Deciding snapshot isolation of a concrete history.
//!
//! Snapshot isolation gives every transaction `t` a start point `s(t)` and a
//! commit point `c(t)` with `s(t) < c(t)`: reads observe the latest version
//! committed before `s(t)`, and *first-committer-wins* forbids two
//! transactions that write a common key from overlapping (one must commit
//! before the other starts). Taking `co` to be the commit-point order, a
//! history `⟨T, so, wr⟩` is SI iff a total order `co ⊇ hb` exists such that,
//! writing `bs(t1, t2)` for "`t1` commits before `t2`'s snapshot":
//!
//! * `hb(t1, t2) ⇒ bs(t1, t2)` — session predecessors and observed writers
//!   (transitively) commit before the snapshot;
//! * `conflict(t1, t2) ∧ co(t1, t2) ⇒ bs(t1, t2)` — first-committer-wins:
//!   the earlier of two conflicting writers is entirely before the later
//!   one's snapshot;
//! * `co(t1, t) ∧ bs(t, t2) ⇒ bs(t1, t2)` — snapshots are `co`-prefixes;
//! * `wr_k(t1, t3) ∧ t2 writes k ∧ bs(t2, t3) ⇒ co(t2, t1)` — each read
//!   observes the *latest* `k`-version before its snapshot.
//!
//! `bs` is existentially quantified alongside `co` but only its least
//! fixpoint matters (the rules above bound it from below and the read axiom
//! consumes it negatively), so the encoding below is exact. Like
//! serializability — and unlike causal or read committed, whose arbitration
//! orders are hb-derived — the existential total order makes the decision
//! NP-hard (Biswas and Enea), so the check is propositional: one boolean per
//! ordered transaction pair for `co` (totality for free), one per ordered
//! pair for `bs`, and Horn clauses for the rules.
//!
//! In this axiomatization `bs ⊇ hb` makes SI strictly stronger than causal
//! consistency (a cheap polynomial pre-filter) and `bs ⊆ co` makes it
//! strictly weaker than serializability: lost updates are rejected while
//! write skew — unserializable but conflict-free — is admitted.

use isopredict_sat::{Lit, SolveOutcome, Solver, Var};

use crate::causal;
use crate::history::History;
use crate::ids::TxnId;
use crate::relations::hb_graph;

/// Whether `history` satisfies snapshot isolation.
#[must_use]
pub fn is_si(history: &History) -> bool {
    si_commit_order(history).is_some()
}

/// A commit order witnessing snapshot isolation, or `None` if the history is
/// not SI.
#[must_use]
pub fn si_commit_order(history: &History) -> Option<Vec<TxnId>> {
    let n = history.len();
    if n <= 1 {
        return Some(vec![TxnId::INITIAL]);
    }
    // SI implies causal here (`bs ⊇ hb` recovers every causal arbitration
    // instance), so a cyclic causal graph is a cheap definite "no".
    if causal::causal_graph(history).has_cycle() {
        return None;
    }

    let mut solver = Solver::new();
    // ord[a][b] for a < b: true means "a commits before b".
    let mut ord = vec![vec![None::<Var>; n]; n];
    for (a, row) in ord.iter_mut().enumerate() {
        for slot in row.iter_mut().skip(a + 1) {
            *slot = Some(solver.new_var());
        }
    }
    let co = |ord: &Vec<Vec<Option<Var>>>, a: usize, b: usize| -> Lit {
        if a < b {
            Lit::positive(ord[a][b].expect("pair variable exists"))
        } else {
            Lit::negative(ord[b][a].expect("pair variable exists"))
        }
    };
    // bs[a][b] for a ≠ b: true means "a commits before b's snapshot".
    let mut bs = vec![vec![None::<Var>; n]; n];
    for (a, row) in bs.iter_mut().enumerate() {
        for (b, slot) in row.iter_mut().enumerate() {
            if a != b {
                *slot = Some(solver.new_var());
            }
        }
    }
    let before_snapshot = |bs: &Vec<Vec<Option<Var>>>, a: usize, b: usize| -> Lit {
        Lit::positive(bs[a][b].expect("pair variable exists"))
    };

    // Transitivity of co: co(a,b) ∧ co(b,c) ⇒ co(a,c).
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

    // hb ⊆ co and hb ⊆ bs.
    let hb = hb_graph(history);
    for (from, to) in hb.edge_list() {
        solver.add_clause([co(&ord, from.index(), to.index())]);
        solver.add_clause([before_snapshot(&bs, from.index(), to.index())]);
    }

    // Writers per key, shared by the conflict and read-visibility clauses.
    let writers_by_key: Vec<Vec<TxnId>> = history.keys().map(|k| history.writers_of(k)).collect();

    // First-committer-wins: conflicting writers are never concurrent, so the
    // co-earlier one is before the later one's snapshot (both directions; the
    // single pair variable supplies totality). `t0` implicitly writes every
    // key's initial value and so conflicts with every writer — harmless,
    // since `t0` is hb-first anyway.
    for writers in &writers_by_key {
        for &t1 in writers {
            for &t2 in writers {
                if t1 == t2 {
                    continue;
                }
                solver.add_clause([
                    co(&ord, t1.index(), t2.index()).negate(),
                    before_snapshot(&bs, t1.index(), t2.index()),
                ]);
            }
        }
    }

    // Snapshots are co-prefixes: co(a, m) ∧ bs(m, b) ⇒ bs(a, b).
    for a in 0..n {
        for m in 0..n {
            if m == a {
                continue;
            }
            for b in 0..n {
                if b == a || b == m {
                    continue;
                }
                solver.add_clause([
                    co(&ord, a, m).negate(),
                    before_snapshot(&bs, m, b).negate(),
                    before_snapshot(&bs, a, b),
                ]);
            }
        }
    }

    // Reads see the latest version before the snapshot: for every read of `k`
    // in t3 from t1 and every other writer t2 of `k`, bs(t2,t3) ⇒ co(t2,t1).
    for (t1, t3, wr_key, _pos) in history.wr_tuples() {
        for &t2 in &writers_by_key[wr_key.index()] {
            if t2 == t1 || t2 == t3 {
                continue;
            }
            solver.add_clause([
                before_snapshot(&bs, t2.index(), t3.index()).negate(),
                co(&ord, t2.index(), t1.index()),
            ]);
        }
    }

    solver.preprocess();
    match solver.solve() {
        SolveOutcome::Sat => {
            let model = solver.model().expect("sat outcome has a model");
            let mut order: Vec<TxnId> = (0..n).map(|i| TxnId(i as u32)).collect();
            order.sort_by_key(|&t| {
                (0..n)
                    .filter(|&other| other != t.index())
                    .filter(|&other| model.lit_value(co(&ord, other, t.index())))
                    .count()
            });
            Some(order)
        }
        SolveOutcome::Unsat => None,
        SolveOutcome::Unknown => unreachable!("no conflict budget configured"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readcommitted::is_read_committed;
    use crate::serializability;
    use crate::{HistoryBuilder, TxnId};

    /// Figure 1b / 3a: both deposits read the initial balance.
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

    /// Classic write skew: disjoint write sets, crossed stale reads.
    fn write_skew() -> History {
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
        b.finish()
    }

    #[test]
    fn lost_update_is_rejected_under_si_but_allowed_under_weaker_levels() {
        let racing = racing_deposits();
        assert!(!is_si(&racing), "lost update violates first-committer-wins");
        assert!(si_commit_order(&racing).is_none());
        // …while the weaker levels all admit it (the existing fixtures).
        assert!(causal::is_causal(&racing));
        assert!(is_read_committed(&racing));
    }

    #[test]
    fn write_skew_is_si_yet_unserializable() {
        let skew = write_skew();
        assert!(is_si(&skew), "write skew has no write–write conflict");
        assert_eq!(
            serializability::check(&skew),
            crate::SerializabilityResult::Unserializable
        );
    }

    #[test]
    fn serial_chains_are_si_with_an_hb_respecting_witness() {
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
        let h = b.finish();
        let witness = si_commit_order(&h).expect("serial chains are SI");
        let pos = |t: TxnId| witness.iter().position(|&x| x == t).unwrap();
        assert!(pos(TxnId::INITIAL) < pos(TxnId(1)));
        assert!(pos(TxnId(1)) < pos(TxnId(2)));
    }

    #[test]
    fn non_causal_histories_are_not_si() {
        // The Figure 7d-style history (not causal, but read committed).
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
        b.read(t3, "x", TxnId::INITIAL);
        b.commit(t3);
        let h = b.finish();
        assert!(!causal::is_causal(&h));
        assert!(is_read_committed(&h));
        assert!(!is_si(&h));
    }

    #[test]
    fn stale_read_only_transactions_are_si() {
        // A read-only transaction may observe an old-but-consistent snapshot.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.write(t1, "x");
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "x", TxnId::INITIAL);
        b.read(t2, "y", TxnId::INITIAL);
        b.commit(t2);
        let h = b.finish();
        assert!(is_si(&h));
    }

    #[test]
    fn torn_snapshots_are_not_si() {
        // Reading y from the initial state but x from t1 tears t1's snapshot
        // (t1 wrote both): SI rejects it, read committed does not (the stale
        // read comes first in program order, so no rc arbitration applies).
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.write(t1, "x");
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "y", TxnId::INITIAL);
        b.read(t2, "x", t1);
        b.commit(t2);
        let h = b.finish();
        assert!(is_read_committed(&h));
        assert!(!is_si(&h));
    }

    #[test]
    fn empty_history_is_si() {
        let h = HistoryBuilder::new().finish();
        assert!(is_si(&h));
        assert_eq!(si_commit_order(&h), Some(vec![TxnId::INITIAL]));
    }
}
