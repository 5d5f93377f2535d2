//! The approximate unserializability encoding (Section 4.2.2, Appendix B.2.2).
//!
//! A partial order `pco` is built that must be contained in *every* commit
//! order of the predicted execution: it includes session order, the chosen
//! write–read relation, the arbitration order `ww`, the anti-dependency order
//! `rw`, and is transitively closed. If `pco` can be made cyclic, no commit
//! order exists and the predicted execution is unserializable.
//!
//! Because `ww`, `rw` and `pco` are mutually recursive, a naive encoding would
//! let the solver invent "self-justifying" edges (Figure 6). The paper's fix —
//! reproduced here — attaches a `rank` to every edge and requires each edge's
//! justification to use only strictly lower-ranked edges; the strict-order
//! theory keeps the rank comparisons acyclic, which rules out circular
//! justifications.

use std::collections::BTreeMap;

use isopredict_history::{KeyId, TxnId};
use isopredict_smt::{OrderNode, TermId};

use super::Encoder;

/// The per-pair symbols of the approximate encoding, exposed so that the
/// predictor can extract the `pco` cycle that witnesses unserializability.
#[derive(Debug, Default, Clone)]
pub(crate) struct ApproxSymbols {
    /// `φ_ww(t1, t2)` variables.
    pub(crate) ww: BTreeMap<(TxnId, TxnId), TermId>,
    /// `φ_rw(t1, t2)` variables.
    pub(crate) rw: BTreeMap<(TxnId, TxnId), TermId>,
    /// `φ_pco(t1, t2)` variables.
    pub(crate) pco: BTreeMap<(TxnId, TxnId), TermId>,
}

impl Encoder<'_> {
    /// Generates the approximate unserializability constraints and returns
    /// the created symbols.
    pub(crate) fn encode_approx_unserializability(&mut self) -> ApproxSymbols {
        let txns: Vec<TxnId> = crate::encode::active_txns(self.history);

        // Allocate the per-pair boolean variables and rank nodes.
        let mut symbols = ApproxSymbols::default();
        let mut rank: BTreeMap<(TxnId, TxnId), OrderNode> = BTreeMap::new();
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 == t2 {
                    continue;
                }
                symbols.ww.insert((t1, t2), self.smt.bool_var());
                symbols.rw.insert((t1, t2), self.smt.bool_var());
                symbols.pco.insert((t1, t2), self.smt.bool_var());
                rank.insert((t1, t2), self.smt.order_node());
            }
        }

        // Each key's writers and readers, computed once for the loops below.
        let per_key: Vec<(KeyId, Vec<TxnId>, Vec<TxnId>)> = self
            .history
            .keys()
            .map(|key| {
                (
                    key,
                    self.history.writers_of(key),
                    self.history.readers_of(key),
                )
            })
            .collect();

        // ww(t1, t2) ⇒ ⋁_{k, t3} wr_k(t2, t3) ∧ pco(t1, t3) ∧ rank(t1,t2) > rank(t1,t3)
        //                         ∧ wrpos_k(t1) < boundary(s1)
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 == t2 {
                    continue;
                }
                let mut justifications = Vec::new();
                for (key, writers, readers) in &per_key {
                    let key = *key;
                    if !writers.contains(&t1) || !writers.contains(&t2) {
                        continue;
                    }
                    for &t3 in readers {
                        if t3 == t1 || t3 == t2 {
                            continue;
                        }
                        let wr = self.wr_k(t2, t3, key);
                        let pco = symbols.pco[&(t1, t3)];
                        let rank_gt = self.smt.less(rank[&(t1, t3)], rank[&(t1, t2)]);
                        let within = self.write_included(t1, key);
                        justifications.push(self.smt.and([wr, pco, rank_gt, within]));
                    }
                }
                let any = self.smt.or(justifications);
                let constraint = self.smt.implies(symbols.ww[&(t1, t2)], any);
                self.smt.assert_term(constraint);
            }
        }

        // rw(t1, t2) ⇒ ⋁_{k, t3} wr_k(t3, t1) ∧ pco(t3, t2) ∧ rank(t1,t2) > rank(t3,t2)
        //                         ∧ wrpos_k(t2) < boundary(s2)
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 == t2 {
                    continue;
                }
                let mut justifications = Vec::new();
                for (key, writers, readers) in &per_key {
                    let key = *key;
                    if !writers.contains(&t2) || !readers.contains(&t1) {
                        continue;
                    }
                    for &t3 in writers {
                        if t3 == t1 || t3 == t2 {
                            continue;
                        }
                        let wr = self.wr_k(t3, t1, key);
                        let pco = symbols.pco[&(t3, t2)];
                        let rank_gt = self.smt.less(rank[&(t3, t2)], rank[&(t1, t2)]);
                        let within = self.write_included(t2, key);
                        justifications.push(self.smt.and([wr, pco, rank_gt, within]));
                    }
                }
                let any = self.smt.or(justifications);
                let constraint = self.smt.implies(symbols.rw[&(t1, t2)], any);
                self.smt.assert_term(constraint);
            }
        }

        // pco(t1, t2) ⇒ so(t1,t2) ∨ wr(t1,t2) ∨ ww(t1,t2) ∨ rw(t1,t2)
        //               ∨ ⋁_t pco(t1,t) ∧ pco(t,t2) ∧ rank(t1,t2) > rank(t1,t)
        //                                         ∧ rank(t1,t2) > rank(t,t2)
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 == t2 {
                    continue;
                }
                let mut justifications = Vec::new();
                if self.so(t1, t2) {
                    justifications.push(self.smt.true_term());
                }
                justifications.push(self.wr(t1, t2));
                justifications.push(symbols.ww[&(t1, t2)]);
                justifications.push(symbols.rw[&(t1, t2)]);
                for &mid in &txns {
                    if mid == t1 || mid == t2 {
                        continue;
                    }
                    let first = symbols.pco[&(t1, mid)];
                    let second = symbols.pco[&(mid, t2)];
                    let rank_first = self.smt.less(rank[&(t1, mid)], rank[&(t1, t2)]);
                    let rank_second = self.smt.less(rank[&(mid, t2)], rank[&(t1, t2)]);
                    justifications.push(self.smt.and([first, second, rank_first, rank_second]));
                }
                let any = self.smt.or(justifications);
                let constraint = self.smt.implies(symbols.pco[&(t1, t2)], any);
                self.smt.assert_term(constraint);
            }
        }

        // The cycle requirement: some pair is pco-ordered both ways.
        let mut cycle = Vec::new();
        for &t1 in &txns {
            for &t2 in &txns {
                if t1 >= t2 {
                    continue;
                }
                let forward = symbols.pco[&(t1, t2)];
                let backward = symbols.pco[&(t2, t1)];
                cycle.push(self.smt.and([forward, backward]));
            }
        }
        let cyclic = self.smt.or(cycle);
        self.smt.assert_term(cyclic);

        symbols
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{BoundaryKind, Strategy};
    use crate::encode::test_support::*;
    use crate::encode::Encoder;
    use isopredict_history::{SessionId, TxnId};
    use isopredict_smt::SmtResult;
    use isopredict_store::IsolationLevel;

    /// Figures 1–3: from the chained-deposits observation, the analysis finds
    /// the racing-deposits execution (both read the initial state), which is
    /// causal but unserializable. The relaxed boundary is needed so that the
    /// changed read's own write stays part of the prediction.
    #[test]
    fn finds_the_racing_deposit_prediction() {
        let history = chained_deposits();
        let mut encoder = encoded(&history, Strategy::ApproxRelaxed, IsolationLevel::Causal);
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
        // The only way to make the prediction unserializable is for t2's read
        // to move to the initial state.
        let choice = encoder.choice[&(SessionId(1), 0)].clone();
        let value = encoder.smt.model_fd(choice.var).expect("model value");
        assert_eq!(choice.candidates[value], TxnId::INITIAL);
    }

    /// Figure 5/6 regression: without anti-dependency (`rw`) edges — or if
    /// rank constraints were dropped — the racing-deposits history would be
    /// mis-classified. Here we check the full encoder agrees with the
    /// dedicated serializability checker on the *observed* assignment: pinning
    /// every read to its observed writer leaves no unserializable prediction.
    #[test]
    fn observed_assignment_admits_no_cycle() {
        let history = chained_deposits();
        let mut encoder = Encoder::new(&history, BoundaryKind::Strict);
        encoder.encode_feasibility();
        encoder.encode_isolation(IsolationLevel::Causal);
        encoder.encode_approx_unserializability();
        let pins: Vec<(SessionId, usize, TxnId)> = encoder
            .choice
            .iter()
            .map(|(&(s, p), c)| (s, p, c.observed))
            .collect();
        for (session, pos, observed) in pins {
            let eq = encoder.choice_eq(session, pos, observed);
            encoder.smt.assert_term(eq);
        }
        assert_eq!(encoder.smt.check(), SmtResult::Unsat);
    }

    /// A single writing transaction cannot yield an unserializable prediction
    /// under causal (the paper's explanation for Voter's zero predictions).
    #[test]
    fn single_writer_histories_have_no_causal_prediction() {
        let history = single_writer_history();
        let mut encoder = encoded(&history, Strategy::ApproxRelaxed, IsolationLevel::Causal);
        assert_eq!(encoder.smt.check(), SmtResult::Unsat);
    }

    /// Under read committed the same single-writer history *does* admit an
    /// unserializable prediction (one reader observes the write, another the
    /// initial state — or the same reader a mix), matching Table 5's Voter row.
    #[test]
    fn single_writer_histories_do_have_rc_predictions_when_reads_repeat() {
        // Extend the single-writer history so a reader reads the key twice;
        // under rc the two reads may observe different writers, which is
        // unserializable.
        let mut b = isopredict_history::HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let tw = b.begin(s1);
        b.read(tw, "votes", TxnId::INITIAL);
        b.write(tw, "votes");
        b.commit(tw);
        let tr = b.begin(s2);
        b.read(tr, "votes", tw);
        b.read(tr, "votes", tw);
        b.commit(tr);
        let history = b.finish();

        let mut encoder = encoded(
            &history,
            Strategy::ApproxRelaxed,
            IsolationLevel::ReadCommitted,
        );
        assert_eq!(encoder.smt.check(), SmtResult::Sat);

        let mut causal_encoder = encoded(&history, Strategy::ApproxRelaxed, IsolationLevel::Causal);
        assert_eq!(causal_encoder.smt.check(), SmtResult::Unsat);
    }
}
