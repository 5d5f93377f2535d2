//! The exact strategy's refinement clause (Section 4.2.1).
//!
//! The paper's exact unserializability condition says "no commit order
//! serializes the candidate", a universally quantified formula Z3 handles
//! with quantifiers. The predictor instead runs a counterexample-guided loop
//! (Janota & Marques-Silva, "Abstraction-Based Algorithm for 2QBF", SAT
//! 2011): every serializable candidate yields a witness commit order `σ`
//! from [`isopredict_history::serializability::check`], and the loop asserts
//! that the next candidate is *not* serialized by `σ`. One such clause rules
//! out every candidate history `σ` serializes, not only the one that
//! produced it.
//!
//! `σ` serializes a candidate iff `so ∪ wr ⊆ σ` and the arbitration order
//! `ww` computed against `σ` is in `σ` (Equation 1, as
//! [`isopredict_history::serializability::commit_order_is_valid`] checks
//! it). Session order is observed, so it holds for every candidate or for
//! none. The candidate-dependent part fails exactly when some included read
//! `r` of `t3` on key `k` chooses a writer `w` with
//!
//! * `w` after `t3` in `σ` (a backwards `wr` edge), or
//! * some other included writer `t1 ∉ {w, t3}` of `k` strictly between `w`
//!   and `t3` in `σ` (then `co(t1, t3)` forces `ww(t1, w)`, which `σ`
//!   orders backwards).
//!
//! Every atom is an existing encoder term (`choice_eq`, `included`,
//! `write_included`), and the clause only mentions reads inside the
//! boundary, so it depends on exactly what the predicted history depends on.

use isopredict_history::{relations::so_graph, KeyId, SessionId, TxnId};
use isopredict_smt::TermId;

use super::{BoundaryPoint, Encoder};

impl Encoder<'_> {
    /// The clause "commit order `witness` does not serialize the candidate":
    /// false under a candidate exactly when
    /// `commit_order_is_valid(candidate, witness)` holds. `witness` lists
    /// transactions of the observed history, earliest first; an order that
    /// is not a permutation of them or breaks session order serializes
    /// nothing, and its clause is the constant true.
    pub(crate) fn witness_refinement(&mut self, witness: &[TxnId]) -> TermId {
        let n = self.history.len();
        let mut position = vec![usize::MAX; n];
        for (index, &txn) in witness.iter().enumerate() {
            if let Some(slot) = position.get_mut(txn.index()) {
                *slot = index;
            }
        }
        let breaks_session_order = so_graph(self.history)
            .edge_list()
            .into_iter()
            .any(|(from, to)| position[from.index()] >= position[to.index()]);
        if witness.len() != n || position.contains(&usize::MAX) || breaks_session_order {
            return self.smt.true_term();
        }

        let reads: Vec<(SessionId, usize, KeyId, TxnId, Vec<TxnId>)> = self
            .choice
            .iter()
            .map(|(&(session, pos), choice)| {
                (
                    session,
                    pos,
                    choice.key,
                    choice.txn,
                    choice.candidates.clone(),
                )
            })
            .collect();
        let mut violations = Vec::new();
        for (session, pos, key, reader, candidates) in reads {
            let writers = self.history.writers_of(key);
            let included = self.included(session, pos);
            for writer in candidates {
                let (from, to) = (position[writer.index()], position[reader.index()]);
                let bad = if from > to {
                    self.smt.true_term()
                } else {
                    let between: Vec<TermId> = writers
                        .iter()
                        .filter(|&&t1| (from + 1..to).contains(&position[t1.index()]))
                        .map(|&t1| self.write_included(t1, key))
                        .collect();
                    self.smt.or(between)
                };
                let chosen = self.choice_eq(session, pos, writer);
                violations.push(self.smt.and([included, chosen, bad]));
            }
        }
        self.smt.or(violations)
    }

    /// The clause "the next candidate history differs from the current
    /// model's": some session keeps a different prefix of its events, or
    /// some read inside the model's boundary picks another writer. Boundary
    /// values that keep the same prefix (a boundary on a session's last
    /// event and `∞`, say) count as one, and reads past the boundary are
    /// left out, since the predicted history contains neither difference.
    pub(crate) fn candidate_exclusion(&mut self) -> TermId {
        let mut differs = Vec::new();
        let sessions: Vec<SessionId> = self.boundary.keys().copied().collect();
        for session in sessions {
            let positions: Vec<usize> = self
                .history
                .session_transactions(session)
                .iter()
                .flat_map(|&txn| self.history.txn(txn).events.iter().map(|e| e.pos))
                .collect();
            let limit = |point: BoundaryPoint| match point {
                BoundaryPoint::At {
                    include_through, ..
                } => include_through,
                BoundaryPoint::Infinity => usize::MAX,
            };
            let prefix = |point| positions.iter().filter(|&&pos| pos <= limit(point)).count();
            let boundary = &self.boundary[&session];
            let var = boundary.var;
            let Some(index) = self.smt.model_fd(var) else {
                continue;
            };
            let current = boundary.domain[index];
            let same_prefix: Vec<usize> = (0..boundary.domain.len())
                .filter(|&i| prefix(boundary.domain[i]) == prefix(current))
                .collect();
            let reads: Vec<(usize, TxnId)> = self
                .choice
                .range((session, 0)..=(session, limit(current)))
                .filter_map(|(&(_, pos), _)| Some((pos, self.model_choice(session, pos)?)))
                .collect();
            let same: Vec<TermId> = same_prefix
                .into_iter()
                .map(|i| self.smt.fd_eq(var, i))
                .collect();
            let same = self.smt.or(same);
            differs.push(self.smt.not(same));
            for (pos, writer) in reads {
                let same = self.choice_eq(session, pos, writer);
                differs.push(self.smt.not(same));
            }
        }
        self.smt.or(differs)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use isopredict_history::serializability::commit_order_is_valid;
    use isopredict_history::{relations::so_graph, History, HistoryBuilder, TxnId};
    use isopredict_smt::SmtResult;

    use crate::config::BoundaryKind;
    use crate::encode::Encoder;
    use crate::prediction::extract;

    /// A tiny observed history: `layout[s]` lists session `s`'s
    /// transactions, each a list of `(key, op)` with op 0 = read, 1 = write,
    /// 2 = read then write. Transactions run round-robin and every read
    /// observes the latest committed writer.
    fn history(layout: &[Vec<Vec<(u8, u8)>>]) -> History {
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

    fn layout() -> impl Strategy<Value = Vec<Vec<Vec<(u8, u8)>>>> {
        prop::collection::vec(
            prop::collection::vec(prop::collection::vec((0u8..3, 0u8..3), 1..3), 1..3),
            2..4,
        )
    }

    /// A total order of the history's transactions from random priorities:
    /// the priority order itself, or (when `respect_so`) the linear
    /// extension of session order that always takes the lowest-priority
    /// ready transaction.
    fn order(history: &History, priority: &[u64], respect_so: bool) -> Vec<TxnId> {
        let n = history.len();
        let key = |t: usize| priority[t % priority.len()];
        let mut txns: Vec<usize> = (0..n).collect();
        txns.sort_by_key(|&t| (key(t), t));
        if !respect_so {
            return txns.into_iter().map(|t| TxnId(t as u32)).collect();
        }
        let so = so_graph(history);
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let next = txns
                .iter()
                .copied()
                .find(|&t| {
                    !placed[t]
                        && so
                            .edge_list()
                            .iter()
                            .all(|&(from, to)| to.index() != t || placed[from.index()])
                })
                .expect("session order is acyclic");
            placed[next] = true;
            order.push(TxnId(next as u32));
        }
        order
    }

    /// Whether the refinement clause for `witness` holds under the
    /// candidate that picks boundary value `bounds[i]` for session `i` and
    /// writer index `picks[j]` for the `j`-th read, and whether `witness`
    /// serializes that candidate.
    fn evaluate(
        observed: &History,
        bounds: &[usize],
        picks: &[usize],
        witness: &[TxnId],
    ) -> (bool, bool) {
        let mut encoder = Encoder::new(observed, BoundaryKind::Strict);
        let mut pins = Vec::new();
        for (i, boundary) in encoder.boundary.values().enumerate() {
            pins.push((
                boundary.var,
                bounds[i % bounds.len()] % boundary.domain.len(),
            ));
        }
        for (j, choice) in encoder.choice.values().enumerate() {
            pins.push((choice.var, picks[j % picks.len()] % choice.candidates.len()));
        }
        for (var, value) in pins {
            let eq = encoder.smt.fd_eq(var, value);
            encoder.smt.assert_term(eq);
        }
        assert_eq!(encoder.smt.check(), SmtResult::Sat);
        let (candidate, _, _) = extract(&encoder, observed);
        let serializes = commit_order_is_valid(&candidate, witness);
        let clause = encoder.witness_refinement(witness);
        encoder.smt.assert_term(clause);
        let holds = encoder.smt.check() == SmtResult::Sat;
        (holds, serializes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The clause is false under a candidate exactly when the witness
        /// serializes it — over random candidates, feasible or not, and
        /// random orders, most of them respecting session order.
        #[test]
        fn refinement_is_false_iff_the_witness_serializes_the_candidate(
            layout in layout(),
            bounds in prop::collection::vec(0usize..8, 3..4),
            picks in prop::collection::vec(0usize..8, 1..13),
            priority in prop::collection::vec(any::<u64>(), 1..8),
            respect_so in 0u8..4,
        ) {
            let observed = history(&layout);
            let witness = order(&observed, &priority, respect_so != 0);
            let (holds, serializes) = evaluate(&observed, &bounds, &picks, &witness);
            prop_assert_eq!(holds, !serializes, "layout {:?} order {:?}", layout, witness);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Blocking with `candidate_exclusion` visits every feasible
        /// candidate history exactly once: the same set that blocking whole
        /// models finds, without repeats.
        #[test]
        fn exclusion_enumerates_each_candidate_history_once(layout in layout()) {
            let observed = history(&layout);
            let by_history = enumerate(&observed, |encoder| encoder.candidate_exclusion());
            let by_model = enumerate(&observed, model_exclusion);
            // Too many models to enumerate (a few cases in a hundred).
            let Some(by_model) = by_model else { return Ok(()) };
            let by_history = by_history.expect("fewer histories than models");
            let mut distinct = by_model;
            distinct.dedup();
            prop_assert_eq!(by_history, distinct, "layout {:?}", layout);
        }
    }

    /// The feasible candidate histories of `observed`, sorted, found by
    /// solving and asserting `block` after each model; `None` past 300
    /// models.
    fn enumerate(
        observed: &History,
        block: impl Fn(&mut Encoder<'_>) -> isopredict_smt::TermId,
    ) -> Option<Vec<String>> {
        let mut encoder = Encoder::new(observed, BoundaryKind::Strict);
        encoder.encode_feasibility();
        let mut found = Vec::new();
        while encoder.smt.check() == SmtResult::Sat {
            if found.len() == 300 {
                return None;
            }
            found.push(format!("{:?}", extract(&encoder, observed).0));
            let clause = block(&mut encoder);
            encoder.smt.assert_term(clause);
        }
        found.sort();
        Some(found)
    }

    /// Blocks the current model: every boundary and every choice variable.
    fn model_exclusion(encoder: &mut Encoder<'_>) -> isopredict_smt::TermId {
        let vars: Vec<_> = (encoder.boundary.values().map(|b| b.var))
            .chain(encoder.choice.values().map(|c| c.var))
            .collect();
        let mut differs = Vec::new();
        for var in vars {
            let value = encoder.smt.model_fd(var).expect("model");
            let same = encoder.smt.fd_eq(var, value);
            differs.push(encoder.smt.not(same));
        }
        encoder.smt.or(differs)
    }
}
