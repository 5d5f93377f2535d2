//! Tseitin conversion of terms to CNF and polarity checking.

use isopredict_sat::Lit;

use crate::solver::SmtSolver;
use crate::term::{Term, TermId};

impl SmtSolver {
    /// Returns the SAT literal representing `term`, generating Tseitin
    /// definition clauses on first use.
    pub(crate) fn encode_term(&mut self, term: TermId) -> Lit {
        if let Some(lit) = self.lit(term) {
            return lit;
        }
        let lit = match *self.pool.get(term) {
            Term::True => self.true_lit(),
            Term::False => self.true_lit().negate(),
            Term::BoolVar(_) | Term::FdEq(_, _) | Term::Less(_, _) => {
                // Atoms are registered eagerly when they are created, so
                // reaching this arm means an internal bookkeeping bug.
                unreachable!("atom without a SAT literal")
            }
            Term::Not(inner) => self.encode_term(inner).negate(),
            Term::And(_) => {
                let mut lits = self.encode_children(term);
                let fresh = Lit::positive(self.sat.new_var());
                // fresh ⇒ child, for every child
                for &child in &lits {
                    self.sat.add_clause([fresh.negate(), child]);
                }
                // (⋀ children) ⇒ fresh
                for child in &mut lits {
                    *child = child.negate();
                }
                lits.push(fresh);
                self.sat.add_clause(lits);
                fresh
            }
            Term::Or(_) => {
                let mut lits = self.encode_children(term);
                let fresh = Lit::positive(self.sat.new_var());
                // child ⇒ fresh, for every child
                for &child in &lits {
                    self.sat.add_clause([child.negate(), fresh]);
                }
                // fresh ⇒ (⋁ children)
                lits.push(fresh.negate());
                self.sat.add_clause(lits);
                fresh
            }
        };
        self.set_lit(term, lit);
        lit
    }

    /// The literals of a conjunction's or disjunction's children, in order,
    /// with room for one more.
    fn encode_children(&mut self, term: TermId) -> Vec<Lit> {
        let count = self.pool.children(term).len();
        let mut lits = Vec::with_capacity(count + 1);
        for i in 0..count {
            let child = self.pool.children(term)[i];
            lits.push(self.encode_term(child));
        }
        lits
    }

    /// Adds `term` to the solver as a top-level assertion.
    ///
    /// Conjunctions are flattened and disjunctions become a single clause, so
    /// asserting the formulas the IsoPredict encoders produce does not create
    /// unnecessary Tseitin variables at the top level.
    pub(crate) fn assert_encoded(&mut self, term: TermId) {
        match self.pool.get(term) {
            Term::True => {}
            Term::False => {
                self.sat.add_clause(std::iter::empty());
            }
            Term::And(children) => {
                for i in 0..children.len() {
                    let child = self.pool.children(term)[i];
                    self.assert_encoded(child);
                }
            }
            Term::Or(_) => {
                let clause = self.encode_children(term);
                self.sat.add_clause(clause);
            }
            _ => {
                let lit = self.encode_term(term);
                self.sat.add_clause([lit]);
            }
        }
    }

    /// Verifies that every order atom (`Less`) in `term` occurs with positive
    /// polarity. See the crate-level documentation for why this matters.
    /// Each (term, polarity) pair is walked once over the solver's lifetime:
    /// shared subterms asserted again are not re-walked.
    ///
    /// # Panics
    ///
    /// Panics if a `Less` atom occurs under an odd number of negations.
    pub(crate) fn check_order_polarity(&mut self, term: TermId) {
        // Iterative walk carrying the polarity (true = positive).
        let mut stack = vec![(term, true)];
        while let Some((id, positive)) = stack.pop() {
            let bit = if positive { POSITIVE } else { NEGATIVE };
            if self.polarity_walked.len() <= id.index() {
                self.polarity_walked.resize(self.pool.len(), 0);
            }
            if self.polarity_walked[id.index()] & bit != 0 {
                continue;
            }
            match self.pool.get(id) {
                Term::Less(a, b) => {
                    assert!(
                        positive,
                        "order atom {:?} < {:?} used with negative polarity; \
                         the strict-order theory only supports positive occurrences",
                        a, b
                    );
                }
                Term::Not(inner) => stack.push((*inner, !positive)),
                Term::And(children) | Term::Or(children) => {
                    for &child in children {
                        stack.push((child, positive));
                    }
                }
                Term::True | Term::False | Term::BoolVar(_) | Term::FdEq(_, _) => {}
            }
            self.polarity_walked[id.index()] |= bit;
        }
    }
}

// `check_order_polarity`'s marks in `polarity_walked`: the polarities a
// term has been walked with.
const POSITIVE: u8 = 1;
const NEGATIVE: u8 = 2;

#[cfg(test)]
mod tests {
    use crate::{SmtResult, SmtSolver};

    #[test]
    fn nested_formula_round_trips_through_tseitin() {
        // (a ∧ (b ∨ ¬c)) ∨ (¬a ∧ c) with a forced false and c forced true
        // leaves exactly the right branch.
        let mut smt = SmtSolver::new();
        let a = smt.bool_var();
        let b = smt.bool_var();
        let c = smt.bool_var();
        let not_c = smt.not(c);
        let b_or_not_c = smt.or([b, not_c]);
        let left = smt.and([a, b_or_not_c]);
        let not_a = smt.not(a);
        let right = smt.and([not_a, c]);
        let formula = smt.or([left, right]);
        smt.assert_term(formula);
        let not_a2 = smt.not(a);
        smt.assert_term(not_a2);
        smt.assert_term(c);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_bool(a), Some(false));
        assert_eq!(smt.model_bool(c), Some(true));
    }

    #[test]
    fn asserting_false_is_unsat() {
        let mut smt = SmtSolver::new();
        let f = smt.false_term();
        smt.assert_term(f);
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn implication_and_iff_behave_as_expected() {
        let mut smt = SmtSolver::new();
        let a = smt.bool_var();
        let b = smt.bool_var();
        let imp = smt.implies(a, b);
        let iff = smt.iff(a, b);
        smt.assert_term(imp);
        smt.assert_term(iff);
        smt.assert_term(a);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_bool(b), Some(true));
    }

    #[test]
    fn deeply_nested_terms_do_not_recurse_excessively() {
        let mut smt = SmtSolver::new();
        let mut current = smt.bool_var();
        for _ in 1..200 {
            let next = smt.bool_var();
            current = smt.and([current, next]);
        }
        smt.assert_term(current);
        assert_eq!(smt.check(), SmtResult::Sat);
    }

    #[test]
    #[should_panic(expected = "negative polarity")]
    fn an_order_atom_walked_positively_is_still_rejected_negated() {
        // A shared subterm walked with one polarity is walked again with
        // the other.
        let mut smt = SmtSolver::new();
        let a = smt.order_node();
        let b = smt.order_node();
        let lt = smt.less(a, b);
        let c = smt.bool_var();
        let shared = smt.or([lt, c]);
        smt.assert_term(shared);
        let neg = smt.not(shared);
        let d = smt.bool_var();
        let outer = smt.or([neg, d]);
        smt.assert_term(outer);
    }

    #[test]
    #[should_panic(expected = "negative polarity")]
    fn negated_order_atom_is_rejected() {
        let mut smt = SmtSolver::new();
        let a = smt.order_node();
        let b = smt.order_node();
        let lt = smt.less(a, b);
        let neg = smt.not(lt);
        smt.assert_term(neg);
    }
}
