//! Two-watched-literal unit propagation.

use crate::assignment::LBool;
use crate::clause::ClauseRef;
use crate::solver::{Solver, Watcher};

impl Solver {
    /// Propagates all enqueued assignments. Returns a conflicting clause if a
    /// clause became falsified, otherwise `None`.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;

        while conflict.is_none() && self.qhead < self.assignment.trail.len() {
            let p = self.assignment.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Clauses watching ¬p must be examined because ¬p just became false.
            // The list is compacted in place: `i` reads, `j` writes the
            // watchers that stay. New watches never land on this list (the
            // replacement literal is not false, ¬p is).
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);

            'watchers: while i < watchers.len() {
                let watcher = watchers[i];
                i += 1;

                // Fast path: the blocker literal is already true.
                if self.value(watcher.blocker) == LBool::True {
                    watchers[j] = watcher;
                    j += 1;
                    continue;
                }

                let cref = watcher.cref;
                let false_lit = p.negate();

                // Normalize so that the false literal sits at position 1.
                {
                    let clause = self.db.get_mut(cref);
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                }

                let first = self.db.get(cref).lits[0];
                if first != watcher.blocker && self.value(first) == LBool::True {
                    watchers[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }

                // Look for a new literal to watch.
                let len = self.db.get(cref).len();
                for k in 2..len {
                    let candidate = self.db.get(cref).lits[k];
                    if self.value(candidate) != LBool::False {
                        let clause = self.db.get_mut(cref);
                        clause.lits.swap(1, k);
                        self.watches[candidate.negate().code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }

                // No new watch: the clause is unit or conflicting.
                watchers[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict: keep the remaining watchers untouched and stop.
                    conflict = Some(cref);
                    self.qhead = self.assignment.trail.len();
                    watchers.copy_within(i.., j);
                    j += watchers.len() - i;
                    i = watchers.len();
                } else {
                    let family = self.db.get(cref).family;
                    self.attribution.propagations_by_family[usize::from(family)] += 1;
                    self.enqueue(first, Some(cref));
                }
            }

            debug_assert!(self.watches[p.code()].is_empty());
            watchers.truncate(j);
            self.watches[p.code()] = watchers;
        }

        conflict
    }
}

#[cfg(test)]
mod tests {
    use crate::{Lit, SolveOutcome, Solver};

    #[test]
    fn chain_of_implications_propagates_to_the_end() {
        // x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) ∧ ... forces everything true.
        let mut solver = Solver::new();
        let vars: Vec<_> = (0..20).map(|_| solver.new_var()).collect();
        solver.add_clause([Lit::positive(vars[0])]);
        for w in vars.windows(2) {
            solver.add_clause([Lit::negative(w[0]), Lit::positive(w[1])]);
        }
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let model = solver.model().unwrap();
        for &v in &vars {
            assert!(model.value(v));
        }
    }

    #[test]
    fn conflicting_chain_is_unsat() {
        let mut solver = Solver::new();
        let vars: Vec<_> = (0..10).map(|_| solver.new_var()).collect();
        solver.add_clause([Lit::positive(vars[0])]);
        for w in vars.windows(2) {
            solver.add_clause([Lit::negative(w[0]), Lit::positive(w[1])]);
        }
        solver.add_clause([Lit::negative(vars[9])]);
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn propagation_counts_are_recorded() {
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        solver.add_clause([Lit::positive(a)]);
        solver.add_clause([Lit::negative(a), Lit::positive(b)]);
        solver.solve();
        assert!(solver.stats().propagations > 0);
    }
}
