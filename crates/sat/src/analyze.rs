//! First-UIP conflict analysis and clause minimization.

use crate::literal::Lit;
use crate::solver::Solver;

impl Solver {
    /// Analyzes a conflict described by `conflict` (a clause whose literals
    /// are all currently false) and produces a learnt clause.
    ///
    /// Returns `(learnt, backtrack_level, lbd)` where `learnt[0]` is the
    /// asserting literal. The caller must ensure that at least one literal of
    /// `conflict` was assigned at the current decision level (backtracking to
    /// the maximum assignment level of the conflict first if necessary; see
    /// [`Solver::backtrack_to_conflict_level`]).
    pub(crate) fn analyze_lits(&mut self, conflict: &[Lit]) -> (Vec<Lit>, u32, u32) {
        let current_level = self.assignment.decision_level();
        debug_assert!(current_level > 0, "conflicts at level 0 mean UNSAT");

        let mut learnt: Vec<Lit> = vec![Lit::positive(crate::Var::from_index(0))]; // placeholder for UIP
        let mut counter = 0usize; // literals of the current level still to resolve
        let mut trail_index = self.assignment.trail.len();
        let mut pending: Vec<Lit> = conflict.to_vec();
        let mut marked: Vec<crate::Var> = Vec::new();

        let uip = loop {
            for &lit in &pending {
                let var = lit.var();
                if self.seen[var.index()] || self.assignment.level(var) == 0 {
                    continue;
                }
                self.seen[var.index()] = true;
                marked.push(var);
                self.bump_var(var);
                if self.assignment.level(var) == current_level {
                    counter += 1;
                } else {
                    learnt.push(lit);
                }
            }

            // Walk the trail backwards to the next marked literal of the
            // current decision level.
            let next = loop {
                debug_assert!(trail_index > 0, "ran out of trail during analysis");
                trail_index -= 1;
                let lit = self.assignment.trail[trail_index];
                if self.seen[lit.var().index()] && self.assignment.level(lit.var()) == current_level
                {
                    break lit;
                }
            };

            self.seen[next.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break next;
            }

            let reason = self.reasons[next.var().index()]
                .expect("non-decision literal at current level has a reason");
            self.bump_clause(reason);
            // Provenance: the conflict's derivation involves every clause
            // resolved on (see crate::flight).
            self.analysis_mask |= self.db.get(reason).mask;
            pending.clear();
            pending.extend(self.db.get(reason).lits.iter().filter(|&&l| l != next));
        };

        learnt[0] = uip.negate();

        self.minimize_learnt(&mut learnt);

        // Compute the backtrack level: the second-highest level in the clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_idx = 1;
            let mut max_level = self.assignment.level(learnt[1].var());
            for (i, lit) in learnt.iter().enumerate().skip(2) {
                let level = self.assignment.level(lit.var());
                if level > max_level {
                    max_level = level;
                    max_idx = i;
                }
            }
            learnt.swap(1, max_idx);
            max_level
        };

        let lbd = self.compute_lbd(&learnt);

        // Clear every `seen` marker set during this analysis (including those
        // on literals that clause minimization removed).
        for var in marked {
            self.seen[var.index()] = false;
        }

        (learnt, backtrack_level, lbd)
    }

    /// If every literal of `conflict` was assigned below the current decision
    /// level (possible for theory conflicts discovered lazily), backtrack to
    /// the highest assignment level appearing in the conflict so that the
    /// standard analysis invariant holds. Returns that level.
    pub(crate) fn conflict_level(&self, conflict: &[Lit]) -> u32 {
        conflict
            .iter()
            .map(|l| self.assignment.level(l.var()))
            .max()
            .unwrap_or(0)
    }

    /// Removes literals that are implied by the rest of the clause (simple
    /// self-subsumption: a literal is redundant if every literal of its reason
    /// clause is already in the learnt clause or at level 0).
    ///
    /// After the first-UIP walk `seen` marks exactly the variables of the
    /// learnt clause's lower-level literals. A reason's other literals are
    /// false and assigned below the current level, so `seen` tells whether
    /// one of them is in the learnt clause.
    fn minimize_learnt(&self, learnt: &mut Vec<Lit>) {
        let asserting = learnt[0];
        learnt.retain(|&lit| {
            if lit == asserting {
                return true; // never drop the asserting literal
            }
            match self.reasons[lit.var().index()] {
                None => true,
                Some(reason) => !self.db.get(reason).lits.iter().all(|&rl| {
                    rl == lit.negate()
                        || self.assignment.level(rl.var()) == 0
                        || self.seen[rl.var().index()]
                }),
            }
        });
    }

    /// Literal-block distance: the number of distinct decision levels in a clause.
    pub(crate) fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.assignment.level(l.var()))
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Ensures the current decision level matches the highest level appearing
    /// in `conflict`, backtracking (and informing the theory) if needed.
    pub(crate) fn backtrack_to_conflict_level<T: crate::Theory>(
        &mut self,
        conflict: &[Lit],
        theory: &mut T,
    ) -> u32 {
        let level = self.conflict_level(conflict);
        if level < self.assignment.decision_level() {
            self.cancel_until(level);
            theory.backtrack_to(level);
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use crate::{Lit, SolveOutcome, Solver, Var};

    /// Random 3-SAT instances near the satisfiability threshold exercise the
    /// conflict-analysis machinery; we cross-check the solver's answer against
    /// brute force.
    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };

        for instance in 0..30 {
            let num_vars = 8;
            let num_clauses = 36;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = (next() % num_vars as u64) as usize;
                    let neg = next() % 2 == 0;
                    clause.push((v, neg));
                }
                clauses.push(clause);
            }

            // Brute-force satisfiability.
            let mut brute_sat = false;
            'outer: for assignment in 0u32..(1 << num_vars) {
                for clause in &clauses {
                    let ok = clause
                        .iter()
                        .any(|&(v, neg)| ((assignment >> v) & 1 == 1) != neg);
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }

            let mut solver = Solver::new();
            let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
            for clause in &clauses {
                solver.add_clause(clause.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
            }
            let outcome = solver.solve();
            match outcome {
                SolveOutcome::Sat => {
                    assert!(
                        brute_sat,
                        "solver said SAT, brute force says UNSAT (instance {instance})"
                    );
                    let m = solver.model().unwrap();
                    for clause in &clauses {
                        assert!(
                            clause.iter().any(|&(v, neg)| m.value(vars[v]) != neg),
                            "model does not satisfy clause (instance {instance})"
                        );
                    }
                }
                SolveOutcome::Unsat => {
                    assert!(
                        !brute_sat,
                        "solver said UNSAT, brute force says SAT (instance {instance})"
                    );
                }
                SolveOutcome::Unknown => panic!("no budget configured"),
            }
        }
    }

    #[test]
    fn learnt_clauses_accumulate_on_hard_instances() {
        // Pigeonhole 4-into-3 forces many conflicts and learnt clauses. It
        // is not preprocessed because variable elimination can solve the
        // instance outright, and this test targets conflict analysis.
        let mut solver = Solver::new();
        let n = 4;
        let holes = 3;
        let mut p = vec![vec![Var::from_index(0); holes]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = solver.new_var();
            }
        }
        for row in &p {
            solver.add_clause(row.iter().map(|&v| Lit::positive(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (slot1, slot2) in row1.iter().zip(row2) {
                    solver.add_clause([Lit::negative(*slot1), Lit::negative(*slot2)]);
                }
            }
        }
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
        assert!(solver.stats().conflicts > 0);
    }
}
