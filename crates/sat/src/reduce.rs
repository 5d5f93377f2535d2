//! Learnt-clause database reduction and the Luby restart sequence.

use crate::clause::ClauseRef;
use crate::solver::Solver;

/// The `i`-th element (0-based) of the Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
pub(crate) fn luby(i: u64) -> u64 {
    // Find the finite subsequence that contains index `i` and the index inside it.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    let mut index = i;
    while size < index + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != index {
        size = (size - 1) / 2;
        seq -= 1;
        index %= size;
    }
    1u64 << seq
}

impl Solver {
    /// Deletes roughly half of the learnt clauses, preferring to keep clauses
    /// with low LBD ("glue") and high activity. Clauses that are currently the
    /// reason of an assignment are never deleted.
    pub(crate) fn reduce_learnt_db(&mut self) {
        let is_locked = self.locked_clauses();

        let mut candidates: Vec<(ClauseRef, u32, f64)> = self
            .db
            .live_learnt()
            .map(|(cref, clause)| (cref, clause.lbd, clause.activity))
            .collect();

        // Keep glue clauses (LBD <= 2) unconditionally.
        candidates.retain(|&(cref, lbd, _)| lbd > 2 && !is_locked(cref));
        // Delete the worst half: highest LBD first, then lowest activity.
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let to_delete = candidates.len() / 2;
        for &(cref, _, _) in candidates.iter().take(to_delete) {
            self.detach_clause(cref);
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
        }
    }

    /// Whether some variable's `reasons` entry points at a clause, from a
    /// bitset over the clause slots filled in one pass over `reasons`
    /// instead of a scan of it per clause.
    fn locked_clauses(&self) -> impl Fn(ClauseRef) -> bool {
        let mut locked = vec![0u64; self.db.clauses.len().div_ceil(64)];
        for cref in self.reasons.iter().flatten() {
            if let Some(word) = locked.get_mut(cref.index() / 64) {
                *word |= 1 << (cref.index() % 64);
            }
        }
        move |cref: ClauseRef| locked[cref.index() / 64] >> (cref.index() % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, SolveOutcome, Solver, SolverConfig, Var};

    #[test]
    fn luby_sequence_prefix_matches_reference() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let actual: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn reduction_keeps_problem_solvable() {
        // Force frequent reductions by setting a tiny learnt limit; the solver
        // must still decide the instance correctly.
        let config = SolverConfig {
            learnt_limit: 2,
            restart_interval: 10,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        let n = 6;
        let holes = 5;
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
    }

    #[test]
    fn locked_bitset_agrees_with_reason_scan() {
        // Stop a pigeonhole proof mid-search with a tiny learnt limit, so
        // the database holds learnt clauses and reductions have run.
        let mut config = SolverConfig {
            learnt_limit: 4,
            max_conflicts: Some(60),
            ..SolverConfig::default()
        };
        config.preprocess.enabled = false;
        let mut solver = Solver::with_config(config);
        let (pigeons, holes) = (7, 6);
        let vars: Vec<Var> = (0..pigeons * holes).map(|_| solver.new_var()).collect();
        for row in vars.chunks(holes) {
            solver.add_clause(row.iter().map(|&v| Lit::positive(v)));
        }
        for hole in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    solver.add_clause([
                        Lit::negative(vars[holes * p1 + hole]),
                        Lit::negative(vars[holes * p2 + hole]),
                    ]);
                }
            }
        }
        assert_eq!(solver.solve(), SolveOutcome::Unknown);
        assert!(solver.stats().deleted_clauses > 0, "no reduction ran");
        // Point variables at clauses as mid-search reasons would, including
        // several at one clause and the last slot.
        let slots = solver.db.clauses.len();
        for (v, reason) in solver.reasons.iter_mut().enumerate() {
            *reason = match v % 3 {
                0 => Some(ClauseRef((v * 7 % slots) as u32)),
                1 => Some(ClauseRef((slots - 1) as u32)),
                _ => None,
            };
        }
        let is_locked = solver.locked_clauses();
        for slot in 0..slots {
            let cref = ClauseRef(slot as u32);
            assert_eq!(
                is_locked(cref),
                solver.reasons.contains(&Some(cref)),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn disabling_reduction_is_allowed() {
        let config = SolverConfig {
            reduce_db: false,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        let a = solver.new_var();
        solver.add_clause([Lit::positive(a)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        assert_eq!(solver.stats().deleted_clauses, 0);
    }
}
