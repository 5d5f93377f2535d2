//! Solver statistics.

use serde::{Deserialize, Serialize};

/// Counters describing the work performed by a [`crate::Solver`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered (propositional and theory).
    pub conflicts: u64,
    /// Number of conflicts reported by the theory.
    pub theory_conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of problem variables.
    pub variables: u64,
    /// Number of problem (non-learnt) clauses added.
    pub clauses: u64,
    /// Total number of literal occurrences over the problem clauses added
    /// (the paper's "# Literals" metric).
    pub literals: u64,
    /// Preprocessing rounds executed (`pp.rounds`).
    pub pp_rounds: u64,
    /// Literals fixed at the top level by preprocessing (`pp.fixed`).
    pub pp_fixed: u64,
    /// Variables substituted by an equivalent literal (`pp.equivalences`).
    pub pp_equivalences: u64,
    /// Clauses removed by subsumption (`pp.subsumed`).
    pub pp_subsumed: u64,
    /// Literals removed by self-subsuming resolution (`pp.strengthened`).
    pub pp_strengthened: u64,
    /// Variables removed by bounded variable elimination (`pp.eliminated`).
    pub pp_eliminated: u64,
    /// Resolvent clauses added by variable elimination (`pp.resolvents`).
    pub pp_resolvents: u64,
    /// Failed-literal probes attempted (`pp.probes`).
    pub pp_probes: u64,
    /// Eliminated variables restored by incremental clauses (`pp.restored`).
    pub pp_restored: u64,
    /// Watch-list entries visited by failed-literal probing
    /// (`pp.probe_visits`).
    pub pp_probe_visits: u64,
    /// Candidate clauses scanned by the backward subsumption check (which
    /// decides subsumption and self-subsuming resolution together) once
    /// past the size and signature filters: for each clause, the entries of
    /// the occurrence lists of its rarest variable, both polarities
    /// (`pp.subsume_checks`).
    pub pp_subsume_checks: u64,
    /// Clause pairs examined by the count step of bounded variable
    /// elimination (`pp.bve_pairs`).
    pub pp_bve_pairs: u64,
}

impl SolverStats {
    /// The search and preprocessing work counters under their telemetry
    /// names (`solver.*`, `pp.*`). Every counter is cumulative over the
    /// solver's lifetime — `solve` never resets them — so a solver's list
    /// read once at the end is the total work of everything it did. The
    /// size counters (`variables`, `clauses`, `literals`) describe the
    /// formula, not work, and are not listed.
    #[must_use]
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("solver.decisions", self.decisions),
            ("solver.propagations", self.propagations),
            ("solver.conflicts", self.conflicts),
            ("solver.theory_conflicts", self.theory_conflicts),
            ("solver.restarts", self.restarts),
            ("solver.deleted_clauses", self.deleted_clauses),
            ("pp.rounds", self.pp_rounds),
            ("pp.fixed", self.pp_fixed),
            ("pp.equivalences", self.pp_equivalences),
            ("pp.subsumed", self.pp_subsumed),
            ("pp.strengthened", self.pp_strengthened),
            ("pp.eliminated", self.pp_eliminated),
            ("pp.resolvents", self.pp_resolvents),
            ("pp.probes", self.pp_probes),
            ("pp.restored", self.pp_restored),
            ("pp.probe_visits", self.pp_probe_visits),
            ("pp.subsume_checks", self.pp_subsume_checks),
            ("pp.bve_pairs", self.pp_bve_pairs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counters_name_every_work_field_once() {
        let stats = SolverStats {
            decisions: 1,
            conflicts: 3,
            pp_eliminated: 10,
            pp_bve_pairs: 11,
            variables: 7,
            ..SolverStats::default()
        };
        let counters = stats.work_counters();
        assert_eq!(counters.len(), 18);
        let mut names: Vec<&str> = counters.iter().map(|&(name, _)| name).collect();
        assert!(names
            .iter()
            .all(|name| name.starts_with("solver.") || name.starts_with("pp.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), counters.len(), "duplicate counter name");
        let value = |name| counters.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(value("solver.decisions"), Some(1));
        assert_eq!(value("solver.conflicts"), Some(3));
        assert_eq!(value("pp.eliminated"), Some(10));
        assert_eq!(value("pp.bve_pairs"), Some(11));
        // The formula's size is not work.
        assert_eq!(counters.iter().map(|&(_, v)| v).sum::<u64>(), 25);
    }

    #[test]
    fn solve_accumulates_rather_than_resets() {
        use crate::{Lit, SolveOutcome, Solver, Var};
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        solver.add_clause(vec![Lit::positive(a), Lit::positive(b)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let first = *solver.stats();
        // Force disagreement so the second call does real work.
        let model = solver.model().expect("sat model");
        let flip = if model.value(Var::from_index(0)) {
            Lit::negative(a)
        } else {
            Lit::positive(a)
        };
        solver.add_clause(vec![flip]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let second = *solver.stats();
        assert!(second.propagations >= first.propagations, "cumulative");
        assert_eq!(second.variables, first.variables);
        assert_eq!(second.clauses, first.clauses + 1);
    }
}
