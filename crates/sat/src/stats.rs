//! Solver statistics.

/// Counters describing the work performed by a [`crate::Solver`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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
    /// Candidate clauses scanned by subsumption and self-subsuming
    /// resolution once past the size and signature filters
    /// (`pp.subsume_checks`).
    pub pp_subsume_checks: u64,
}

impl SolverStats {
    /// The change since an `earlier` snapshot of the same solver: every
    /// counter field-wise subtracted (saturating, so a reset solver or
    /// mismatched snapshot cannot underflow).
    ///
    /// All counters are cumulative over a solver's lifetime — `solve` never
    /// resets them — so per-call metrics are
    /// `let before = solver.stats().snapshot(); …; solver.stats().diff(&before)`
    /// instead of copying fields by hand.
    #[must_use]
    pub fn diff(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(earlier.theory_conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            deleted_clauses: self.deleted_clauses.saturating_sub(earlier.deleted_clauses),
            variables: self.variables.saturating_sub(earlier.variables),
            clauses: self.clauses.saturating_sub(earlier.clauses),
            literals: self.literals.saturating_sub(earlier.literals),
            pp_rounds: self.pp_rounds.saturating_sub(earlier.pp_rounds),
            pp_fixed: self.pp_fixed.saturating_sub(earlier.pp_fixed),
            pp_equivalences: self.pp_equivalences.saturating_sub(earlier.pp_equivalences),
            pp_subsumed: self.pp_subsumed.saturating_sub(earlier.pp_subsumed),
            pp_strengthened: self.pp_strengthened.saturating_sub(earlier.pp_strengthened),
            pp_eliminated: self.pp_eliminated.saturating_sub(earlier.pp_eliminated),
            pp_resolvents: self.pp_resolvents.saturating_sub(earlier.pp_resolvents),
            pp_probes: self.pp_probes.saturating_sub(earlier.pp_probes),
            pp_restored: self.pp_restored.saturating_sub(earlier.pp_restored),
            pp_probe_visits: self.pp_probe_visits.saturating_sub(earlier.pp_probe_visits),
            pp_subsume_checks: self
                .pp_subsume_checks
                .saturating_sub(earlier.pp_subsume_checks),
        }
    }

    /// An owned copy of the counters as they stand now (sugar over `Copy`
    /// that reads better at call sites pairing with [`SolverStats::diff`]).
    #[must_use]
    pub fn snapshot(&self) -> SolverStats {
        *self
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vars={} clauses={} literals={} decisions={} propagations={} conflicts={} (theory {}) restarts={} deleted={} \
             pp[rounds={} fixed={} equiv={} subsumed={} strengthened={} eliminated={} resolvents={} probes={} restored={} probe_visits={} subsume_checks={}]",
            self.variables,
            self.clauses,
            self.literals,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.theory_conflicts,
            self.restarts,
            self.deleted_clauses,
            self.pp_rounds,
            self.pp_fixed,
            self.pp_equivalences,
            self.pp_subsumed,
            self.pp_strengthened,
            self.pp_eliminated,
            self.pp_resolvents,
            self.pp_probes,
            self.pp_restored,
            self.pp_probe_visits,
            self.pp_subsume_checks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_all_counters() {
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            theory_conflicts: 4,
            restarts: 5,
            deleted_clauses: 6,
            variables: 7,
            clauses: 8,
            literals: 9,
            pp_eliminated: 10,
            ..SolverStats::default()
        };
        let s = stats.to_string();
        for needle in [
            "vars=7",
            "clauses=8",
            "literals=9",
            "conflicts=3",
            "theory 4",
            "eliminated=10",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn diff_subtracts_every_counter() {
        let earlier = SolverStats {
            decisions: 10,
            propagations: 20,
            conflicts: 30,
            theory_conflicts: 4,
            restarts: 5,
            deleted_clauses: 6,
            variables: 7,
            clauses: 8,
            literals: 90,
            pp_eliminated: 2,
            pp_probe_visits: 100,
            pp_subsume_checks: 40,
            ..SolverStats::default()
        };
        let later = SolverStats {
            decisions: 15,
            propagations: 29,
            conflicts: 31,
            theory_conflicts: 4,
            restarts: 7,
            deleted_clauses: 6,
            variables: 7,
            clauses: 10,
            literals: 95,
            pp_eliminated: 5,
            pp_probe_visits: 130,
            pp_subsume_checks: 41,
            ..SolverStats::default()
        };
        let delta = later.diff(&earlier);
        assert_eq!(delta.pp_eliminated, 3);
        assert_eq!(delta.pp_probe_visits, 30);
        assert_eq!(delta.pp_subsume_checks, 1);
        assert_eq!(delta.decisions, 5);
        assert_eq!(delta.propagations, 9);
        assert_eq!(delta.conflicts, 1);
        assert_eq!(delta.theory_conflicts, 0);
        assert_eq!(delta.restarts, 2);
        assert_eq!(delta.variables, 0);
        assert_eq!(delta.clauses, 2);
        assert_eq!(delta.literals, 5);
        // Mismatched snapshots saturate instead of underflowing.
        assert_eq!(earlier.diff(&later).decisions, 0);
        // A snapshot is an owned copy equal to the source.
        assert_eq!(later.snapshot(), later);
    }

    #[test]
    fn solve_accumulates_rather_than_resets() {
        use crate::{Lit, SolveOutcome, Solver, Var};
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        solver.add_clause(vec![Lit::positive(a), Lit::positive(b)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let first = solver.stats().snapshot();
        // Force disagreement so the second call does real work.
        let model = solver.model().expect("sat model");
        let flip = if model.value(Var::from_index(0)) {
            Lit::negative(a)
        } else {
            Lit::positive(a)
        };
        solver.add_clause(vec![flip]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let second = solver.stats().snapshot();
        let delta = second.diff(&first);
        assert!(second.propagations >= first.propagations, "cumulative");
        assert_eq!(delta.variables, 0);
        assert_eq!(delta.clauses, 1);
    }
}
