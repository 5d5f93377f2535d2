//! Encoding-size and solving statistics.

/// Size of the constraint system handed to the SAT core, mirroring the
/// "# Literals" and "Constraint gen." columns of the paper's Tables 4 and 5.
/// Search work is not part of it: it lives in [`crate::SolverStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncodingStats {
    /// Number of SAT variables allocated (atoms + Tseitin definitions).
    pub variables: u64,
    /// Number of problem clauses generated.
    pub clauses: u64,
    /// Total number of literal occurrences over the problem clauses — the
    /// analogue of the paper's "# Literals" column.
    pub literals: u64,
    /// Number of distinct hash-consed terms built.
    pub terms: u64,
}

impl std::fmt::Display for EncodingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vars, {} clauses, {} literals, {} terms",
            self.variables, self.clauses, self.literals, self.terms
        )
    }
}

/// Work counters of the strict-order theory, cumulative over a solver's
/// lifetime like [`crate::SolverStats`]. They are a deterministic function
/// of the search, so they repeat exactly run to run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TheoryStats {
    /// Positive order atoms asserted to the theory.
    pub asserts: u64,
    /// Forward cycle searches run (assertions whose edge runs against the
    /// theory's topological order).
    pub searches: u64,
    /// Nodes popped by the forward and backward graph searches.
    pub nodes_visited: u64,
}

impl TheoryStats {
    /// The counters under their telemetry names (`solver.theory_*`), the
    /// theory's half of [`crate::SmtSolver::work_counters`].
    #[must_use]
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("solver.theory_asserts", self.asserts),
            ("solver.theory_searches", self.searches),
            ("solver.theory_nodes_visited", self.nodes_visited),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmtSolver;

    #[test]
    fn stats_grow_with_the_encoding() {
        let mut smt = SmtSolver::new();
        let a = smt.bool_var();
        let b = smt.bool_var();
        let or = smt.or([a, b]);
        smt.assert_term(or);
        let stats = smt.stats();
        assert!(stats.variables >= 2);
        assert!(stats.clauses >= 1);
        assert!(stats.literals >= 2);
        assert!(stats.terms >= 3);
    }

    #[test]
    fn display_is_informative() {
        let stats = EncodingStats {
            variables: 1,
            clauses: 2,
            literals: 3,
            terms: 4,
        };
        let text = stats.to_string();
        assert!(text.contains("3 literals"));
        assert!(text.contains("2 clauses"));
    }
}
