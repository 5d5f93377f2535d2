//! DPLL(T)-style theory integration.

use crate::literal::Lit;

/// Result of notifying a theory about an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryResult {
    /// The theory state is consistent.
    Consistent,
    /// The theory state is inconsistent. The payload is a *conflict clause*:
    /// a disjunction of literals, all of which are currently false, that must
    /// hold in every model. The solver learns from it like from a regular
    /// propositional conflict.
    Conflict(Vec<Lit>),
}

impl TheoryResult {
    /// Returns `true` for [`TheoryResult::Consistent`].
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        matches!(self, TheoryResult::Consistent)
    }
}

/// A theory plugged into the CDCL solver.
///
/// The solver notifies the theory of every literal that becomes true (in
/// trail order) via [`Theory::assert_literal`] and undoes those notifications
/// with [`Theory::backtrack_to`]. Literals that are not theory atoms should
/// simply be ignored by the implementation. The theory must check every
/// assertion eagerly: a full assignment the theory has accepted literal by
/// literal is reported as a model without a further check.
pub trait Theory {
    /// Notifies the theory that `lit` became true at decision level `level`.
    fn assert_literal(&mut self, lit: Lit, level: u32) -> TheoryResult;

    /// Undoes every assertion made at a decision level strictly greater than
    /// `level`.
    fn backtrack_to(&mut self, level: u32);
}

/// A theory that accepts everything; used when solving pure SAT problems.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTheory;

impl Theory for NullTheory {
    fn assert_literal(&mut self, _lit: Lit, _level: u32) -> TheoryResult {
        TheoryResult::Consistent
    }

    fn backtrack_to(&mut self, _level: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_theory_is_always_consistent() {
        let mut t = NullTheory;
        assert!(t
            .assert_literal(Lit::positive(crate::Var::from_index(0)), 0)
            .is_consistent());
        t.backtrack_to(0);
    }

    #[test]
    fn conflict_result_is_not_consistent() {
        let conflict = TheoryResult::Conflict(vec![Lit::positive(crate::Var::from_index(1))]);
        assert!(!conflict.is_consistent());
    }
}
