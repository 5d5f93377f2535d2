//! Finite-domain variables.

/// A finite-domain variable: an unknown that takes exactly one value out of a
/// fixed domain of size `domain_size`.
///
/// IsoPredict uses these for `φ_choice(s, i)` (which transaction a read reads
/// from) and `φ_boundary(s)` (which event position delimits a session's
/// prediction boundary). Values are identified by their *index* in the
/// domain; mapping indices back to transactions/positions is the caller's
/// responsibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FdVar {
    pub(crate) id: u32,
}

impl FdVar {
    /// The dense identifier of this variable.
    #[must_use]
    pub fn id(self) -> u32 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use crate::{SmtResult, SmtSolver};

    #[test]
    fn fd_var_takes_exactly_one_value() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(3);
        // Forbid values 0 and 2; the model must pick 1.
        let e0 = smt.fd_eq(x, 0);
        let e2 = smt.fd_eq(x, 2);
        let not0 = smt.not(e0);
        let not2 = smt.not(e2);
        smt.assert_term(not0);
        smt.assert_term(not2);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_fd(x), Some(1));
    }

    #[test]
    fn fd_var_cannot_take_two_values() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(4);
        let e1 = smt.fd_eq(x, 1);
        let e3 = smt.fd_eq(x, 3);
        smt.assert_term(e1);
        smt.assert_term(e3);
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn forbidding_every_value_is_unsat() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(2);
        for v in 0..2 {
            let eq = smt.fd_eq(x, v);
            let neg = smt.not(eq);
            smt.assert_term(neg);
        }
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn singleton_domain_is_forced() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(1);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_fd(x), Some(0));
    }

    #[test]
    fn large_domain_uses_sequential_at_most_one() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(12);
        let eq7 = smt.fd_eq(x, 7);
        smt.assert_term(eq7);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_fd(x), Some(7));
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn out_of_domain_value_panics() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(2);
        let _ = smt.fd_eq(x, 5);
    }
}
