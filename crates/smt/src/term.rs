//! Hash-consed boolean terms.

use std::collections::HashMap;

use crate::fd::FdVar;
use crate::order::OrderNode;

/// Identifier of a term inside a `TermPool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A boolean term.
///
/// Terms are created through the builder methods on
/// [`crate::SmtSolver`] (`and`, `or`, `not`, `implies`, …) and are
/// structurally hash-consed: building the same term twice yields the same
/// [`TermId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A free boolean variable (atom).
    BoolVar(u32),
    /// Atom asserting that a finite-domain variable equals the value at the
    /// given index of its domain.
    FdEq(FdVar, u32),
    /// Atom asserting `left < right` in the strict-order theory.
    Less(OrderNode, OrderNode),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
}

/// Arena of hash-consed terms.
#[derive(Debug, Default)]
pub(crate) struct TermPool {
    terms: Vec<Term>,
    index: HashMap<Term, TermId>,
}

impl TermPool {
    pub(crate) fn new() -> Self {
        let mut pool = TermPool::default();
        // Keep the constants at fixed, well-known positions.
        pool.intern(Term::True);
        pool.intern(Term::False);
        pool
    }

    pub(crate) fn true_id(&self) -> TermId {
        TermId(0)
    }

    pub(crate) fn false_id(&self) -> TermId {
        TermId(1)
    }

    pub(crate) fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.index.get(&term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.index.insert(term.clone(), id);
        self.terms.push(term);
        id
    }

    pub(crate) fn get(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Looks up an already-interned term without interning it.
    pub(crate) fn index_of(&self, term: &Term) -> Option<&TermId> {
        self.index.get(term)
    }

    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_fixed_ids() {
        let pool = TermPool::new();
        assert_eq!(pool.get(pool.true_id()), &Term::True);
        assert_eq!(pool.get(pool.false_id()), &Term::False);
    }

    #[test]
    fn interning_deduplicates() {
        let mut pool = TermPool::new();
        let a = pool.intern(Term::BoolVar(0));
        let b = pool.intern(Term::BoolVar(0));
        let c = pool.intern(Term::BoolVar(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let and1 = pool.intern(Term::And(vec![a, c]));
        let and2 = pool.intern(Term::And(vec![a, c]));
        assert_eq!(and1, and2);
        assert_eq!(pool.len(), 5); // true, false, two vars, one and
    }
}
