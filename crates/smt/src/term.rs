//! Hash-consed boolean terms.

use std::hash::{BuildHasher, Hash};

use crate::fd::FdVar;
use crate::fx::FxBuildHasher;
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
///
/// Each term is stored once, in `terms`; the lookup table holds only ids.
/// It is an open-addressing table with linear probing over the terms' Fx
/// hashes, at most half full.
#[derive(Debug)]
pub(crate) struct TermPool {
    terms: Vec<Term>,
    /// `slots[i]` is a term's id plus one, or 0 for an empty slot; the length
    /// is a power of two.
    slots: Vec<u32>,
}

impl TermPool {
    pub(crate) fn new() -> Self {
        let mut pool = TermPool {
            terms: Vec::new(),
            slots: vec![0; 16],
        };
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
        let slot = match self.probe(&term) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = TermId(self.terms.len() as u32);
        self.slots[slot] = id.0 + 1;
        self.terms.push(term);
        if 2 * self.terms.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    pub(crate) fn get(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The children of a conjunction or disjunction (empty for any other
    /// term).
    pub(crate) fn children(&self, id: TermId) -> &[TermId] {
        match self.get(id) {
            Term::And(children) | Term::Or(children) => children,
            _ => &[],
        }
    }

    /// Looks up an already-interned term without interning it.
    pub(crate) fn find(&self, term: &Term) -> Option<TermId> {
        self.probe(term).ok()
    }

    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// The first slot of `term`'s probe sequence: the top bits of its hash,
    /// where the Fx hash mixes best.
    fn home(&self, term: &Term) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        (FxBuildHasher::default().hash_one(term) >> shift) as usize
    }

    /// `Ok(id)` if `term` is interned, else `Err(slot)` with the empty slot
    /// where it belongs.
    fn probe(&self, term: &Term) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(term);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                stored => {
                    let id = TermId(stored - 1);
                    if self.terms[id.index()] == *term {
                        return Ok(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every term.
    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (index, term) in self.terms.iter().enumerate() {
            let mut slot = self.home(term);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32 + 1;
        }
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
        assert_eq!(pool.children(and1), &[a, c]);
        assert_eq!(pool.find(&Term::Or(vec![a, c])), None);
    }

    #[test]
    fn interning_survives_table_growth() {
        let mut pool = TermPool::new();
        let ids: Vec<TermId> = (0..1000).map(|v| pool.intern(Term::BoolVar(v))).collect();
        for (v, &id) in (0..1000).zip(&ids) {
            assert_eq!(pool.intern(Term::BoolVar(v)), id);
            assert_eq!(pool.find(&Term::BoolVar(v)), Some(id));
        }
        assert_eq!(pool.len(), 1002);
    }
}
