//! Clause storage.

use crate::literal::Lit;

/// A reference to a clause stored in the solver's clause arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A disjunction of literals.
#[derive(Debug, Clone)]
pub struct Clause {
    pub(crate) lits: Vec<Lit>,
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
    /// Literal-block distance ("glue") of a learnt clause; used by the
    /// clause-database reduction policy.
    pub(crate) lbd: u32,
    pub(crate) activity: f64,
    /// Axiom family that emitted the clause (see [`crate::flight`]).
    pub(crate) family: u16,
    /// Provenance bitmask: the families involved in deriving this clause
    /// (for problem clauses just the family's own bit; for learnt clauses
    /// the OR over every clause resolved on during analysis).
    pub(crate) mask: u32,
}

impl Clause {
    pub(crate) fn new(lits: Vec<Lit>, learnt: bool) -> Self {
        let family = if learnt {
            crate::flight::FAMILY_LEARNED
        } else {
            crate::flight::FAMILY_DEFAULT
        };
        Clause {
            lits,
            learnt,
            deleted: false,
            lbd: 0,
            activity: 0.0,
            family,
            mask: crate::flight::family_bit(family),
        }
    }

    /// The literals of the clause.
    #[must_use]
    pub fn literals(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals in the clause.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause is empty (always false).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether the clause was learnt during conflict analysis (as opposed to
    /// being part of the original problem).
    #[must_use]
    pub fn is_learnt(&self) -> bool {
        self.learnt
    }

    /// The id of the axiom family that emitted the clause (resolve names
    /// through [`crate::Solver::families`]).
    #[must_use]
    pub fn family(&self) -> u16 {
        self.family
    }
}

/// Arena of clauses. Deletion is logical (tombstones); the arena is compacted
/// only implicitly by never scanning deleted clauses from watch lists.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    pub(crate) clauses: Vec<Clause>,
    pub(crate) num_original: usize,
    pub(crate) num_learnt: usize,
    /// Total number of literal occurrences over live clauses.
    pub(crate) literal_count: u64,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb::default()
    }

    pub(crate) fn push(&mut self, clause: Clause) -> ClauseRef {
        let idx = self.clauses.len() as u32;
        if clause.learnt {
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        self.literal_count += clause.lits.len() as u64;
        self.clauses.push(clause);
        ClauseRef(idx)
    }

    pub(crate) fn get(&self, cref: ClauseRef) -> &Clause {
        &self.clauses[cref.index()]
    }

    pub(crate) fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        &mut self.clauses[cref.index()]
    }

    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        let clause = &mut self.clauses[cref.index()];
        if !clause.deleted {
            clause.deleted = true;
            if clause.learnt {
                self.num_learnt -= 1;
            } else {
                self.num_original -= 1;
            }
            self.literal_count -= clause.lits.len() as u64;
        }
    }

    /// Drops every clause from slot `len` on, as if never pushed.
    pub(crate) fn truncate(&mut self, len: usize) {
        for index in len..self.clauses.len() {
            self.delete(ClauseRef(index as u32));
        }
        self.clauses.truncate(len);
    }

    pub(crate) fn live_learnt(&self) -> impl Iterator<Item = (ClauseRef, &Clause)> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted)
            .map(|(i, c)| (ClauseRef(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Var;

    fn lit(i: u32) -> Lit {
        Lit::positive(Var::from_index(i))
    }

    #[test]
    fn arena_counts_clauses_and_literals() {
        let mut db = ClauseDb::new();
        let c1 = db.push(Clause::new(vec![lit(0), lit(1)], false));
        let c2 = db.push(Clause::new(vec![lit(2)], true));
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 1);
        assert_eq!(db.literal_count, 3);
        assert_eq!(db.get(c1).len(), 2);
        assert!(db.get(c2).is_learnt());

        db.delete(c2);
        assert_eq!(db.num_learnt, 0);
        assert_eq!(db.literal_count, 2);
        // Deleting twice is harmless.
        db.delete(c2);
        assert_eq!(db.num_learnt, 0);
    }

    #[test]
    fn live_learnt_skips_deleted_and_original() {
        let mut db = ClauseDb::new();
        db.push(Clause::new(vec![lit(0)], false));
        let l1 = db.push(Clause::new(vec![lit(1)], true));
        let l2 = db.push(Clause::new(vec![lit(2)], true));
        db.delete(l1);
        let live: Vec<ClauseRef> = db.live_learnt().map(|(r, _)| r).collect();
        assert_eq!(live, vec![l2]);
    }

    #[test]
    fn clause_accessors() {
        let c = Clause::new(vec![lit(3), lit(4)], false);
        assert_eq!(c.literals(), &[lit(3), lit(4)]);
        assert!(!c.is_empty());
        assert!(!c.is_learnt());
    }
}
