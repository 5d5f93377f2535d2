//! Partial assignments over propositional variables.

use crate::literal::{Lit, Var};

/// A three-valued truth assignment for a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// The variable is assigned true.
    True,
    /// The variable is assigned false.
    False,
    /// The variable is unassigned.
    Undef,
}

impl LBool {
    /// Converts a concrete boolean into an assigned [`LBool`].
    #[must_use]
    pub fn from_bool(value: bool) -> Self {
        if value {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns `true` if this value is assigned (not [`LBool::Undef`]).
    #[must_use]
    pub fn is_assigned(self) -> bool {
        !matches!(self, LBool::Undef)
    }

    /// Returns the negation; `Undef` stays `Undef`.
    #[must_use]
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

/// The solver's current partial assignment together with the trail metadata
/// needed for backtracking and conflict analysis.
#[derive(Debug, Default, Clone)]
pub(crate) struct Assignment {
    values: Vec<LBool>,
    levels: Vec<u32>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
}

impl Assignment {
    pub(crate) fn new() -> Self {
        Assignment::default()
    }

    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        self.values.resize(num_vars, LBool::Undef);
        self.levels.resize(num_vars, 0);
    }

    pub(crate) fn num_vars(&self) -> usize {
        self.values.len()
    }

    pub(crate) fn value_var(&self, var: Var) -> LBool {
        self.values[var.index()]
    }

    pub(crate) fn value_lit(&self, lit: Lit) -> LBool {
        let v = self.values[lit.var().index()];
        if lit.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    pub(crate) fn level(&self, var: Var) -> u32 {
        self.levels[var.index()]
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Records `lit` as true at the current decision level.
    pub(crate) fn assign(&mut self, lit: Lit) {
        let var = lit.var();
        debug_assert_eq!(self.values[var.index()], LBool::Undef);
        self.values[var.index()] = LBool::from_bool(lit.is_positive());
        self.levels[var.index()] = self.decision_level();
        self.trail.push(lit);
    }

    /// Unassigns everything above `level`, passing each removed literal to
    /// `on_unassign` in reverse-chronological order (most recent first).
    pub(crate) fn backtrack_to(&mut self, level: u32, mut on_unassign: impl FnMut(Lit)) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for lit in self.trail.drain(target..).rev() {
            self.values[lit.var().index()] = LBool::Undef;
            on_unassign(lit);
        }
        self.trail_lim.truncate(level as usize);
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_complete(&self) -> bool {
        self.trail.len() == self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: u32, neg: bool) -> Lit {
        Lit::new(Var::from_index(i), neg)
    }

    #[test]
    fn assign_and_read_back() {
        let mut a = Assignment::new();
        a.grow_to(3);
        a.assign(lit(0, false));
        a.assign(lit(1, true));
        assert_eq!(a.value_var(Var::from_index(0)), LBool::True);
        assert_eq!(a.value_var(Var::from_index(1)), LBool::False);
        assert_eq!(a.value_var(Var::from_index(2)), LBool::Undef);
        assert_eq!(a.value_lit(lit(1, true)), LBool::True);
        assert_eq!(a.value_lit(lit(1, false)), LBool::False);
    }

    #[test]
    fn backtracking_unassigns_levels_above_target() {
        let mut a = Assignment::new();
        a.grow_to(4);
        a.assign(lit(0, false)); // level 0
        a.new_decision_level();
        a.assign(lit(1, false)); // level 1
        a.new_decision_level();
        a.assign(lit(2, false)); // level 2
        a.assign(lit(3, false)); // level 2 (propagation)
        assert_eq!(a.decision_level(), 2);

        let mut removed = Vec::new();
        a.backtrack_to(1, |lit| removed.push(lit));
        assert_eq!(removed, vec![lit(3, false), lit(2, false)]);
        assert_eq!(a.decision_level(), 1);
        assert_eq!(a.value_var(Var::from_index(2)), LBool::Undef);
        assert_eq!(a.value_var(Var::from_index(3)), LBool::Undef);
        assert_eq!(a.value_var(Var::from_index(1)), LBool::True);
        assert_eq!(a.value_var(Var::from_index(0)), LBool::True);
    }

    #[test]
    fn backtrack_to_current_level_is_a_no_op() {
        let mut a = Assignment::new();
        a.grow_to(1);
        a.assign(lit(0, false));
        let mut removed = Vec::new();
        a.backtrack_to(0, |lit| removed.push(lit));
        assert!(removed.is_empty());
        assert_eq!(a.value_var(Var::from_index(0)), LBool::True);
    }

    #[test]
    fn completeness_tracks_trail_length() {
        let mut a = Assignment::new();
        a.grow_to(2);
        assert!(!a.is_complete());
        a.assign(lit(0, false));
        a.assign(lit(1, false));
        assert!(a.is_complete());
    }

    #[test]
    fn lbool_negation() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert!(LBool::True.is_assigned());
        assert!(!LBool::Undef.is_assigned());
    }
}
