//! The public SMT solver façade.

use isopredict_sat::{
    FamilyAttribution, HeartbeatHook, Lit, PreprocessSummary, SolveOutcome, Solver as SatSolver,
    SolverPostmortem, Var,
};

use crate::fd::FdVar;
use crate::order::{topological_positions, OrderNode, OrderTheory};
use crate::stats::EncodingStats;
use crate::term::{Term, TermId, TermPool};

/// Result of an [`SmtSolver::check`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// A model exists; query it with [`SmtSolver::model_bool`],
    /// [`SmtSolver::model_fd`] and [`SmtSolver::model_order_positions`].
    Sat,
    /// The asserted formulas are unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted (see [`SmtSolver::set_conflict_budget`]).
    Unknown,
}

/// An incremental SMT solver over boolean, finite-domain and strict-order
/// atoms.
///
/// See the [crate-level documentation](crate) for an overview and example.
pub struct SmtSolver {
    pub(crate) pool: TermPool,
    pub(crate) sat: SatSolver,
    pub(crate) theory: OrderTheory,
    /// `lit_of[term.index()]` is the SAT literal of `term`, once it has one.
    lit_of: Vec<Option<Lit>>,
    /// The polarities each term has been checked with (see
    /// `check_order_polarity`), two bits per term.
    pub(crate) polarity_walked: Vec<u8>,
    /// The domain size of each finite-domain variable (index = id).
    fd_domain_sizes: Vec<usize>,
    bool_var_count: u32,
    true_lit: Option<Lit>,
}

impl Default for SmtSolver {
    fn default() -> Self {
        SmtSolver::new()
    }
}

impl std::fmt::Debug for SmtSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtSolver")
            .field("terms", &self.pool.len())
            .field("fd_vars", &self.fd_domain_sizes.len())
            .field("order_nodes", &self.theory.num_nodes())
            .finish()
    }
}

impl SmtSolver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Self {
        SmtSolver {
            pool: TermPool::new(),
            sat: SatSolver::new(),
            theory: OrderTheory::new(),
            lit_of: Vec::new(),
            polarity_walked: Vec::new(),
            fd_domain_sizes: Vec::new(),
            bool_var_count: 0,
            true_lit: None,
        }
    }

    /// Limits the number of conflicts each [`SmtSolver::check`] call may
    /// spend; exceeding it yields [`SmtResult::Unknown`]. `None` removes the
    /// limit.
    pub fn set_conflict_budget(&mut self, max_conflicts: Option<u64>) {
        self.sat.config_mut().max_conflicts = max_conflicts;
    }

    // ------------------------------------------------------------------
    // Flight recorder passthroughs (see `isopredict_sat::FamilyAttribution`)
    // ------------------------------------------------------------------

    /// Interns a clause-family tag on the underlying SAT core (see
    /// [`SmtSolver::set_clause_family`]).
    pub fn intern_clause_family(&mut self, name: &str) -> u16 {
        self.sat.intern_family(name)
    }

    /// Tags every clause subsequently emitted into the SAT core — including
    /// Tseitin auxiliary clauses and finite-domain cardinality clauses —
    /// with `family`, until changed again. The solver attributes conflicts,
    /// propagations, and learned-clause ancestry per family.
    pub fn set_clause_family(&mut self, family: u16) {
        self.sat.set_emit_family(family);
    }

    /// The interned clause-family names (index = family id).
    #[must_use]
    pub fn clause_families(&self) -> &[String] {
        self.sat.families()
    }

    /// Per-family attribution of SAT-core work accumulated so far.
    #[must_use]
    pub fn attribution(&self) -> &FamilyAttribution {
        self.sat.attribution()
    }

    /// Installs (or clears) the SAT-core heartbeat callback.
    pub fn set_heartbeat_hook(&mut self, hook: Option<HeartbeatHook>) {
        self.sat.set_heartbeat_hook(hook);
    }

    /// Captures a post-mortem of the most recent [`SmtSolver::check`] call
    /// (most useful after [`SmtResult::Unknown`]).
    #[must_use]
    pub fn solver_postmortem(&self) -> SolverPostmortem {
        self.sat.postmortem()
    }

    /// The SAT literal of `term`, if it has one yet.
    pub(crate) fn lit(&self, term: TermId) -> Option<Lit> {
        self.lit_of.get(term.index()).copied().flatten()
    }

    /// Records `lit` as the SAT literal of `term`.
    pub(crate) fn set_lit(&mut self, term: TermId, lit: Lit) {
        if self.lit_of.len() <= term.index() {
            self.lit_of.resize(term.index() + 1, None);
        }
        self.lit_of[term.index()] = Some(lit);
    }

    /// The literal that is constrained to be true (lazily created).
    pub(crate) fn true_lit(&mut self) -> Lit {
        if let Some(lit) = self.true_lit {
            return lit;
        }
        let lit = Lit::positive(self.sat.new_var());
        self.sat.add_clause([lit]);
        self.true_lit = Some(lit);
        lit
    }

    // ------------------------------------------------------------------
    // Term constructors
    // ------------------------------------------------------------------

    /// The constant true term.
    pub fn true_term(&mut self) -> TermId {
        self.pool.true_id()
    }

    /// The constant false term.
    pub fn false_term(&mut self) -> TermId {
        self.pool.false_id()
    }

    /// Creates a fresh boolean atom.
    pub fn bool_var(&mut self) -> TermId {
        let id = self.bool_var_count;
        self.bool_var_count += 1;
        let term = self.pool.intern(Term::BoolVar(id));
        let lit = Lit::positive(self.sat.new_var());
        self.set_lit(term, lit);
        term
    }

    /// Creates a finite-domain variable with `domain_size` values
    /// (`0..domain_size`), constrained to take exactly one of them.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size` is zero.
    pub fn fd_var(&mut self, domain_size: usize) -> FdVar {
        assert!(
            domain_size > 0,
            "finite-domain variable needs a non-empty domain"
        );
        let var = FdVar {
            id: self.fd_domain_sizes.len() as u32,
        };
        self.fd_domain_sizes.push(domain_size);

        // Create the indicator atoms eagerly so the exactly-one constraint can
        // be stated over all of them.
        let indicators: Vec<Lit> = (0..domain_size)
            .map(|value| {
                let term = self.pool.intern(Term::FdEq(var, value as u32));
                let lit = Lit::positive(self.sat.new_var());
                self.set_lit(term, lit);
                lit
            })
            .collect();

        // At least one value.
        self.sat.add_clause(indicators.iter().copied());
        // At most one value: pairwise for small domains, sequential (ladder)
        // encoding for larger ones to keep the clause count linear.
        if domain_size <= 6 {
            for i in 0..domain_size {
                for j in (i + 1)..domain_size {
                    self.sat
                        .add_clause([indicators[i].negate(), indicators[j].negate()]);
                }
            }
        } else {
            let ladders: Vec<Lit> = (0..domain_size - 1)
                .map(|_| Lit::positive(self.sat.new_var()))
                .collect();
            for i in 0..domain_size - 1 {
                // x_i ⇒ s_i
                self.sat.add_clause([indicators[i].negate(), ladders[i]]);
                if i > 0 {
                    // s_{i-1} ⇒ s_i
                    self.sat.add_clause([ladders[i - 1].negate(), ladders[i]]);
                    // x_i ⇒ ¬s_{i-1}
                    self.sat
                        .add_clause([indicators[i].negate(), ladders[i - 1].negate()]);
                }
            }
            // x_{d-1} ⇒ ¬s_{d-2}
            self.sat.add_clause([
                indicators[domain_size - 1].negate(),
                ladders[domain_size - 2].negate(),
            ]);
        }

        var
    }

    /// The atom `var == value` (by domain index).
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the variable's domain.
    pub fn fd_eq(&mut self, var: FdVar, value: usize) -> TermId {
        let domain_size = self.fd_domain_sizes[var.id as usize];
        assert!(
            value < domain_size,
            "value {value} outside domain of size {domain_size} for finite-domain variable {}",
            var.id
        );
        self.pool.intern(Term::FdEq(var, value as u32))
    }

    /// Creates a fresh strict-order node (an integer-valued symbol that only
    /// participates in `<` comparisons).
    pub fn order_node(&mut self) -> OrderNode {
        self.theory.new_node()
    }

    /// The atom `left < right` in the strict-order theory.
    pub fn less(&mut self, left: OrderNode, right: OrderNode) -> TermId {
        let term = self.pool.intern(Term::Less(left, right));
        if self.lit(term).is_none() {
            let var = self.sat.new_var();
            // Theory atoms carry semantics the clause-level preprocessor
            // cannot see (two distinct atoms are never interchangeable even
            // if propositionally equivalent), so they must never be
            // eliminated or substituted away.
            self.sat.freeze_var(var);
            self.set_lit(term, Lit::positive(var));
            self.theory.register_atom(var, left, right);
        }
        term
    }

    /// N-ary conjunction. An empty conjunction is the constant true.
    pub fn and(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        let mut children: Vec<TermId> = Vec::new();
        for term in terms {
            if term == self.pool.false_id() {
                return self.pool.false_id();
            }
            if term != self.pool.true_id() {
                children.push(term);
            }
        }
        children.sort_unstable();
        children.dedup();
        match children.len() {
            0 => self.pool.true_id(),
            1 => children[0],
            _ => self.pool.intern(Term::And(children)),
        }
    }

    /// N-ary disjunction. An empty disjunction is the constant false.
    pub fn or(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        let mut children: Vec<TermId> = Vec::new();
        for term in terms {
            if term == self.pool.true_id() {
                return self.pool.true_id();
            }
            if term != self.pool.false_id() {
                children.push(term);
            }
        }
        children.sort_unstable();
        children.dedup();
        match children.len() {
            0 => self.pool.false_id(),
            1 => children[0],
            _ => self.pool.intern(Term::Or(children)),
        }
    }

    /// Negation.
    pub fn not(&mut self, term: TermId) -> TermId {
        if term == self.pool.true_id() {
            return self.pool.false_id();
        }
        if term == self.pool.false_id() {
            return self.pool.true_id();
        }
        if let Term::Not(inner) = self.pool.get(term) {
            return *inner;
        }
        self.pool.intern(Term::Not(term))
    }

    /// Implication `antecedent ⇒ consequent`.
    pub fn implies(&mut self, antecedent: TermId, consequent: TermId) -> TermId {
        let not_a = self.not(antecedent);
        self.or([not_a, consequent])
    }

    /// Bi-implication `left ⇔ right`.
    pub fn iff(&mut self, left: TermId, right: TermId) -> TermId {
        let forward = self.implies(left, right);
        let backward = self.implies(right, left);
        self.and([forward, backward])
    }

    // ------------------------------------------------------------------
    // Assertions and solving
    // ------------------------------------------------------------------

    /// Asserts `term` to be true.
    ///
    /// # Panics
    ///
    /// Panics if an order atom occurs with negative polarity inside `term`
    /// (see the crate-level documentation).
    pub fn assert_term(&mut self, term: TermId) {
        self.check_order_polarity(term);
        self.assert_encoded(term);
    }

    /// Checks satisfiability of the asserted formulas.
    pub fn check(&mut self) -> SmtResult {
        match self.sat.solve_with_theory(&mut self.theory) {
            SolveOutcome::Sat => SmtResult::Sat,
            SolveOutcome::Unsat => SmtResult::Unsat,
            SolveOutcome::Unknown => SmtResult::Unknown,
        }
    }

    /// Runs SAT-core preprocessing over the formulas asserted so far. It
    /// runs at most once, before the first [`SmtSolver::check`] or the first
    /// after a [`SmtSolver::rewind`]; other calls return an empty summary,
    /// and later assertions join the simplified formula incrementally.
    /// Without a call the solver searches the formula as asserted.
    ///
    /// The predictor schedules it as probe → rewind → preprocess: a first
    /// `check` under a small conflict budget searches the formula as
    /// asserted, and only if that returns [`SmtResult::Unknown`] does the
    /// solver rewind, preprocess and search again under the full budget.
    pub fn preprocess(&mut self) -> PreprocessSummary {
        self.sat.preprocess()
    }

    /// Undoes every [`SmtSolver::check`] since the first one: the SAT core
    /// returns to the state its first search began from (see
    /// `isopredict_sat::Solver::rewind`) and the order theory drops every
    /// edge and restores its identity order, so that [`SmtSolver::preprocess`]
    /// may run and the next check searches exactly as a fresh solver's
    /// would. The work counters keep the rewound searches' work.
    ///
    /// # Panics
    ///
    /// Panics if no check ran since the solver was built or last rewound,
    /// if it was preprocessed before its first check, or if a formula was
    /// asserted after it.
    pub fn rewind(&mut self) {
        self.sat.rewind();
        self.theory.rewind();
    }

    /// Truth value of a term in the current model. Returns `None` if there is
    /// no model or the term never reached the SAT core (e.g. it was simplified
    /// away and not asserted).
    #[must_use]
    pub fn model_bool(&self, term: TermId) -> Option<bool> {
        let model = self.sat.model()?;
        let lit = self.lit(term)?;
        Some(model.lit_value(lit))
    }

    /// Value (domain index) of a finite-domain variable in the current model.
    #[must_use]
    pub fn model_fd(&self, var: FdVar) -> Option<usize> {
        let model = self.sat.model()?;
        let domain_size = *self.fd_domain_sizes.get(var.id as usize)?;
        for value in 0..domain_size {
            let term = self.pool.find(&Term::FdEq(var, value as u32));
            if let Some(lit) = term.and_then(|term| self.lit(term)) {
                if model.lit_value(lit) {
                    return Some(value);
                }
            }
        }
        None
    }

    /// Topological positions of the order nodes consistent with the `<` atoms
    /// that are true in the current model: `positions[node.id()]` is the
    /// node's index in one admissible total order. Returns `None` if there is
    /// no model.
    #[must_use]
    pub fn model_order_positions(&self) -> Option<Vec<usize>> {
        let model = self.sat.model()?;
        let mut edges = Vec::new();
        for (index, lit) in self.lit_of.iter().enumerate() {
            let Some(lit) = *lit else { continue };
            if let Term::Less(a, b) = self.pool.get(TermId(index as u32)) {
                if model.lit_value(lit) {
                    edges.push((a.id(), b.id()));
                }
            }
        }
        // Kahn's algorithm tie-breaks by edge insertion order; sort so the
        // positions depend on the set of true atoms alone.
        edges.sort_unstable();
        edges.dedup();
        topological_positions(self.theory.num_nodes(), &edges)
    }

    /// The size of the encoding asserted so far.
    #[must_use]
    pub fn stats(&self) -> EncodingStats {
        let sat_stats = self.sat.stats();
        EncodingStats {
            variables: sat_stats.variables,
            clauses: sat_stats.clauses,
            literals: sat_stats.literals,
            terms: self.pool.len() as u64,
        }
    }

    /// The SAT core the asserted formulas are encoded into.
    #[must_use]
    pub fn sat_core(&self) -> &SatSolver {
        &self.sat
    }

    /// The registered order atoms as `(SAT variable, left, right)`, by
    /// variable.
    pub fn order_atoms(&self) -> impl Iterator<Item = (Var, OrderNode, OrderNode)> + '_ {
        self.theory.atoms()
    }

    /// Every work counter of the SAT core and the order theory under its
    /// telemetry name: [`crate::SolverStats::work_counters`] followed by
    /// [`crate::TheoryStats::work_counters`]. The counters are cumulative over the
    /// solver's lifetime, so the list read after the last
    /// [`SmtSolver::check`] is the total work of every call.
    #[must_use]
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = self.sat.stats().work_counters();
        counters.extend(self.theory.stats().work_counters());
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplifications_apply_at_construction() {
        let mut smt = SmtSolver::new();
        let t = smt.true_term();
        let f = smt.false_term();
        let a = smt.bool_var();
        assert_eq!(smt.and([t, a]), a);
        assert_eq!(smt.and([f, a]), f);
        assert_eq!(smt.or([f, a]), a);
        assert_eq!(smt.or([t, a]), t);
        assert_eq!(smt.not(t), f);
        let na = smt.not(a);
        assert_eq!(smt.not(na), a);
        assert_eq!(smt.and(std::iter::empty()), t);
        assert_eq!(smt.or(std::iter::empty()), f);
    }

    #[test]
    fn incremental_blocking_enumerates_fd_models() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(3);
        let mut seen = Vec::new();
        loop {
            match smt.check() {
                SmtResult::Sat => {
                    let value = smt.model_fd(x).expect("model assigns x");
                    assert!(!seen.contains(&value), "value {value} repeated");
                    seen.push(value);
                    let eq = smt.fd_eq(x, value);
                    let block = smt.not(eq);
                    smt.assert_term(block);
                }
                SmtResult::Unsat => break,
                SmtResult::Unknown => panic!("no budget set"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn work_counters_accumulate_across_checks() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var(4);
        assert_eq!(smt.check(), SmtResult::Sat);
        let before = smt.work_counters();
        let value = smt.model_fd(x).expect("model assigns x");
        let eq = smt.fd_eq(x, value);
        let block = smt.not(eq);
        smt.assert_term(block);
        assert_eq!(smt.check(), SmtResult::Sat);
        let after = smt.work_counters();
        assert_eq!(
            after.len(),
            21,
            "18 SAT-core counters, then 3 theory counters"
        );
        // Cumulative: no counter goes down, and the second check did work.
        assert!(before.iter().zip(&after).all(|(b, a)| a.1 >= b.1));
        let work = |counters: &[(&str, u64)]| {
            counters
                .iter()
                .filter(|&&(name, _)| name == "solver.decisions" || name == "solver.propagations")
                .map(|&(_, value)| value)
                .sum::<u64>()
        };
        assert!(work(&after) > work(&before), "second check did work");
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // Not preprocessed: variable elimination would prove this instance
        // outright, and the check must spend conflicts in search.
        let mut smt = SmtSolver::new();
        smt.set_conflict_budget(Some(1));
        // Pigeonhole-style FD problem: 4 variables over 3 values, all distinct.
        let vars: Vec<FdVar> = (0..4).map(|_| smt.fd_var(3)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                for v in 0..3 {
                    let ei = smt.fd_eq(vars[i], v);
                    let ej = smt.fd_eq(vars[j], v);
                    let both = smt.and([ei, ej]);
                    let not_both = smt.not(both);
                    smt.assert_term(not_both);
                }
            }
        }
        assert_eq!(smt.check(), SmtResult::Unknown);
        // Raising the budget lets the solver finish and prove unsatisfiability.
        smt.set_conflict_budget(None);
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn model_bool_is_none_without_a_model() {
        let mut smt = SmtSolver::new();
        let a = smt.bool_var();
        assert_eq!(smt.model_bool(a), None);
        let na = smt.not(a);
        smt.assert_term(a);
        smt.assert_term(na);
        assert_eq!(smt.check(), SmtResult::Unsat);
        assert_eq!(smt.model_bool(a), None);
    }

    #[test]
    fn clause_families_tag_tseitin_clauses_and_theory_conflicts() {
        let mut smt = SmtSolver::new();
        let fam = smt.intern_clause_family("isolation:causal");
        smt.set_clause_family(fam);
        // An order cycle: the contradiction is only visible to the theory.
        let a = smt.order_node();
        let b = smt.order_node();
        let ab = smt.less(a, b);
        let ba = smt.less(b, a);
        let both = smt.and([ab, ba]);
        smt.assert_term(both);
        assert_eq!(smt.check(), SmtResult::Unsat);
        let conflicts = smt.sat.stats().conflicts;
        let attribution = smt.attribution();
        assert_eq!(attribution.total_conflicts(), conflicts);
        assert!(
            attribution.clauses_by_family[usize::from(fam)] > 0,
            "Tseitin clauses must inherit the active family tag"
        );
        assert!(
            attribution.conflicts_by_family[usize::from(isopredict_sat::FAMILY_THEORY)] > 0,
            "the cycle conflict must be charged to the theory family"
        );
        assert_eq!(smt.clause_families()[usize::from(fam)], "isolation:causal");
    }

    #[test]
    fn heartbeats_and_postmortem_surface_through_the_facade() {
        use std::sync::{Arc, Mutex};
        // The heartbeat interval is the SAT core's default of 10,000
        // conflicts, so the budget lets exactly one heartbeat through.
        let mut smt = SmtSolver::new();
        smt.set_conflict_budget(Some(10_000));
        let beats = Arc::new(Mutex::new(0u64));
        let sink = Arc::clone(&beats);
        smt.set_heartbeat_hook(Some(Box::new(move |_hb| {
            *sink.lock().expect("hook lock") += 1;
        })));
        // Pigeonhole: 9 variables over 8 values, all distinct — far beyond
        // the budget for a CDCL solver.
        let vars: Vec<FdVar> = (0..9).map(|_| smt.fd_var(8)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                for v in 0..8 {
                    let ei = smt.fd_eq(vars[i], v);
                    let ej = smt.fd_eq(vars[j], v);
                    let both = smt.and([ei, ej]);
                    let not_both = smt.not(both);
                    smt.assert_term(not_both);
                }
            }
        }
        assert_eq!(smt.check(), SmtResult::Unknown);
        assert_eq!(*beats.lock().expect("test lock"), 1);
        let postmortem = smt.solver_postmortem();
        assert_eq!(postmortem.budget, Some(10_000));
        assert_eq!(postmortem.conflicts_in_call, 10_000);
        assert_eq!(postmortem.heartbeats.len(), 1);
        assert_eq!(postmortem.heartbeats[0].conflicts, 10_000);
        assert_eq!(
            postmortem.attribution.total_conflicts(),
            postmortem.stats.conflicts
        );
    }

    #[test]
    fn debug_output_mentions_sizes() {
        let mut smt = SmtSolver::new();
        let _ = smt.bool_var();
        let _ = smt.fd_var(2);
        let _ = smt.order_node();
        let debug = format!("{smt:?}");
        assert!(debug.contains("fd_vars"));
        assert!(debug.contains("order_nodes"));
    }
}
