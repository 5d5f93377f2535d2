//! The public SMT solver façade.

use std::collections::HashMap;

use isopredict_sat::{
    FamilyAttribution, HeartbeatHook, Lit, PreprocessSummary, SolveOutcome, Solver as SatSolver,
    SolverConfig, SolverPostmortem, SolverStats,
};

use crate::fd::{FdVar, FdVarData};
use crate::order::{topological_positions, OrderNode, OrderTheory};
use crate::stats::{EncodingStats, TheoryStats};
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
    pub(crate) lit_of: HashMap<TermId, Lit>,
    fd_vars: Vec<FdVarData>,
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
            .field("fd_vars", &self.fd_vars.len())
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
            lit_of: HashMap::new(),
            fd_vars: Vec::new(),
            bool_var_count: 0,
            true_lit: None,
        }
    }

    /// Creates a solver with a specific SAT-core configuration (used by the
    /// ablation benchmarks).
    #[must_use]
    pub fn with_sat_config(config: SolverConfig) -> Self {
        let mut solver = SmtSolver::new();
        solver.sat = SatSolver::with_config(config);
        solver
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

    /// Emits a progress heartbeat every `every` conflicts (`0` disables).
    pub fn set_heartbeat_every(&mut self, every: u64) {
        self.sat.config_mut().heartbeat_every = every;
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

    /// Creates a fresh boolean atom. The name is kept for diagnostics only.
    pub fn bool_var(&mut self, name: impl Into<String>) -> TermId {
        let id = self.bool_var_count;
        self.bool_var_count += 1;
        let term = self.pool.intern(Term::BoolVar(id));
        self.pool.set_name(term, name.into());
        let lit = Lit::positive(self.sat.new_var());
        self.lit_of.insert(term, lit);
        term
    }

    /// Creates a finite-domain variable with `domain_size` values
    /// (`0..domain_size`), constrained to take exactly one of them.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size` is zero.
    pub fn fd_var(&mut self, name: impl Into<String>, domain_size: usize) -> FdVar {
        assert!(
            domain_size > 0,
            "finite-domain variable needs a non-empty domain"
        );
        let var = FdVar {
            id: self.fd_vars.len() as u32,
        };
        self.fd_vars.push(FdVarData {
            domain_size,
            name: name.into(),
        });

        // Create the indicator atoms eagerly so the exactly-one constraint can
        // be stated over all of them.
        let indicators: Vec<Lit> = (0..domain_size)
            .map(|value| {
                let term = self.pool.intern(Term::FdEq(var, value as u32));
                let lit = Lit::positive(self.sat.new_var());
                self.lit_of.insert(term, lit);
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
        let data = &self.fd_vars[var.id as usize];
        assert!(
            value < data.domain_size,
            "value {value} outside domain of size {} for finite-domain variable `{}`",
            data.domain_size,
            data.name
        );
        self.pool.intern(Term::FdEq(var, value as u32))
    }

    /// The domain size of a finite-domain variable.
    #[must_use]
    pub fn fd_domain_size(&self, var: FdVar) -> usize {
        self.fd_vars[var.id as usize].domain_size
    }

    /// Creates a fresh strict-order node (an integer-valued symbol that only
    /// participates in `<` comparisons).
    pub fn order_node(&mut self) -> OrderNode {
        self.theory.new_node()
    }

    /// The atom `left < right` in the strict-order theory.
    pub fn less(&mut self, left: OrderNode, right: OrderNode) -> TermId {
        let term = self.pool.intern(Term::Less(left, right));
        if !self.lit_of.contains_key(&term) {
            let var = self.sat.new_var();
            // Theory atoms carry semantics the clause-level preprocessor
            // cannot see (two distinct atoms are never interchangeable even
            // if propositionally equivalent), so they must never be
            // eliminated or substituted away.
            self.sat.freeze_var(var);
            self.lit_of.insert(term, Lit::positive(var));
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

    /// Human-readable name of a named atom, if any.
    #[must_use]
    pub fn term_name(&self, term: TermId) -> Option<&str> {
        self.pool.name(term)
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

    /// Enables or disables SAT-core preprocessing (enabled by default).
    pub fn set_preprocessing(&mut self, enabled: bool) {
        self.sat.config_mut().preprocess.enabled = enabled;
    }

    /// Runs SAT-core preprocessing immediately (it otherwise runs at the
    /// start of the first [`SmtSolver::check`]; later assertions join the
    /// simplified formula incrementally); exposed so callers can time it
    /// under a dedicated observability span. Idempotent until new assertions
    /// arrive.
    pub fn preprocess(&mut self) -> PreprocessSummary {
        self.sat.preprocess()
    }

    /// Truth value of a term in the current model. Returns `None` if there is
    /// no model or the term never reached the SAT core (e.g. it was simplified
    /// away and not asserted).
    #[must_use]
    pub fn model_bool(&self, term: TermId) -> Option<bool> {
        let model = self.sat.model()?;
        let lit = self.lit_of.get(&term)?;
        Some(model.lit_value(*lit))
    }

    /// Value (domain index) of a finite-domain variable in the current model.
    #[must_use]
    pub fn model_fd(&self, var: FdVar) -> Option<usize> {
        let model = self.sat.model()?;
        let data = self.fd_vars.get(var.id as usize)?;
        for value in 0..data.domain_size {
            let term = Term::FdEq(var, value as u32);
            if let Some(&id) = self.lookup_interned(&term) {
                if let Some(&lit) = self.lit_of.get(&id) {
                    if model.lit_value(lit) {
                        return Some(value);
                    }
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
        #[expect(
            clippy::iter_over_hash_type,
            reason = "the edges are sorted below, so the HashMap order cannot leak into the result"
        )]
        for (term, lit) in &self.lit_of {
            if let Term::Less(a, b) = self.pool.get(*term) {
                if model.lit_value(*lit) {
                    edges.push((a.id(), b.id()));
                }
            }
        }
        // Kahn's algorithm tie-breaks by edge insertion order; sort so the
        // positions are a deterministic function of the model.
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

    /// Cumulative counters of the underlying SAT core. The counters are
    /// never reset between [`SmtSolver::check`] calls, so per-call metrics
    /// are `let before = smt.solver_stats(); …; smt.solver_stats().diff(&before)`.
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        self.sat.stats().snapshot()
    }

    /// Cumulative work counters of the strict-order theory (see
    /// [`TheoryStats`]); diff two snapshots for per-call figures, as with
    /// [`SmtSolver::solver_stats`].
    #[must_use]
    pub fn theory_stats(&self) -> TheoryStats {
        self.theory.stats()
    }

    fn lookup_interned(&self, term: &Term) -> Option<&TermId> {
        // TermPool interns by value; re-intern without mutation by looking up
        // through the public map on lit_of keys is not possible, so search the
        // pool's index directly.
        self.pool.index_of(term)
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
        let a = smt.bool_var("a");
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
        let x = smt.fd_var("x", 3);
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
    fn solver_stats_accumulate_across_checks_and_diff_isolates_a_call() {
        let mut smt = SmtSolver::new();
        let x = smt.fd_var("x", 4);
        assert_eq!(smt.check(), SmtResult::Sat);
        let before = smt.solver_stats();
        let value = smt.model_fd(x).expect("model assigns x");
        let eq = smt.fd_eq(x, value);
        let block = smt.not(eq);
        smt.assert_term(block);
        assert_eq!(smt.check(), SmtResult::Sat);
        let after = smt.solver_stats();
        let delta = after.diff(&before);
        assert!(after.propagations >= before.propagations, "cumulative");
        assert!(
            delta.propagations > 0 || delta.decisions > 0 || delta.clauses > 0,
            "second check did work: {delta}"
        );
        // No new problem variables were introduced between the snapshots
        // beyond the blocking clause's terms.
        assert!(delta.variables <= after.variables);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        let mut smt = SmtSolver::new();
        // Preprocessing (variable elimination) proves this instance outright;
        // disable it so the check actually spends conflicts in search.
        smt.set_preprocessing(false);
        smt.set_conflict_budget(Some(1));
        // Pigeonhole-style FD problem: 4 variables over 3 values, all distinct.
        let vars: Vec<FdVar> = (0..4).map(|i| smt.fd_var(format!("p{i}"), 3)).collect();
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
        let a = smt.bool_var("a");
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
        let conflicts = smt.solver_stats().conflicts;
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
        let mut smt = SmtSolver::new();
        smt.set_preprocessing(false);
        smt.set_conflict_budget(Some(10));
        smt.set_heartbeat_every(1);
        let beats = Arc::new(Mutex::new(0u64));
        let sink = Arc::clone(&beats);
        smt.set_heartbeat_hook(Some(Box::new(move |_hb| {
            *sink.lock().expect("hook lock") += 1;
        })));
        // Pigeonhole-style FD problem: 5 variables over 4 values, all distinct.
        let vars: Vec<FdVar> = (0..5).map(|i| smt.fd_var(format!("p{i}"), 4)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                for v in 0..4 {
                    let ei = smt.fd_eq(vars[i], v);
                    let ej = smt.fd_eq(vars[j], v);
                    let both = smt.and([ei, ej]);
                    let not_both = smt.not(both);
                    smt.assert_term(not_both);
                }
            }
        }
        assert_eq!(smt.check(), SmtResult::Unknown);
        assert!(*beats.lock().expect("test lock") > 0, "hook never fired");
        let postmortem = smt.solver_postmortem();
        assert_eq!(postmortem.budget, Some(10));
        assert!(postmortem.conflicts_in_call >= 10);
        assert!(!postmortem.heartbeats.is_empty());
        assert_eq!(
            postmortem.attribution.total_conflicts(),
            postmortem.stats.conflicts
        );
    }

    #[test]
    fn debug_output_mentions_sizes() {
        let mut smt = SmtSolver::new();
        let _ = smt.bool_var("a");
        let _ = smt.fd_var("x", 2);
        let _ = smt.order_node();
        let debug = format!("{smt:?}");
        assert!(debug.contains("fd_vars"));
        assert!(debug.contains("order_nodes"));
    }
}
