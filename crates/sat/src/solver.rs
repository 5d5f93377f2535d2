//! The CDCL solver core.

use std::collections::VecDeque;

use crate::assignment::{Assignment, LBool};
use crate::clause::{Clause, ClauseDb, ClauseRef};
use crate::flight::{
    family_bit, FamilyAttribution, Heartbeat, SolverPostmortem, FAMILY_LEARNED, FAMILY_THEORY,
    HEARTBEAT_RING_CAP,
};
use crate::heap::ActivityHeap;
use crate::literal::{Lit, Var};
use crate::model::Model;
use crate::preprocess::{ElimEntry, PreprocessConfig, RestoredClause, VarState};
use crate::stats::SolverStats;
use crate::theory::{NullTheory, Theory, TheoryResult};

/// A callback invoked on every progress heartbeat (see
/// [`Solver::set_heartbeat_hook`]).
pub type HeartbeatHook = Box<dyn FnMut(&Heartbeat) + Send>;

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities after each conflict.
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities after each conflict.
    pub clause_decay: f64,
    /// Conflicts per Luby restart unit.
    pub restart_interval: u64,
    /// Initial learnt-clause limit before database reduction triggers.
    pub learnt_limit: usize,
    /// Optional conflict budget. When exceeded the solver returns
    /// [`SolveOutcome::Unknown`].
    pub max_conflicts: Option<u64>,
    /// Enable VSIDS decision ordering (disable to fall back to lowest-index
    /// decisions; exposed for the ablation benchmarks).
    pub use_vsids: bool,
    /// Enable learnt-clause database reduction (exposed for the ablation
    /// benchmarks).
    pub reduce_db: bool,
    /// Static preprocessing pipeline configuration (see
    /// [`crate::PreprocessConfig`]).
    pub preprocess: PreprocessConfig,
    /// Emit a progress [`Heartbeat`] every this many conflicts (`0` disables
    /// heartbeats entirely).
    pub heartbeat_every: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_interval: 100,
            learnt_limit: 4000,
            max_conflicts: None,
            use_vsids: true,
            reduce_db: true,
            preprocess: PreprocessConfig::default(),
            heartbeat_every: 10_000,
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; retrieve it with [`Solver::model`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision could be reached.
    Unknown,
}

impl SolveOutcome {
    /// Returns `true` for [`SolveOutcome::Sat`].
    #[must_use]
    pub fn is_sat(self) -> bool {
        matches!(self, SolveOutcome::Sat)
    }

    /// Returns `true` for [`SolveOutcome::Unsat`].
    #[must_use]
    pub fn is_unsat(self) -> bool {
        matches!(self, SolveOutcome::Unsat)
    }
}

/// A watched-literal entry: `cref` is watched on the literal whose watch list
/// contains this entry; `blocker` is another literal of the clause that, if
/// true, lets propagation skip the clause without touching it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// A CDCL SAT solver.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Solver {
    pub(crate) db: ClauseDb,
    pub(crate) assignment: Assignment,
    /// `watches[p.code()]` holds the clauses in which `¬p` is watched, i.e.
    /// the clauses that must be inspected when `p` becomes true.
    pub(crate) watches: Vec<Vec<Watcher>>,
    pub(crate) reasons: Vec<Option<ClauseRef>>,
    pub(crate) heap: ActivityHeap,
    pub(crate) phases: Vec<bool>,
    pub(crate) var_inc: f64,
    pub(crate) cla_inc: f64,
    pub(crate) qhead: usize,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    pub(crate) config: SolverConfig,
    pub(crate) seen: Vec<bool>,
    pub(crate) model: Option<Model>,
    /// How far along the trail the theory has been notified.
    pub(crate) theory_head: usize,
    /// Variables protected from elimination/substitution (theory atoms).
    pub(crate) frozen: Vec<bool>,
    /// Preprocessing lifecycle state per variable.
    pub(crate) var_state: Vec<VarState>,
    /// Image of the positive literal for substituted variables.
    pub(crate) subst: Vec<Lit>,
    /// Model-reconstruction stack (replayed newest-first).
    pub(crate) elim_stack: Vec<ElimEntry>,
    /// Stored clauses of eliminated variables, for incremental restoration.
    pub(crate) restore_clauses: Vec<Vec<RestoredClause>>,
    /// Whether clauses arrived since the last preprocessing run.
    pub(crate) pp_dirty: bool,
    /// Whether a solve call has started; the implicit preprocessing pass
    /// runs only before the first one.
    pub(crate) solved_once: bool,
    /// Per-family attribution of solver work (see [`crate::flight`]).
    pub(crate) attribution: FamilyAttribution,
    /// Family tag applied to subsequently added problem clauses.
    pub(crate) emit_family: u16,
    /// Scratch: OR of provenance masks over the clauses resolved on during
    /// the current conflict analysis.
    pub(crate) analysis_mask: u32,
    /// Heartbeat callback, if installed.
    pub(crate) heartbeat_hook: Option<HeartbeatHook>,
    /// Recent heartbeats of the current solve call (bounded ring).
    pub(crate) heartbeat_ring: VecDeque<Heartbeat>,
    /// Heartbeats emitted so far in the current solve call.
    pub(crate) hb_seq: u64,
    /// Conflict count at the last heartbeat (interval trigger).
    pub(crate) hb_last_conflicts: u64,
    /// Conflict count when the current solve call began.
    pub(crate) solve_start_conflicts: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("variables", &self.num_vars())
            .field("clauses", &self.stats.clauses)
            .field("ok", &self.ok)
            .finish()
    }
}

impl Solver {
    /// Creates an empty solver with default configuration.
    #[must_use]
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            db: ClauseDb::new(),
            assignment: Assignment::new(),
            watches: Vec::new(),
            reasons: Vec::new(),
            heap: ActivityHeap::new(),
            phases: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            qhead: 0,
            ok: true,
            stats: SolverStats::default(),
            config,
            seen: Vec::new(),
            model: None,
            theory_head: 0,
            frozen: Vec::new(),
            var_state: Vec::new(),
            subst: Vec::new(),
            elim_stack: Vec::new(),
            restore_clauses: Vec::new(),
            pp_dirty: false,
            solved_once: false,
            attribution: FamilyAttribution::with_reserved(),
            emit_family: crate::flight::FAMILY_DEFAULT,
            analysis_mask: 0,
            heartbeat_hook: None,
            heartbeat_ring: VecDeque::new(),
            hb_seq: 0,
            hb_last_conflicts: 0,
            solve_start_conflicts: 0,
        }
    }

    /// Number of variables created so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assignment.num_vars()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars() as u32);
        self.assignment.grow_to(self.num_vars() + 1);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.reasons.push(None);
        self.phases.push(false);
        self.seen.push(false);
        self.frozen.push(false);
        self.var_state.push(VarState::Active);
        self.subst.push(Lit::positive(var));
        self.restore_clauses.push(Vec::new());
        self.heap.grow_to(self.num_vars());
        self.stats.variables += 1;
        var
    }

    /// Adds a clause (a disjunction of literals) to the problem.
    ///
    /// Returns `false` if the clause set became trivially unsatisfiable at the
    /// top level (e.g. the clause is empty after simplification, or it
    /// contradicts the current top-level assignment).
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        if !self.ok {
            return false;
        }
        // Clauses may only be added at the top level; cancel any in-progress
        // search state (this supports incremental use between solve calls).
        if self.assignment.decision_level() > 0 {
            self.cancel_until(0);
        }
        self.model = None;
        self.add_clause_internal(lits.into_iter().collect(), true)
    }

    /// Shared clause-ingestion path. Maps literals through the preprocessing
    /// substitution table, restores eliminated variables the clause mentions,
    /// and simplifies against the top-level assignment. `count_stats` is
    /// `false` for internal re-additions (restored clauses), which must not
    /// inflate the user-facing problem-size counters.
    pub(crate) fn add_clause_internal(&mut self, lits: Vec<Lit>, count_stats: bool) -> bool {
        let family = self.emit_family;
        self.add_clause_with_provenance(lits, count_stats, family, family_bit(family))
    }

    /// Clause ingestion with explicit provenance, used by
    /// [`Solver::restore_var`] to preserve the original family of restored
    /// clauses.
    pub(crate) fn add_clause_with_provenance(
        &mut self,
        lits: Vec<Lit>,
        count_stats: bool,
        family: u16,
        mask: u32,
    ) -> bool {
        self.pp_dirty = true;
        let mut lits: Vec<Lit> = lits
            .into_iter()
            .map(|lit| self.resolve_subst(lit))
            .collect();
        for lit in &lits {
            let var = lit.var();
            if self.var_state[var.index()] == VarState::Eliminated {
                self.restore_var(var);
            }
        }
        lits.sort_unstable();
        lits.dedup();

        // Remove literals that are already false at the top level; detect
        // tautologies and clauses that are already satisfied.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &lit) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == lit.negate() {
                return true; // tautology: p ∨ ¬p
            }
            match self.assignment.value_lit(lit) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => continue,   // drop top-level-false literal
                LBool::Undef => simplified.push(lit),
            }
        }

        if count_stats {
            self.stats.clauses += 1;
            self.stats.literals += simplified.len() as u64;
            self.attribution.clauses_by_family[usize::from(family)] += 1;
        }

        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                true
            }
            _ => {
                let mut clause = Clause::new(simplified, false);
                clause.family = family;
                clause.mask = mask;
                let cref = self.db.push(clause);
                self.attach_clause(cref);
                true
            }
        }
    }

    /// Adds a learnt clause; the first literal must be the asserting literal.
    /// The clause inherits the provenance mask accumulated by the conflict
    /// analysis that produced it.
    pub(crate) fn add_learnt_clause(&mut self, lits: Vec<Lit>, lbd: u32) -> Option<ClauseRef> {
        match lits.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => None,
            _ => {
                let mut clause = Clause::new(lits, true);
                clause.lbd = lbd;
                clause.activity = self.cla_inc;
                clause.mask = self.analysis_mask | family_bit(FAMILY_LEARNED);
                let cref = self.db.push(clause);
                self.attach_clause(cref);
                Some(cref)
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, cref: ClauseRef) {
        let (w0, w1) = {
            let clause = self.db.get(cref);
            debug_assert!(clause.lits.len() >= 2);
            (clause.lits[0], clause.lits[1])
        };
        self.watches[w0.negate().code()].push(Watcher { cref, blocker: w1 });
        self.watches[w1.negate().code()].push(Watcher { cref, blocker: w0 });
    }

    pub(crate) fn detach_clause(&mut self, cref: ClauseRef) {
        let (w0, w1) = {
            let clause = self.db.get(cref);
            (clause.lits[0], clause.lits[1])
        };
        self.watches[w0.negate().code()].retain(|w| w.cref != cref);
        self.watches[w1.negate().code()].retain(|w| w.cref != cref);
    }

    /// Assigns `lit` true with an optional reason clause.
    pub(crate) fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.assignment.value_lit(lit), LBool::Undef);
        self.reasons[lit.var().index()] = reason;
        self.assignment.assign(lit);
    }

    /// Current value of a literal under the partial assignment.
    pub(crate) fn value(&self, lit: Lit) -> LBool {
        self.assignment.value_lit(lit)
    }

    /// Backtracks to `level`, restoring phases and the decision heap.
    pub(crate) fn cancel_until(&mut self, level: u32) {
        if self.assignment.decision_level() <= level {
            return;
        }
        self.assignment.backtrack_to(level, |lit| {
            let var = lit.var();
            self.phases[var.index()] = lit.is_positive();
            self.reasons[var.index()] = None;
            self.heap.insert(var);
        });
        self.qhead = self.assignment.trail.len();
        self.theory_head = self.theory_head.min(self.assignment.trail.len());
    }

    pub(crate) fn bump_var(&mut self, var: Var) {
        let new = self.heap.bump(var, self.var_inc);
        if new > 1e100 {
            self.heap.rescale(1e-100);
            self.var_inc *= 1e-100;
        }
    }

    pub(crate) fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    pub(crate) fn bump_clause(&mut self, cref: ClauseRef) {
        let inc = self.cla_inc;
        let clause = self.db.get_mut(cref);
        clause.activity += inc;
        if clause.activity > 1e20 {
            for c in &mut self.db.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Picks the next decision literal, or `None` if all variables are assigned.
    pub(crate) fn pick_branch_lit(&mut self) -> Option<Lit> {
        if self.config.use_vsids {
            while let Some(var) = self.heap.pop_max() {
                if self.assignment.value_var(var) == LBool::Undef
                    && self.var_state[var.index()] == VarState::Active
                {
                    return Some(Lit::new(var, !self.phases[var.index()]));
                }
            }
            None
        } else {
            (0..self.num_vars())
                .map(|i| Var::from_index(i as u32))
                .find(|&v| {
                    self.assignment.value_var(v) == LBool::Undef
                        && self.var_state[v.index()] == VarState::Active
                })
                .map(|v| Lit::new(v, !self.phases[v.index()]))
        }
    }

    /// Solves the current clause set without a theory.
    pub fn solve(&mut self) -> SolveOutcome {
        let mut theory = NullTheory;
        self.solve_with_theory(&mut theory)
    }

    /// Solves the current clause set modulo the given theory.
    pub fn solve_with_theory<T: Theory>(&mut self, theory: &mut T) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.model = None;
        self.cancel_until(0);
        theory.backtrack_to(0);

        // Reset the per-call flight-recorder state: heartbeat seq/ring are
        // scoped to one solve call so post-mortems describe the call that
        // actually exhausted the budget.
        self.solve_start_conflicts = self.stats.conflicts;
        self.hb_last_conflicts = self.stats.conflicts;
        self.hb_seq = 0;
        self.heartbeat_ring.clear();

        // The implicit pass runs once; later clauses join the simplified
        // formula through `add_clause_with_provenance`.
        if !std::mem::replace(&mut self.solved_once, true) && self.pp_dirty {
            self.preprocess();
            if !self.ok {
                return SolveOutcome::Unsat;
            }
        }

        let start_conflicts = self.stats.conflicts;
        let mut restart_count: u64 = 0;
        let mut learnt_limit = self.config.learnt_limit;

        loop {
            let budget = crate::reduce::luby(restart_count) * self.config.restart_interval;
            match self.search(theory, budget, &mut learnt_limit, start_conflicts) {
                SearchResult::Sat => {
                    let mut values: Vec<bool> = (0..self.num_vars())
                        .map(|i| {
                            self.assignment.value_var(Var::from_index(i as u32)) == LBool::True
                        })
                        .collect();
                    // Extend the assignment over eliminated/substituted
                    // variables before anyone (including the theory's final
                    // check) reads the model.
                    self.reconstruct_model(&mut values);
                    let model = Model::from_values(values);
                    // Give the theory a last chance to veto the assignment.
                    match theory.final_check(&model) {
                        TheoryResult::Consistent => {
                            self.model = Some(model);
                            self.cancel_until(0);
                            theory.backtrack_to(0);
                            return SolveOutcome::Sat;
                        }
                        TheoryResult::Conflict(clause) => {
                            self.stats.theory_conflicts += 1;
                            if !self.handle_theory_conflict(clause, theory) {
                                return SolveOutcome::Unsat;
                            }
                        }
                    }
                }
                SearchResult::Unsat => {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                SearchResult::Restart => {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    theory.backtrack_to(0);
                    self.theory_head = self.theory_head.min(self.assignment.trail.len());
                }
                SearchResult::Budget => {
                    self.cancel_until(0);
                    theory.backtrack_to(0);
                    return SolveOutcome::Unknown;
                }
            }
        }
    }

    /// Retrieves the model found by the last successful [`Solver::solve`] call.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Mutable access to the configuration, e.g. to adjust the conflict
    /// budget between incremental [`Solver::solve`] calls.
    pub fn config_mut(&mut self) -> &mut SolverConfig {
        &mut self.config
    }

    /// Returns `false` if the clause set is already known to be unsatisfiable.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ------------------------------------------------------------------
    // Flight recorder (see crate::flight)
    // ------------------------------------------------------------------

    /// Interns a clause family name and returns its id (existing names keep
    /// their id). Ids `0..=2` are reserved for `default`, `learned`, and
    /// `theory`.
    pub fn intern_family(&mut self, name: &str) -> u16 {
        if let Some(id) = self.attribution.families.iter().position(|f| f == name) {
            return id as u16;
        }
        self.attribution.push_family(name)
    }

    /// Tags every subsequently added problem clause with `family` (an id
    /// from [`Solver::intern_family`]) until changed again.
    ///
    /// # Panics
    ///
    /// Panics if `family` was never interned.
    pub fn set_emit_family(&mut self, family: u16) {
        assert!(
            usize::from(family) < self.attribution.families.len(),
            "family id {family} was never interned"
        );
        self.emit_family = family;
    }

    /// The family currently applied to added clauses.
    #[must_use]
    pub fn emit_family(&self) -> u16 {
        self.emit_family
    }

    /// The interned family names; the index of a name is its id.
    #[must_use]
    pub fn families(&self) -> &[String] {
        &self.attribution.families
    }

    /// The per-family attribution of solver work accumulated so far.
    #[must_use]
    pub fn attribution(&self) -> &FamilyAttribution {
        &self.attribution
    }

    /// Installs (or clears) the heartbeat callback. The hook fires inside
    /// the search loop every [`SolverConfig::heartbeat_every`] conflicts;
    /// keep it cheap.
    pub fn set_heartbeat_hook(&mut self, hook: Option<HeartbeatHook>) {
        self.heartbeat_hook = hook;
    }

    /// The heartbeats retained from the most recent solve call, oldest
    /// first (bounded ring).
    #[must_use]
    pub fn heartbeats(&self) -> Vec<Heartbeat> {
        self.heartbeat_ring.iter().cloned().collect()
    }

    /// Captures a post-mortem of the most recent solve call: final
    /// attribution plus the retained heartbeats. Most useful after
    /// [`SolveOutcome::Unknown`], but callable any time.
    #[must_use]
    pub fn postmortem(&self) -> SolverPostmortem {
        SolverPostmortem {
            budget: self.config.max_conflicts,
            conflicts_in_call: self
                .stats
                .conflicts
                .saturating_sub(self.solve_start_conflicts),
            stats: self.stats,
            attribution: self.attribution.clone(),
            heartbeats: self.heartbeats(),
        }
    }

    /// Credits every family whose provenance bit is set in the accumulated
    /// `analysis_mask` with an involved conflict (and, when a clause was
    /// learnt from it, with a learned ancestor).
    fn record_conflict_involvement(&mut self, learned: bool) {
        let mask = self.analysis_mask;
        for id in 0..self.attribution.families.len() {
            if mask & family_bit(id as u16) != 0 {
                self.attribution.conflicts_involving[id] += 1;
                if learned {
                    self.attribution.learned_ancestry[id] += 1;
                }
            }
        }
    }

    /// Emits a heartbeat if at least `heartbeat_every` conflicts have
    /// accumulated since the last one. Called once per conflict, after the
    /// learnt clause is attached and the solver has backtracked.
    fn maybe_heartbeat(&mut self) {
        let every = self.config.heartbeat_every;
        if every == 0 || self.stats.conflicts < self.hb_last_conflicts + every {
            return;
        }
        self.hb_last_conflicts = self.stats.conflicts;
        self.hb_seq += 1;
        // Level-0 assignments always form a prefix of the trail, bounded by
        // the first decision marker (or the whole trail if none).
        let vars_assigned_at_root = self
            .assignment
            .trail_lim
            .first()
            .copied()
            .unwrap_or(self.assignment.trail.len()) as u64;
        let heartbeat = Heartbeat {
            seq: self.hb_seq,
            conflicts: self.stats.conflicts,
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
            restarts: self.stats.restarts,
            trail_depth: self.assignment.trail.len() as u64,
            learnt_clauses: self.db.num_learnt as u64,
            vars_assigned_at_root,
            total_vars: self.num_vars() as u64,
            conflicts_by_family: self.attribution.conflicts_by_family.clone(),
        };
        if self.heartbeat_ring.len() == HEARTBEAT_RING_CAP {
            self.heartbeat_ring.pop_front();
        }
        self.heartbeat_ring.push_back(heartbeat.clone());
        if let Some(hook) = self.heartbeat_hook.as_mut() {
            hook(&heartbeat);
        }
    }

    /// Handles a conflict clause reported by the theory. Returns `false` if
    /// the problem became unsatisfiable.
    pub(crate) fn handle_theory_conflict<T: Theory>(
        &mut self,
        clause: Vec<Lit>,
        theory: &mut T,
    ) -> bool {
        self.stats.conflicts += 1;
        self.attribution.conflicts_by_family[usize::from(FAMILY_THEORY)] += 1;
        self.analysis_mask = family_bit(FAMILY_THEORY);
        debug_assert!(
            clause
                .iter()
                .all(|&l| self.assignment.value_lit(l) == LBool::False),
            "theory conflict clause must be falsified"
        );
        // A lazily-discovered theory conflict may consist entirely of literals
        // assigned below the current decision level; realign first.
        let level = self.backtrack_to_conflict_level(&clause, theory);
        if level == 0 {
            self.record_conflict_involvement(false);
            self.ok = false;
            return false;
        }
        let (learnt, backtrack_level, lbd) = self.analyze_lits(&clause);
        self.record_conflict_involvement(true);
        self.cancel_until(backtrack_level);
        theory.backtrack_to(backtrack_level);
        let asserting = learnt[0];
        let cref = self.add_learnt_clause(learnt, lbd);
        if !self.ok {
            return false;
        }
        if self.assignment.value_lit(asserting) == LBool::Undef {
            self.enqueue(asserting, cref);
        }
        self.decay_activities();
        self.maybe_heartbeat();
        true
    }
}

/// Outcome of one restart-bounded search episode.
pub(crate) enum SearchResult {
    Sat,
    Unsat,
    Restart,
    Budget,
}

impl Solver {
    /// Runs CDCL search until a model is found, unsatisfiability is proven,
    /// the restart budget is exhausted, or the global conflict budget is hit.
    pub(crate) fn search<T: Theory>(
        &mut self,
        theory: &mut T,
        restart_budget: u64,
        learnt_limit: &mut usize,
        start_conflicts: u64,
    ) -> SearchResult {
        let mut conflicts_this_restart: u64 = 0;

        loop {
            let conflict = self.propagate();

            if let Some(conflicting) = conflict {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                let (conflict_family, conflict_mask) = {
                    let clause = self.db.get(conflicting);
                    (clause.family, clause.mask)
                };
                self.attribution.conflicts_by_family[usize::from(conflict_family)] += 1;
                self.analysis_mask = conflict_mask;

                if self.assignment.decision_level() == 0 {
                    self.record_conflict_involvement(false);
                    return SearchResult::Unsat;
                }

                let conflict_lits: Vec<Lit> = self.db.get(conflicting).lits.clone();
                self.bump_clause(conflicting);
                let (learnt, backtrack_level, lbd) = self.analyze_lits(&conflict_lits);
                self.record_conflict_involvement(true);
                self.cancel_until(backtrack_level);
                theory.backtrack_to(backtrack_level);
                let asserting = learnt[0];
                let cref = self.add_learnt_clause(learnt, lbd);
                if !self.ok {
                    return SearchResult::Unsat;
                }
                self.enqueue(asserting, cref);
                self.decay_activities();
                self.maybe_heartbeat();

                if let Some(max) = self.config.max_conflicts {
                    if self.stats.conflicts - start_conflicts >= max {
                        return SearchResult::Budget;
                    }
                }
                if conflicts_this_restart >= restart_budget {
                    return SearchResult::Restart;
                }
                continue;
            }

            // Propagation reached a fixpoint; notify the theory about any
            // literals it has not seen yet.
            if let Some(clause) = self.notify_theory(theory) {
                self.stats.theory_conflicts += 1;
                conflicts_this_restart += 1;
                if !self.handle_theory_conflict(clause, theory) {
                    return SearchResult::Unsat;
                }
                if let Some(max) = self.config.max_conflicts {
                    if self.stats.conflicts - start_conflicts >= max {
                        return SearchResult::Budget;
                    }
                }
                if conflicts_this_restart >= restart_budget {
                    return SearchResult::Restart;
                }
                continue;
            }

            if self.config.reduce_db && self.db.num_learnt > *learnt_limit {
                self.reduce_learnt_db();
                *learnt_limit += *learnt_limit / 10;
            }

            match self.pick_branch_lit() {
                None => return SearchResult::Sat,
                Some(lit) => {
                    self.stats.decisions += 1;
                    self.assignment.new_decision_level();
                    self.enqueue(lit, None);
                }
            }
        }
    }

    /// Pushes trail literals the theory has not yet seen. Returns a conflict
    /// clause if the theory detects inconsistency.
    fn notify_theory<T: Theory>(&mut self, theory: &mut T) -> Option<Vec<Lit>> {
        while self.theory_head < self.assignment.trail.len() {
            let lit = self.assignment.trail[self.theory_head];
            self.theory_head += 1;
            let level = self.assignment.level(lit.var());
            match theory.assert_literal(lit, level) {
                TheoryResult::Consistent => {}
                TheoryResult::Conflict(clause) => return Some(clause),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: usize, neg: bool) -> Lit {
        Lit::new(solver_vars[i], neg)
    }

    fn new_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut solver = Solver::new();
        assert_eq!(solver.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut solver = Solver::new();
        let vars = new_vars(&mut solver, 2);
        solver.add_clause([lit(&vars, 0, false)]);
        solver.add_clause([lit(&vars, 0, true), lit(&vars, 1, false)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let model = solver.model().unwrap();
        assert!(model.value(vars[0]));
        assert!(model.value(vars[1]));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut solver = Solver::new();
        let vars = new_vars(&mut solver, 1);
        solver.add_clause([lit(&vars, 0, false)]);
        solver.add_clause([lit(&vars, 0, true)]);
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn simple_3sat_instance_is_sat() {
        let mut solver = Solver::new();
        let v = new_vars(&mut solver, 3);
        solver.add_clause([lit(&v, 0, false), lit(&v, 1, false), lit(&v, 2, false)]);
        solver.add_clause([lit(&v, 0, true), lit(&v, 1, false)]);
        solver.add_clause([lit(&v, 1, true), lit(&v, 2, false)]);
        solver.add_clause([lit(&v, 2, true), lit(&v, 0, true)]);
        let outcome = solver.solve();
        assert_eq!(outcome, SolveOutcome::Sat);
        let m = solver.model().unwrap();
        // Verify the model satisfies every clause.
        assert!(m.value(v[0]) || m.value(v[1]) || m.value(v[2]));
        assert!(!m.value(v[0]) || m.value(v[1]));
        assert!(!m.value(v[1]) || m.value(v[2]));
        assert!(!m.value(v[2]) || !m.value(v[0]));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Three pigeons, two holes: var p_{i,j} = pigeon i in hole j.
        let mut solver = Solver::new();
        let mut p = [[Var::from_index(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = solver.new_var();
            }
        }
        // Each pigeon is in some hole.
        for row in &p {
            solver.add_clause([Lit::positive(row[0]), Lit::positive(row[1])]);
        }
        // No two pigeons share a hole.
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (slot1, slot2) in row1.iter().zip(row2) {
                    solver.add_clause([Lit::negative(*slot1), Lit::negative(*slot2)]);
                }
            }
        }
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut solver = Solver::new();
        let v = new_vars(&mut solver, 1);
        solver.add_clause([lit(&v, 0, false), lit(&v, 0, true)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn empty_clause_makes_problem_unsat() {
        let mut solver = Solver::new();
        let _ = new_vars(&mut solver, 1);
        assert!(!solver.add_clause(std::iter::empty()));
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
        assert!(!solver.is_ok());
    }

    #[test]
    fn incremental_solving_with_blocking_clauses() {
        // Enumerate all four models of two unconstrained variables by adding
        // blocking clauses, then observe UNSAT.
        let mut solver = Solver::new();
        let v = new_vars(&mut solver, 2);
        let mut count = 0;
        loop {
            match solver.solve() {
                SolveOutcome::Sat => {
                    count += 1;
                    let m = solver.model().unwrap().clone();
                    let blocking: Vec<Lit> =
                        v.iter().map(|&var| Lit::new(var, m.value(var))).collect();
                    solver.add_clause(blocking);
                }
                SolveOutcome::Unsat => break,
                SolveOutcome::Unknown => panic!("unexpected unknown"),
            }
            assert!(count <= 4, "too many models enumerated");
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn conflict_budget_returns_unknown_or_decides() {
        let config = SolverConfig {
            max_conflicts: Some(1),
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        // A modest pigeonhole instance that needs more than one conflict.
        let n = 5;
        let mut p = vec![vec![Var::from_index(0); n - 1]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = solver.new_var();
            }
        }
        for row in &p {
            solver.add_clause(row.iter().map(|&v| Lit::positive(v)));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (slot1, slot2) in row1.iter().zip(row2) {
                    solver.add_clause([Lit::negative(*slot1), Lit::negative(*slot2)]);
                }
            }
        }
        assert_eq!(solver.solve(), SolveOutcome::Unknown);
    }

    #[test]
    fn naive_decision_order_also_works() {
        let config = SolverConfig {
            use_vsids: false,
            ..SolverConfig::default()
        };
        let mut solver = Solver::with_config(config);
        let v = new_vars(&mut solver, 3);
        solver.add_clause([lit(&v, 0, true), lit(&v, 1, false)]);
        solver.add_clause([lit(&v, 1, true), lit(&v, 2, false)]);
        solver.add_clause([lit(&v, 0, false)]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let m = solver.model().unwrap();
        assert!(m.value(v[0]) && m.value(v[1]) && m.value(v[2]));
    }

    #[test]
    fn stats_reflect_problem_size() {
        let mut solver = Solver::new();
        let v = new_vars(&mut solver, 2);
        solver.add_clause([lit(&v, 0, false), lit(&v, 1, false)]);
        assert_eq!(solver.stats().variables, 2);
        assert_eq!(solver.stats().clauses, 1);
        assert_eq!(solver.stats().literals, 2);
    }
}
