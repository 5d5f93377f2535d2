//! Static formula analysis and SatELite-style preprocessing.
//!
//! This module adds a simplification layer that runs on the clause database
//! between [`Solver::add_clause`] and the search loop. It has two halves:
//!
//! * **Analysis** — [`FormulaProfile`] summarizes the structure of the current
//!   formula: clause-size histogram, binary-implication-graph (BIG)
//!   equivalence classes, pure literals, fixed/frozen variable counts.
//! * **Simplification** — a [SatELite]-style pipeline: top-level unit
//!   propagation, equivalent-literal substitution over BIG strongly connected
//!   components, subsumption + self-subsuming resolution (occurrence-indexed),
//!   failed-literal probing, and bounded variable elimination (BVE; pure
//!   literals fall out as the zero-resolvent special case).
//!
//! Eliminated and substituted variables are recorded on an **elimination
//! stack** so that models of the simplified formula can be extended back to
//! models of the original formula (see [`Solver::model`]); this is load-bearing
//! because the `smt` and `core` layers read models to extract predictions and
//! drive steered replay. Theory atoms must be [frozen](Solver::freeze_var):
//! the theory attaches extra semantics to them that clause-level resolution
//! cannot see, so they are never eliminated or substituted (they may still be
//! fixed by unit propagation or probing, which is sound).
//!
//! Preprocessing is one explicit step: the owner of a solver calls
//! [`Solver::preprocess`] at most once, before the first search, and every
//! technique above always runs. A short probe search under a small
//! conflict budget may come first: only if it does not decide does the
//! owner [`Solver::rewind`] back to the pre-search state and run the pass
//! (Järvisalo, Heule & Biere's "search first, simplify when the search
//! stalls", IJCAR 2012). The rewind is exact, so the search after the pass
//! is the one a solver preprocessed first would run. Clauses added
//! afterwards join the simplified formula directly: [`Solver::add_clause`]
//! maps their literals through the substitution table, transparently
//! restores eliminated variables they mention (re-adding the stored
//! clauses), and simplifies them against the top-level assignment, so
//! refinement and blocking-clause loops keep working without re-running
//! the pipeline.
//!
//! [SatELite]: https://doi.org/10.1007/11499107_5

use crate::assignment::LBool;
use crate::clause::{Clause, ClauseDb};
use crate::literal::{Lit, Var};
use crate::solver::Solver;

/// Maximum number of simplification rounds per [`Solver::preprocess`] call.
const MAX_ROUNDS: u32 = 3;
/// Maximum number of failed-literal probes per [`Solver::preprocess`] call.
const PROBE_LIMIT: usize = 4000;
/// BVE skips variables occurring more often than this in either polarity.
const BVE_OCCURRENCE_LIMIT: usize = 10;

/// What one [`Solver::preprocess`] call did to the formula.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessSummary {
    /// Simplification rounds executed.
    pub rounds: u64,
    /// Literals fixed at the top level (units, probing consequences).
    pub fixed: u64,
    /// Variables substituted by an equivalent literal.
    pub equivalences: u64,
    /// Clauses removed by subsumption.
    pub subsumed: u64,
    /// Literals removed by self-subsuming resolution.
    pub strengthened: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated: u64,
    /// Resolvent clauses added by variable elimination.
    pub resolvents: u64,
    /// Failed-literal probes attempted.
    pub probes: u64,
    /// Problem clauses before / after the call.
    pub clauses_before: u64,
    /// Problem clauses after the call.
    pub clauses_after: u64,
    /// Problem literal occurrences before the call.
    pub literals_before: u64,
    /// Problem literal occurrences after the call.
    pub literals_after: u64,
    /// The formula was proven unsatisfiable during preprocessing.
    pub unsat: bool,
}

impl std::fmt::Display for PreprocessSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} clauses {} -> {} literals {} -> {} (fixed={} equiv={} subsumed={} strengthened={} eliminated={} resolvents={} probes={}{})",
            self.rounds,
            self.clauses_before,
            self.clauses_after,
            self.literals_before,
            self.literals_after,
            self.fixed,
            self.equivalences,
            self.subsumed,
            self.strengthened,
            self.eliminated,
            self.resolvents,
            self.probes,
            if self.unsat { " UNSAT" } else { "" },
        )
    }
}

/// Structural summary of the current formula (live problem clauses under the
/// current top-level assignment).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FormulaProfile {
    /// Total variables ever created.
    pub variables: u64,
    /// Variables still active (not eliminated or substituted away).
    pub active_variables: u64,
    /// Variables fixed at the top level.
    pub fixed_variables: u64,
    /// Variables frozen against elimination (theory atoms).
    pub frozen_variables: u64,
    /// Live problem clauses.
    pub clauses: u64,
    /// Literal occurrences over live problem clauses.
    pub literals: u64,
    /// Live binary problem clauses.
    pub binary_clauses: u64,
    /// Live ternary problem clauses.
    pub ternary_clauses: u64,
    /// `(clause length, count)` pairs, ascending by length.
    pub size_histogram: Vec<(usize, u64)>,
    /// Unfixed variables occurring in exactly one polarity.
    pub pure_literals: u64,
    /// Non-trivial strongly connected components of the binary implication
    /// graph (each witnesses a class of equivalent literals).
    pub equivalence_classes: u64,
    /// Literals inside those non-trivial components.
    pub equivalent_literals: u64,
}

impl std::fmt::Display for FormulaProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "variables: {} ({} active, {} fixed, {} frozen)",
            self.variables, self.active_variables, self.fixed_variables, self.frozen_variables
        )?;
        writeln!(
            f,
            "clauses: {} ({} binary, {} ternary), literals: {}",
            self.clauses, self.binary_clauses, self.ternary_clauses, self.literals
        )?;
        write!(f, "size histogram:")?;
        for &(len, count) in &self.size_histogram {
            write!(f, " {len}:{count}")?;
        }
        writeln!(f)?;
        write!(
            f,
            "pure literals: {}, equivalence classes: {} ({} literals)",
            self.pure_literals, self.equivalence_classes, self.equivalent_literals
        )
    }
}

/// Lifecycle state of a variable with respect to preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    /// Present in the formula and decidable.
    Active,
    /// Replaced everywhere by an equivalent literal (`subst` has the image).
    Substituted,
    /// Removed by variable elimination (`restore_clauses` has its clauses).
    Eliminated,
}

/// One entry of the model-reconstruction stack. Replayed newest-first: if
/// `clause` is unsatisfied under the model built so far, the pivot variable is
/// flipped so that `pivot` becomes true.
#[derive(Debug, Clone)]
pub(crate) struct ElimEntry {
    pub(crate) pivot: Lit,
    pub(crate) clause: Vec<Lit>,
}

/// A clause stored for incremental restoration of an eliminated variable,
/// retaining its provenance so the flight recorder keeps attributing it to
/// the right axiom family after restoration.
#[derive(Debug, Clone)]
pub(crate) struct RestoredClause {
    pub(crate) lits: Vec<Lit>,
    pub(crate) family: u16,
    pub(crate) mask: u32,
}

/// A recorded simplification that removes a variable from the formula.
enum SimpOp {
    /// `pos(var)` is equivalent to `rep`.
    Substitute { var: Var, rep: Lit },
    /// `var` was eliminated by resolution.
    Eliminate {
        var: Var,
        stack: Vec<ElimEntry>,
        restore: Vec<RestoredClause>,
    },
}

/// Computes the non-trivial SCCs of the binary implication graph spanned by
/// `binary` (clauses `[a, b]` contribute edges `¬a → b` and `¬b → a`).
/// Returns each SCC as a list of literal codes; only components with two or
/// more members are reported. Deterministic: Tarjan's algorithm over literal
/// codes in ascending order.
fn big_sccs(num_vars: usize, binary: &[[Lit; 2]]) -> Vec<Vec<Lit>> {
    let n = 2 * num_vars;
    // Adjacency in compressed rows: the successors of `node` are
    // `targets[start[node]..start[node + 1]]`, in clause order.
    let mut start = vec![0usize; n + 1];
    for &[a, b] in binary {
        start[a.negate().code() + 1] += 1;
        start[b.negate().code() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut targets = vec![0u32; start[n]];
    for &[a, b] in binary {
        for (from, to) in [(a.negate(), b), (b.negate(), a)] {
            targets[fill[from.code()]] = to.code() as u32;
            fill[from.code()] += 1;
        }
    }
    let adj = |node: u32| &targets[start[node as usize]..start[node as usize + 1]];

    const UNDEF: u32 = u32::MAX;
    let mut index = vec![UNDEF; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index: u32 = 0;
    let mut sccs: Vec<Vec<Lit>> = Vec::new();
    // Explicit DFS frames: (node, next-edge cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNDEF {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (node, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj(node).len() {
                let succ = adj(node)[*cursor];
                *cursor += 1;
                if index[succ as usize] == UNDEF {
                    frames.push((succ, 0));
                    index[succ as usize] = next_index;
                    low[succ as usize] = next_index;
                    next_index += 1;
                    stack.push(succ);
                    on_stack[succ as usize] = true;
                } else if on_stack[succ as usize] {
                    low[node as usize] = low[node as usize].min(index[succ as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent as usize] = low[parent as usize].min(low[node as usize]);
                }
                if low[node as usize] == index[node as usize] {
                    if stack.last() == Some(&node) {
                        // A component of one literal: nothing to report.
                        stack.pop();
                        on_stack[node as usize] = false;
                        continue;
                    }
                    let mut scc = Vec::new();
                    loop {
                        let member = stack.pop().expect("SCC stack underflow");
                        on_stack[member as usize] = false;
                        scc.push(Lit::from_code(member));
                        if member == node {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// The value of `lit` under the per-variable assignment `fixed`.
fn lit_value(fixed: &[LBool], lit: Lit) -> LBool {
    let v = fixed[lit.var().index()];
    if lit.is_negative() {
        v.negate()
    } else {
        v
    }
}

/// A watch on one literal of a working clause: `blocker` is another literal
/// of the clause that, if true, satisfies it without a look at the clause.
/// For a binary clause it is always the other literal.
#[derive(Clone, Copy)]
struct ProbeWatch {
    clause: u32,
    blocker: Lit,
}

/// Two-watched-literal index over the simplifier's working clauses, used by
/// failed-literal probing and scoped to one probing pass.
///
/// The watched literals live in `watched` instead of being swapped to the
/// front, because the literal order of the working clauses is part of the
/// simplifier's output (it seeds the solver's watch setup). Every probe
/// starts from the top-level assignment, under which no literal of a
/// working clause is assigned, so watches never need repair after the
/// probe's assignment is undone. A failed literal does change the clauses;
/// [`ProbeWatches::repair`] then moves the watches off the literals it
/// falsified.
///
/// Invariant: for every live clause `c` and each `w` in `watched[c]`,
/// `lists[w]` holds exactly one entry for `c`, and every entry for a live
/// clause in `lists[l]` has `l` in `watched[c]`. Entries for removed
/// clauses are dropped when visited.
#[derive(Default)]
struct ProbeWatches {
    /// `lists[l.code()]`: watches on clauses with `l` watched.
    lists: Vec<Vec<ProbeWatch>>,
    /// The two watched literals, per clause slot.
    watched: Vec<[Lit; 2]>,
    /// The probe's assignments in order; also its propagation queue.
    trail: Vec<Lit>,
    /// `implied[l.code()] == epoch`: `l` was assigned by a probe that ended
    /// without conflict since the clauses last changed.
    implied: Vec<u32>,
    epoch: u32,
    /// The lists have been built (at the pass's first probe).
    built: bool,
    /// Watch-list entries visited so far.
    visits: u64,
}

impl ProbeWatches {
    /// Watches the first two literals of every live clause.
    fn build(&mut self, clauses: &[Option<Vec<Lit>>], fixed: &[LBool]) {
        self.lists.resize_with(2 * fixed.len(), Vec::new);
        self.watched.clear();
        self.watched.resize(clauses.len(), [Lit::from_code(0); 2]);
        self.implied.resize(2 * fixed.len(), 0);
        self.epoch += 1;
        for (ci, lits) in clauses.iter().enumerate() {
            let Some(lits) = lits else { continue };
            debug_assert!(lits.iter().all(|&l| lit_value(fixed, l) == LBool::Undef));
            let clause = ci as u32;
            self.watched[ci] = [lits[0], lits[1]];
            self.lists[lits[0].code()].push(ProbeWatch {
                clause,
                blocker: lits[1],
            });
            self.lists[lits[1].code()].push(ProbeWatch {
                clause,
                blocker: lits[0],
            });
        }
        self.built = true;
    }

    /// Restores the invariant after `propagate_fixed` fixed `newly_fixed`
    /// (in fix order) and rewrote the clauses. Clauses it satisfied or
    /// reduced to units are removed; the rest only lost literals that are
    /// now false, and each such literal is the negation of one in
    /// `newly_fixed`. So the watches to move are exactly those in the lists
    /// of the newly falsified literals. Every literal left in a live clause
    /// is unassigned, so any one other than the clause's second watch will
    /// do.
    fn repair(&mut self, clauses: &[Option<Vec<Lit>>], newly_fixed: &[Lit]) {
        for &lit in newly_fixed {
            // Every clause watching `lit` was satisfied and removed.
            self.lists[lit.code()] = Vec::new();
            let false_lit = lit.negate();
            for watch in std::mem::take(&mut self.lists[false_lit.code()]) {
                let ci = watch.clause as usize;
                let Some(lits) = clauses[ci].as_deref() else {
                    continue;
                };
                let w = self.watched[ci];
                let slot = usize::from(w[0] != false_lit);
                let other = w[1 - slot];
                let new = lits
                    .iter()
                    .copied()
                    .find(|&l| l != other)
                    .expect("live clauses have two literals");
                self.watched[ci][slot] = new;
                self.lists[new.code()].push(ProbeWatch {
                    blocker: other,
                    ..watch
                });
            }
        }
        // Stronger clauses can make a previously implied literal fail.
        self.epoch += 1;
    }

    /// Assumes `start`, unit-propagates over `clauses` without modifying
    /// them, and returns `true` on conflict. `fixed` is restored before
    /// returning. Unit propagation is confluent, so whether a conflict is
    /// reached does not depend on the order in which clauses are visited.
    ///
    /// A literal assigned by an earlier conflict-free probe over the same
    /// clauses cannot fail: its propagation closure is part of that probe's,
    /// which held no falsified clause. Such probes return at once.
    fn probe(&mut self, clauses: &[Option<Vec<Lit>>], fixed: &mut [LBool], start: Lit) -> bool {
        debug_assert_eq!(lit_value(fixed, start), LBool::Undef);
        if self.implied[start.code()] == self.epoch {
            return false;
        }
        let assign = |fixed: &mut [LBool], lit: Lit| {
            fixed[lit.var().index()] = LBool::from_bool(lit.is_positive());
        };
        self.trail.clear();
        self.trail.push(start);
        assign(fixed, start);
        let mut head = 0;
        let mut conflict = false;

        while head < self.trail.len() && !conflict {
            let false_lit = self.trail[head].negate();
            head += 1;
            let mut list = std::mem::take(&mut self.lists[false_lit.code()]);
            let mut kept = 0;
            let mut i = 0;
            while i < list.len() {
                let watch = list[i];
                i += 1;
                self.visits += 1;
                if lit_value(fixed, watch.blocker) == LBool::True {
                    list[kept] = watch;
                    kept += 1;
                    continue;
                }
                let ci = watch.clause as usize;
                let Some(lits) = clauses[ci].as_deref() else {
                    continue; // removed by a failed literal: drop the watch
                };
                let w = self.watched[ci];
                let slot = usize::from(w[0] != false_lit);
                let other = w[1 - slot];
                if lits.len() > 2 {
                    if lit_value(fixed, other) == LBool::True {
                        list[kept] = ProbeWatch {
                            blocker: other,
                            ..watch
                        };
                        kept += 1;
                        continue;
                    }
                    let replacement = lits
                        .iter()
                        .copied()
                        .find(|&l| l != w[0] && l != w[1] && lit_value(fixed, l) != LBool::False);
                    if let Some(new) = replacement {
                        self.watched[ci][slot] = new;
                        self.lists[new.code()].push(ProbeWatch {
                            blocker: other,
                            ..watch
                        });
                        continue;
                    }
                }
                // Every other literal is false: the clause is unit or falsified.
                list[kept] = watch;
                kept += 1;
                match lit_value(fixed, other) {
                    LBool::True => {}
                    LBool::False => {
                        conflict = true;
                        break;
                    }
                    LBool::Undef => {
                        assign(fixed, other);
                        self.trail.push(other);
                    }
                }
            }
            // Keep the entries not visited after a conflict.
            let unvisited = list.len() - i;
            list.copy_within(i.., kept);
            list.truncate(kept + unvisited);
            self.lists[false_lit.code()] = list;
        }

        for lit in &self.trail {
            fixed[lit.var().index()] = LBool::Undef;
            if !conflict {
                self.implied[lit.code()] = self.epoch;
            }
        }
        conflict
    }
}

/// How often a test build took paths that the `golden_identity` test must
/// see exercised, per thread.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct PathCounts {
    /// Variables BVE gave up on after counting their resolvents.
    bve_gave_up: u64,
    /// Variables eliminated although some of their resolvents were
    /// tautologies.
    bve_taut_elims: u64,
    /// The most failed literals found in one probing pass.
    max_failed_per_probe_pass: u64,
}

#[cfg(test)]
thread_local! {
    static PATHS: std::cell::Cell<PathCounts> = std::cell::Cell::new(PathCounts::default());
}

#[cfg(test)]
fn note_path(update: impl FnOnce(&mut PathCounts)) {
    PATHS.with(|paths| {
        let mut counts = paths.get();
        update(&mut counts);
        paths.set(counts);
    });
}

/// The resolvent of `p_lits` (containing `pivot`) and `n_lits` (containing
/// `¬pivot`): sorted, without duplicates, and `None` if it is a tautology.
fn resolvent(p_lits: &[Lit], n_lits: &[Lit], pivot: Lit) -> Option<Vec<Lit>> {
    let neg = pivot.negate();
    let mut res: Vec<Lit> = p_lits.iter().copied().filter(|&l| l != pivot).collect();
    res.extend(n_lits.iter().copied().filter(|&l| l != neg));
    res.sort_unstable();
    res.dedup();
    // `l` and `¬l` have adjacent codes, so they meet once sorted.
    if res.windows(2).any(|w| w[0] == w[1].negate()) {
        return None;
    }
    Some(res)
}

/// The count step of bounded variable elimination: how many of a
/// variable's resolvents are non-tautological, found with literal marks
/// instead of building each resolvent. Scoped to one BVE pass.
struct ResolventCounter {
    /// `mark[l.code()] == epoch`: `l` is in the clause stamped last.
    mark: Vec<u32>,
    epoch: u32,
    /// Per negative clause: tautological on its own, pivot aside.
    neg_taut: Vec<bool>,
    /// Clause pairs examined (`SolverStats::pp_bve_pairs`).
    pairs: u64,
}

impl ResolventCounter {
    fn new(num_vars: usize) -> Self {
        ResolventCounter {
            mark: vec![0; 2 * num_vars],
            epoch: 0,
            neg_taut: Vec::new(),
            pairs: 0,
        }
    }

    /// Marks the literals of `lits` other than `skip` under a fresh epoch;
    /// returns whether they contain a complementary pair.
    fn stamp(&mut self, lits: &[Lit], skip: Lit) -> bool {
        self.epoch += 1;
        let mut taut = false;
        for &l in lits {
            if l != skip {
                taut |= self.mark[l.negate().code()] == self.epoch;
                self.mark[l.code()] = self.epoch;
            }
        }
        taut
    }

    /// Counts the non-tautological resolvents on `pivot` of the clauses in
    /// `pos_list` (containing `pivot`) and `neg_list` (containing `¬pivot`)
    /// in [`resolvent`]'s pair order, and stops as soon as the count
    /// exceeds `bound`. A pair is tautological iff either side is on its
    /// own, or some literal of the negative side has its complement on
    /// the positive side.
    fn count(
        &mut self,
        clauses: &[Option<Vec<Lit>>],
        pos_list: &[usize],
        neg_list: &[usize],
        pivot: Lit,
        bound: usize,
    ) -> usize {
        let live = |ci: usize| clauses[ci].as_deref().expect("validated live");
        let neg = pivot.negate();
        self.neg_taut.clear();
        for &ni in neg_list {
            let taut = self.stamp(live(ni), neg);
            self.neg_taut.push(taut);
        }
        let mut count = 0;
        for &pi in pos_list {
            let pos_taut = self.stamp(live(pi), pivot);
            for (&ni, &neg_taut) in neg_list.iter().zip(&self.neg_taut) {
                self.pairs += 1;
                let taut = pos_taut
                    || neg_taut
                    || live(ni)
                        .iter()
                        .any(|&l| l != neg && self.mark[l.negate().code()] == self.epoch);
                if !taut {
                    count += 1;
                    if count > bound {
                        return count;
                    }
                }
            }
        }
        count
    }
}

/// Occurrence-indexed clause simplifier working on an extracted copy of the
/// problem clauses. Builds up a list of [`SimpOp`]s plus newly fixed literals
/// that the solver applies afterwards.
struct Simplifier {
    num_vars: usize,
    /// Live working clauses (`None` = removed). Invariant: every live clause
    /// has length ≥ 2 and mentions only active, unfixed variables (up to
    /// units still waiting in `unit_queue`).
    clauses: Vec<Option<Vec<Lit>>>,
    /// `(family, provenance mask)` per clause slot, parallel to `clauses`.
    /// Rewrites in place keep the slot's provenance; derived clauses OR the
    /// masks of their parents (see `crate::flight`).
    meta: Vec<(u16, u32)>,
    /// Variable-based 64-bit signature per clause (subsumption filter).
    sigs: Vec<u64>,
    /// `occ[l.code()]` ⊇ indices of live clauses containing `l` (entries may
    /// be stale; consumers re-validate).
    occ: Vec<Vec<u32>>,
    fixed: Vec<LBool>,
    frozen: Vec<bool>,
    active: Vec<bool>,
    /// `pos(v) ≡ lit` for variables substituted during this run.
    subst_of: Vec<Option<Lit>>,
    unit_queue: Vec<Lit>,
    unit_head: usize,
    /// Literals newly fixed by this run, in fix order.
    new_fixed: Vec<Lit>,
    ops: Vec<SimpOp>,
    summary: PreprocessSummary,
    unsat: bool,
    probes_used: usize,
    /// Watch-list entries visited by probing (`SolverStats::pp_probe_visits`).
    probe_visits: u64,
    /// Candidate clauses scanned by the backward subsumption check, i.e.
    /// past the size and signature filters (`SolverStats::pp_subsume_checks`).
    subsume_checks: u64,
    /// Clause pairs examined by BVE's count step (`SolverStats::pp_bve_pairs`).
    bve_pairs: u64,
}

impl Simplifier {
    fn new(
        num_vars: usize,
        fixed: Vec<LBool>,
        frozen: Vec<bool>,
        originals: Vec<(Vec<Lit>, u16, u32)>,
    ) -> Self {
        let mut simp = Simplifier {
            num_vars,
            clauses: Vec::with_capacity(originals.len()),
            meta: Vec::with_capacity(originals.len()),
            sigs: Vec::with_capacity(originals.len()),
            occ: vec![Vec::new(); 2 * num_vars],
            fixed,
            frozen,
            // Nothing has been eliminated or substituted yet.
            active: vec![true; num_vars],
            subst_of: vec![None; num_vars],
            unit_queue: Vec::new(),
            unit_head: 0,
            new_fixed: Vec::new(),
            ops: Vec::new(),
            summary: PreprocessSummary::default(),
            unsat: false,
            probes_used: 0,
            probe_visits: 0,
            subsume_checks: 0,
            bve_pairs: 0,
        };
        for (lits, family, mask) in originals {
            simp.ingest(lits, family, mask);
        }
        simp
    }

    fn sig_of(lits: &[Lit]) -> u64 {
        lits.iter()
            .fold(0u64, |acc, l| acc | 1u64 << (l.var().index() & 63))
    }

    /// Normalizes `lits` against the fixed map and stores the clause (or
    /// enqueues it as a unit / flags unsatisfiability).
    fn ingest(&mut self, mut simplified: Vec<Lit>, family: u16, mask: u32) {
        if simplified.iter().any(|&l| self.value(l) == LBool::True) {
            return;
        }
        simplified.retain(|&l| self.value(l) == LBool::Undef);
        simplified.sort_unstable();
        simplified.dedup();
        for w in simplified.windows(2) {
            if w[0] == w[1].negate() {
                return; // tautology
            }
        }
        match simplified.len() {
            0 => self.unsat = true,
            1 => self.enqueue_fix(simplified[0]),
            _ => {
                self.push_clause(simplified, family, mask);
            }
        }
    }

    fn push_clause(&mut self, lits: Vec<Lit>, family: u16, mask: u32) -> usize {
        let ci = self.clauses.len();
        self.sigs.push(Self::sig_of(&lits));
        self.meta.push((family, mask));
        for &l in &lits {
            self.occ[l.code()].push(ci as u32);
        }
        self.clauses.push(Some(lits));
        ci
    }

    fn remove_clause(&mut self, ci: usize) {
        self.clauses[ci] = None;
    }

    fn value(&self, lit: Lit) -> LBool {
        lit_value(&self.fixed, lit)
    }

    fn contains(&self, ci: usize, lit: Lit) -> bool {
        match &self.clauses[ci] {
            Some(lits) => lits.contains(&lit),
            None => false,
        }
    }

    fn enqueue_fix(&mut self, lit: Lit) {
        self.unit_queue.push(lit);
    }

    /// Resolves `lit` through the substitutions recorded so far.
    fn resolve(&self, mut lit: Lit) -> Lit {
        while let Some(rep) = self.subst_of[lit.var().index()] {
            lit = if lit.is_positive() { rep } else { rep.negate() };
        }
        lit
    }

    /// Drains the unit queue: fixes each literal and rewrites the clause set
    /// accordingly (removing satisfied clauses, stripping falsified literals).
    fn propagate_fixed(&mut self) {
        while self.unit_head < self.unit_queue.len() {
            let lit = self.resolve(self.unit_queue[self.unit_head]);
            self.unit_head += 1;
            match self.value(lit) {
                LBool::True => continue,
                LBool::False => {
                    self.unsat = true;
                    return;
                }
                LBool::Undef => {}
            }
            self.fixed[lit.var().index()] = LBool::from_bool(lit.is_positive());
            self.new_fixed.push(lit);
            self.summary.fixed += 1;

            let satisfied = std::mem::take(&mut self.occ[lit.code()]);
            for ci in satisfied {
                let ci = ci as usize;
                if self.contains(ci, lit) {
                    self.remove_clause(ci);
                }
            }
            let neg = lit.negate();
            let falsified = std::mem::take(&mut self.occ[neg.code()]);
            for ci in falsified {
                let ci = ci as usize;
                if !self.contains(ci, neg) {
                    continue;
                }
                let lits = self.clauses[ci].as_mut().expect("validated live");
                lits.retain(|&l| l != neg);
                self.sigs[ci] = Self::sig_of(lits);
                match lits.len() {
                    0 => {
                        self.unsat = true;
                        return;
                    }
                    1 => {
                        let unit = lits[0];
                        self.remove_clause(ci);
                        self.enqueue_fix(unit);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Equivalent-literal substitution over binary-implication-graph SCCs.
    fn equiv_pass(&mut self) -> bool {
        let binary: Vec<[Lit; 2]> = self
            .clauses
            .iter()
            .flatten()
            .filter(|lits| lits.len() == 2)
            .map(|lits| [lits[0], lits[1]])
            .collect();
        let sccs = big_sccs(self.num_vars, &binary);
        let mut changed = false;
        for scc in sccs {
            // l and ¬l in one SCC means l ↔ ¬l: unsatisfiable.
            for w in scc.windows(2) {
                if w[0].var() == w[1].var() {
                    self.unsat = true;
                    return true;
                }
            }
            // Prefer a frozen representative so theory atoms are never
            // substituted away; otherwise the smallest literal code. Mirror
            // SCCs make the same choice (same variable, flipped sign).
            let rep = scc
                .iter()
                .copied()
                .find(|l| self.frozen[l.var().index()])
                .unwrap_or(scc[0]);
            for &member in &scc {
                let var = member.var();
                if var == rep.var() || self.frozen[var.index()] || !self.active[var.index()] {
                    continue;
                }
                if self.fixed[var.index()].is_assigned() {
                    continue;
                }
                // pos(var) ≡ image.
                let image = if member.is_positive() {
                    rep
                } else {
                    rep.negate()
                };
                self.substitute(var, image);
                changed = true;
            }
        }
        changed
    }

    /// Replaces every occurrence of `var` by `image` (the image of the
    /// positive literal) and records the operation.
    fn substitute(&mut self, var: Var, image: Lit) {
        debug_assert!(self.active[var.index()]);
        debug_assert!(!self.frozen[var.index()]);
        self.active[var.index()] = false;
        self.subst_of[var.index()] = Some(image);
        self.summary.equivalences += 1;
        self.ops.push(SimpOp::Substitute { var, rep: image });

        for code in [Lit::positive(var).code(), Lit::negative(var).code()] {
            let lit = Lit::from_code(code as u32);
            let occurrences = std::mem::take(&mut self.occ[code]);
            for ci in occurrences {
                let ci = ci as usize;
                if !self.contains(ci, lit) {
                    continue;
                }
                let old = self.clauses[ci].take().expect("validated live");
                let mapped: Vec<Lit> = old
                    .into_iter()
                    .map(|l| {
                        if l.var() == var {
                            if l.is_positive() {
                                image
                            } else {
                                image.negate()
                            }
                        } else {
                            l
                        }
                    })
                    .collect();
                let mut simplified: Vec<Lit> = Vec::with_capacity(mapped.len());
                let mut satisfied = false;
                for l in mapped {
                    match self.value(l) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => {}
                        LBool::Undef => simplified.push(l),
                    }
                }
                if satisfied {
                    continue; // clause stays removed
                }
                simplified.sort_unstable();
                simplified.dedup();
                let tautology = simplified.windows(2).any(|w| w[0] == w[1].negate());
                if tautology {
                    continue; // clause stays removed
                }
                match simplified.len() {
                    0 => {
                        self.unsat = true;
                        return;
                    }
                    1 => self.enqueue_fix(simplified[0]),
                    _ => {
                        self.sigs[ci] = Self::sig_of(&simplified);
                        for &l in &simplified {
                            if l.var() == image.var() {
                                self.occ[l.code()].push(ci as u32);
                            }
                        }
                        self.clauses[ci] = Some(simplified);
                    }
                }
            }
        }
    }

    /// Subsumption and self-subsuming resolution, as one backward check per
    /// clause (SatELite's): every clause D that C subsumes or strengthens
    /// mentions C's variable `v` with the fewest occurrences, so only
    /// `occ(v) ∪ occ(¬v)` is scanned. C's literals are stamped into a
    /// per-literal mark array, and one scan of D counts its literals in C
    /// and its literals negated in C: clauses hold no duplicate or
    /// complementary literals, so `C ⊆ D` iff all `|C|` are in D, and the
    /// resolvent of C and D on `l` subsumes D (so `¬l` can be removed from
    /// D) iff `|C| - 1` are in D and `¬l` is the one negated. The pass only
    /// removes or shortens clauses and never adds to `occ`, so each
    /// occurrence list is moved out for its scan and put back unchanged.
    ///
    /// Strengthening D yields a unit only if C and D are both binary, and
    /// then the unit is the literal of C other than `l`; the units are
    /// queued in the order of C's literals, as a scan per literal of C
    /// would find them.
    fn subsumption_pass(&mut self) -> bool {
        let mut changed = false;
        let mut mark = vec![0u32; 2 * self.num_vars];
        let mut epoch = 0u32;
        let mut c: Vec<Lit> = Vec::new();
        // Units from strengthening, by the position in C of the literal
        // they were strengthened on.
        let mut units: Vec<(usize, Lit)> = Vec::new();
        for ci in 0..self.clauses.len() {
            if self.unsat {
                return changed;
            }
            let Some(lits) = &self.clauses[ci] else {
                continue;
            };
            c.clear();
            c.extend_from_slice(lits);
            epoch += 1;
            for &l in &c {
                mark[l.code()] = epoch;
            }
            let c_sig = self.sigs[ci];
            let best = c
                .iter()
                .copied()
                .min_by_key(|l| self.occ[l.code()].len() + self.occ[l.negate().code()].len())
                .expect("live clauses are non-empty");
            for scanned in [best, best.negate()] {
                let candidates = std::mem::take(&mut self.occ[scanned.code()]);
                'candidates: for &dj in &candidates {
                    let dj = dj as usize;
                    if dj == ci || c_sig & !self.sigs[dj] != 0 {
                        continue;
                    }
                    let Some(d) = &self.clauses[dj] else {
                        continue;
                    };
                    if d.len() < c.len() {
                        continue;
                    }
                    self.subsume_checks += 1;
                    let mut shared = 0;
                    let mut negated = None;
                    for &m in d {
                        if mark[m.code()] == epoch {
                            shared += 1;
                        } else if mark[m.negate().code()] == epoch {
                            if negated.is_some() {
                                // Two literals of C negated: neither applies.
                                continue 'candidates;
                            }
                            negated = Some(m);
                        }
                    }
                    match negated {
                        None if shared == c.len() => {
                            self.remove_clause(dj);
                            self.summary.subsumed += 1;
                            changed = true;
                        }
                        Some(neg) if shared + 1 == c.len() => {
                            let lits = self.clauses[dj].as_mut().expect("validated live");
                            lits.retain(|&m| m != neg);
                            self.sigs[dj] = Self::sig_of(lits);
                            // The strengthened D is the resolvent of C and D,
                            // so its provenance now also involves C's
                            // families.
                            self.meta[dj].1 |= self.meta[ci].1;
                            self.summary.strengthened += 1;
                            changed = true;
                            if lits.len() == 1 {
                                let unit = lits[0];
                                self.remove_clause(dj);
                                let at = c
                                    .iter()
                                    .position(|&l| l == neg.negate())
                                    .expect("the negated literal is in C");
                                units.push((at, unit));
                            }
                        }
                        _ => {}
                    }
                }
                self.occ[scanned.code()] = candidates;
            }
            units.sort_by_key(|&(at, _)| at);
            for (_, unit) in units.drain(..) {
                self.enqueue_fix(unit);
            }
        }
        changed
    }

    /// Failed-literal probing: temporarily assume a literal, run unit
    /// propagation, and permanently fix its negation if a conflict arises.
    fn probe_pass(&mut self) -> bool {
        // Only variables with binary-clause occurrences can propagate anything
        // from a single assumption worth probing.
        let mut in_binary = vec![false; self.num_vars];
        for lits in self.clauses.iter().flatten() {
            if lits.len() == 2 {
                for l in lits {
                    in_binary[l.var().index()] = true;
                }
            }
        }
        // Built at the first probe and dropped with the pass.
        let mut watches = ProbeWatches::default();
        let mut changed = false;
        #[cfg(test)]
        let mut failed = 0;
        for (v, &var_in_binary) in in_binary.iter().enumerate() {
            if self.unsat || self.probes_used >= PROBE_LIMIT {
                break;
            }
            let var = Var::from_index(v as u32);
            if !var_in_binary || !self.active[v] || self.fixed[v].is_assigned() {
                continue;
            }
            for lit in [Lit::positive(var), Lit::negative(var)] {
                if self.fixed[v].is_assigned() || self.probes_used >= PROBE_LIMIT {
                    break;
                }
                self.probes_used += 1;
                self.summary.probes += 1;
                if !watches.built {
                    watches.build(&self.clauses, &self.fixed);
                }
                if watches.probe(&self.clauses, &mut self.fixed, lit) {
                    #[cfg(test)]
                    {
                        failed += 1;
                    }
                    let first_new = self.new_fixed.len();
                    self.enqueue_fix(lit.negate());
                    self.propagate_fixed();
                    changed = true;
                    if self.unsat {
                        break;
                    }
                    watches.repair(&self.clauses, &self.new_fixed[first_new..]);
                }
            }
        }
        self.probe_visits += watches.visits;
        #[cfg(test)]
        note_path(|p| p.max_failed_per_probe_pass = p.max_failed_per_probe_pass.max(failed));
        changed
    }

    /// Bounded variable elimination (pure literals are the zero-resolvent
    /// case). Processes variables in ascending index order for determinism.
    fn bve_pass(&mut self) -> bool {
        // Rebuild occurrence lists from live clauses to drop stale entries.
        for list in &mut self.occ {
            list.clear();
        }
        for (ci, lits) in self.clauses.iter().enumerate() {
            if let Some(lits) = lits {
                for &l in lits {
                    self.occ[l.code()].push(ci as u32);
                }
            }
        }

        // Within this pass every occurrence list stays ascending and free of
        // duplicates: it was just rebuilt in slot order, new resolvents take
        // the highest slot, and `propagate_fixed` only empties lists.
        let limit = BVE_OCCURRENCE_LIMIT;
        let gather = |simp: &Simplifier, lit: Lit, list: &mut Vec<usize>| -> bool {
            list.clear();
            for &ci in &simp.occ[lit.code()] {
                let ci = ci as usize;
                if simp.contains(ci, lit) {
                    if list.len() == limit {
                        return false;
                    }
                    list.push(ci);
                }
            }
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
            true
        };
        let mut pos_list: Vec<usize> = Vec::new();
        let mut neg_list: Vec<usize> = Vec::new();
        let mut counter = ResolventCounter::new(self.num_vars);
        let mut changed = false;
        for v in 0..self.num_vars {
            if self.unsat {
                break;
            }
            // Keep the unit queue drained so that pending unit constraints can
            // never be lost by eliminating their variable.
            self.propagate_fixed();
            if self.unsat {
                break;
            }
            if !self.active[v] || self.frozen[v] || self.fixed[v].is_assigned() {
                continue;
            }
            let var = Var::from_index(v as u32);
            let pos = Lit::positive(var);
            let neg = Lit::negative(var);
            if !gather(self, pos, &mut pos_list) || !gather(self, neg, &mut neg_list) {
                continue; // over the occurrence limit
            }
            if pos_list.is_empty() && neg_list.is_empty() {
                continue; // unconstrained; nothing to gain
            }

            // Count the non-tautological resolvents first and bail out if
            // elimination would grow the clause count; only then build
            // them. A resolvent keeps the positive parent's family and ORs
            // both parents' provenance masks.
            let max_resolvents = pos_list.len() + neg_list.len();
            let count = counter.count(&self.clauses, &pos_list, &neg_list, pos, max_resolvents);
            if count > max_resolvents {
                #[cfg(test)]
                note_path(|p| p.bve_gave_up += 1);
                continue;
            }
            #[cfg(test)]
            if count < pos_list.len() * neg_list.len() {
                note_path(|p| p.bve_taut_elims += 1);
            }
            let mut resolvents: Vec<(Vec<Lit>, u16, u32)> = Vec::with_capacity(count);
            for &pi in &pos_list {
                for &ni in &neg_list {
                    let p_lits = self.clauses[pi].as_ref().expect("validated live");
                    let n_lits = self.clauses[ni].as_ref().expect("validated live");
                    if let Some(res) = resolvent(p_lits, n_lits, pos) {
                        resolvents.push((res, self.meta[pi].0, self.meta[pi].1 | self.meta[ni].1));
                    }
                }
            }
            debug_assert_eq!(resolvents.len(), count);

            // Commit: move the variable's clauses out of the formula into
            // its restoration clauses, record reconstruction entries (the
            // smaller side plus a defaulting unit), then add the resolvents.
            let take_side = |simp: &mut Simplifier, list: &[usize]| -> Vec<RestoredClause> {
                list.iter()
                    .map(|&ci| RestoredClause {
                        lits: simp.clauses[ci].take().expect("validated live"),
                        family: simp.meta[ci].0,
                        mask: simp.meta[ci].1,
                    })
                    .collect()
            };
            let pos_clauses = take_side(self, &pos_list);
            let neg_clauses = take_side(self, &neg_list);
            let (side, pivot, other) = if pos_clauses.len() <= neg_clauses.len() {
                (&pos_clauses, pos, neg)
            } else {
                (&neg_clauses, neg, pos)
            };
            let mut stack: Vec<ElimEntry> = side
                .iter()
                .map(|clause| ElimEntry {
                    pivot,
                    clause: clause.lits.clone(),
                })
                .collect();
            stack.push(ElimEntry {
                pivot: other,
                clause: vec![other],
            });
            let mut restore = pos_clauses;
            restore.extend(neg_clauses);

            self.active[v] = false;
            self.summary.eliminated += 1;
            self.summary.resolvents += resolvents.len() as u64;
            self.ops.push(SimpOp::Eliminate {
                var,
                stack,
                restore,
            });
            for (res, family, mask) in resolvents {
                match res.len() {
                    0 => unreachable!("resolvent of two non-unit clauses is non-empty"),
                    1 => self.enqueue_fix(res[0]),
                    _ => {
                        self.push_clause(res, family, mask);
                    }
                }
            }
            changed = true;
        }
        self.bve_pairs += counter.pairs;
        changed
    }

    /// Runs the passes to fixpoint (bounded by [`MAX_ROUNDS`]).
    fn run(&mut self) {
        for _round in 0..MAX_ROUNDS {
            if self.unsat {
                break;
            }
            self.summary.rounds += 1;
            let mut changed = false;
            self.propagate_fixed();
            if !self.unsat {
                changed |= self.equiv_pass();
                self.propagate_fixed();
            }
            if !self.unsat {
                changed |= self.subsumption_pass();
                self.propagate_fixed();
            }
            if !self.unsat {
                changed |= self.probe_pass();
            }
            if !self.unsat {
                changed |= self.bve_pass();
                self.propagate_fixed();
            }
            if !changed || self.unsat {
                break;
            }
        }
        self.propagate_fixed();
    }
}

impl Solver {
    /// Marks `var` as frozen: preprocessing will never eliminate it or
    /// substitute it away (it may still be fixed by unit propagation or
    /// probing). Theory atoms **must** be frozen because the theory attaches
    /// semantics to them that clause-level resolution cannot see.
    pub fn freeze_var(&mut self, var: Var) {
        self.frozen[var.index()] = true;
    }

    /// Whether `var` is currently active (present in the formula, as opposed
    /// to eliminated or substituted away by preprocessing).
    #[must_use]
    pub fn is_active_var(&self, var: Var) -> bool {
        self.var_state[var.index()] == VarState::Active
    }

    /// Resolves `lit` through the equivalent-literal substitution table.
    pub(crate) fn resolve_subst(&self, mut lit: Lit) -> Lit {
        while self.var_state[lit.var().index()] == VarState::Substituted {
            let rep = self.subst[lit.var().index()];
            lit = if lit.is_positive() { rep } else { rep.negate() };
        }
        lit
    }

    /// Re-introduces an eliminated variable by re-adding its stored clauses.
    /// Called when an incremental clause mentions the variable again.
    pub(crate) fn restore_var(&mut self, var: Var) {
        if self.var_state[var.index()] != VarState::Eliminated {
            return;
        }
        self.var_state[var.index()] = VarState::Active;
        self.stats.pp_restored += 1;
        // Drop the variable's reconstruction entries: its value will again be
        // determined by search, and stale entries must not overwrite it.
        self.elim_stack.retain(|e| e.pivot.var() != var);
        self.heap.insert(var);
        let clauses = std::mem::take(&mut self.restore_clauses[var.index()]);
        for clause in clauses {
            self.add_clause_with_provenance(clause.lits, false, clause.family, clause.mask);
        }
    }

    /// Extends `values` (a model of the simplified formula) to a model of the
    /// original formula by replaying the elimination stack newest-first.
    pub(crate) fn reconstruct_model(&self, values: &mut [bool]) {
        for entry in self.elim_stack.iter().rev() {
            let var = entry.pivot.var();
            if self.var_state[var.index()] == VarState::Active {
                continue;
            }
            let satisfied = entry
                .clause
                .iter()
                .any(|l| values[l.var().index()] == l.is_positive());
            if !satisfied {
                values[var.index()] = entry.pivot.is_positive();
            }
        }
    }

    /// Computes a [`FormulaProfile`] of the live problem clauses.
    #[must_use]
    pub fn profile(&self) -> FormulaProfile {
        let mut profile = FormulaProfile {
            variables: self.num_vars() as u64,
            ..FormulaProfile::default()
        };
        for v in 0..self.num_vars() {
            let var = Var::from_index(v as u32);
            if self.var_state[v] == VarState::Active {
                profile.active_variables += 1;
            }
            if self.assignment.value_var(var).is_assigned() {
                profile.fixed_variables += 1;
            }
            if self.frozen[v] {
                profile.frozen_variables += 1;
            }
        }
        let mut histogram: Vec<u64> = Vec::new();
        let mut occurs = vec![[false; 2]; self.num_vars()];
        let mut binary: Vec<[Lit; 2]> = Vec::new();
        for clause in &self.db.clauses {
            if clause.deleted || clause.learnt {
                continue;
            }
            profile.clauses += 1;
            profile.literals += clause.lits.len() as u64;
            match clause.lits.len() {
                2 => {
                    profile.binary_clauses += 1;
                    binary.push([clause.lits[0], clause.lits[1]]);
                }
                3 => profile.ternary_clauses += 1,
                _ => {}
            }
            if histogram.len() <= clause.lits.len() {
                histogram.resize(clause.lits.len() + 1, 0);
            }
            histogram[clause.lits.len()] += 1;
            for &l in &clause.lits {
                occurs[l.var().index()][usize::from(l.is_negative())] = true;
            }
        }
        profile.size_histogram = histogram
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(len, &count)| (len, count))
            .collect();
        for (v, &[pos, neg]) in occurs.iter().enumerate() {
            let var = Var::from_index(v as u32);
            if (pos ^ neg) && !self.assignment.value_var(var).is_assigned() {
                profile.pure_literals += 1;
            }
        }
        let sccs = big_sccs(self.num_vars(), &binary);
        profile.equivalence_classes = sccs.len() as u64;
        profile.equivalent_literals = sccs.iter().map(|s| s.len() as u64).sum();
        profile
    }

    /// Runs the static preprocessing pipeline on the current clause database
    /// and returns a summary of the changes made.
    ///
    /// The pipeline runs at most once per solver, before its first search
    /// or before the first search after a [`Solver::rewind`]: a second
    /// call, or a call after [`Solver::solve`] with no rewind since,
    /// returns an empty summary. Clauses added later join the simplified
    /// formula incrementally (see the module documentation).
    ///
    /// The predictor schedules it as probe → rewind → preprocess: it
    /// searches the formula as added under a small conflict budget first,
    /// and only if that returns [`crate::SolveOutcome::Unknown`] does it
    /// rewind, preprocess and search again under its full budget, so the
    /// many formulas a few conflicts decide never pay for the pass.
    pub fn preprocess(&mut self) -> PreprocessSummary {
        let mut summary = PreprocessSummary::default();
        if !self.ok {
            summary.unsat = true;
            return summary;
        }
        if !std::mem::replace(&mut self.may_preprocess, false) {
            return summary;
        }
        if self.propagate().is_some() {
            self.ok = false;
            summary.unsat = true;
            return summary;
        }

        summary.clauses_before = self.db.num_original as u64;
        summary.literals_before = self.db.literal_count;

        // Extract the live problem clauses, keeping their provenance.
        let originals: Vec<(Vec<Lit>, u16, u32)> = self
            .db
            .clauses
            .iter()
            .filter(|c| !c.deleted && !c.learnt)
            .map(|c| (c.lits.clone(), c.family, c.mask))
            .collect();
        let fixed: Vec<LBool> = (0..self.num_vars())
            .map(|v| self.assignment.value_var(Var::from_index(v as u32)))
            .collect();

        let mut simp = Simplifier::new(self.num_vars(), fixed, self.frozen.clone(), originals);
        simp.run();
        self.stats.pp_probe_visits += simp.probe_visits;
        self.stats.pp_subsume_checks += simp.subsume_checks;
        self.stats.pp_bve_pairs += simp.bve_pairs;

        summary.rounds = simp.summary.rounds;
        summary.fixed = simp.summary.fixed;
        summary.equivalences = simp.summary.equivalences;
        summary.subsumed = simp.summary.subsumed;
        summary.strengthened = simp.summary.strengthened;
        summary.eliminated = simp.summary.eliminated;
        summary.resolvents = simp.summary.resolvents;
        summary.probes = simp.summary.probes;

        if simp.unsat {
            self.ok = false;
            summary.unsat = true;
            self.record_pp_stats(&summary);
            return summary;
        }

        let Simplifier {
            clauses,
            meta,
            new_fixed,
            ops,
            ..
        } = simp;

        // Apply the recorded variable operations, moving their clauses.
        for op in ops {
            match op {
                SimpOp::Substitute { var, rep } => {
                    debug_assert_eq!(self.var_state[var.index()], VarState::Active);
                    self.var_state[var.index()] = VarState::Substituted;
                    self.subst[var.index()] = rep;
                    self.elim_stack.push(ElimEntry {
                        pivot: Lit::positive(var),
                        clause: vec![Lit::positive(var), rep.negate()],
                    });
                    self.elim_stack.push(ElimEntry {
                        pivot: Lit::negative(var),
                        clause: vec![Lit::negative(var), rep],
                    });
                }
                SimpOp::Eliminate {
                    var,
                    stack,
                    restore,
                } => {
                    debug_assert_eq!(self.var_state[var.index()], VarState::Active);
                    self.var_state[var.index()] = VarState::Eliminated;
                    self.elim_stack.extend(stack);
                    self.restore_clauses[var.index()] = restore;
                }
            }
        }

        // Enqueue newly fixed literals at the top level.
        for lit in new_fixed {
            debug_assert!(self.is_active_var(lit.var()));
            match self.assignment.value_lit(lit) {
                LBool::Undef => self.enqueue(lit, None),
                LBool::True => {}
                LBool::False => {
                    self.ok = false;
                    summary.unsat = true;
                    self.record_pp_stats(&summary);
                    return summary;
                }
            }
        }

        // Rebuild the clause database (no search has run, so it holds no
        // learnt clauses) and watches from scratch, carrying the provenance
        // the simplifier tracked per clause slot.
        self.db = ClauseDb::new();
        for list in &mut self.watches {
            list.clear();
        }
        for (lits, (family, mask)) in clauses.into_iter().zip(meta) {
            let Some(lits) = lits else { continue };
            debug_assert!(lits.len() >= 2);
            let mut clause = Clause::new(lits, false);
            clause.family = family;
            clause.mask = mask;
            let cref = self.db.push(clause);
            self.attach_clause(cref);
        }
        // All reasons referenced the old database; the trail is all top-level,
        // and conflict analysis never looks at level-0 reasons.
        for reason in &mut self.reasons {
            *reason = None;
        }
        // Re-propagate the whole trail against the rebuilt watch lists.
        self.qhead = 0;

        summary.clauses_after = self.db.num_original as u64;
        summary.literals_after = self.db.literal_count;
        self.record_pp_stats(&summary);
        summary
    }

    fn record_pp_stats(&mut self, summary: &PreprocessSummary) {
        self.stats.pp_rounds += summary.rounds;
        self.stats.pp_fixed += summary.fixed;
        self.stats.pp_equivalences += summary.equivalences;
        self.stats.pp_subsumed += summary.subsumed;
        self.stats.pp_strengthened += summary.strengthened;
        self.stats.pp_eliminated += summary.eliminated;
        self.stats.pp_resolvents += summary.resolvents;
        self.stats.pp_probes += summary.probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveOutcome;

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn big_sccs_find_equivalences() {
        // x0 ↔ x1 via (¬x0 ∨ x1) ∧ (¬x1 ∨ x0).
        let v0 = Var::from_index(0);
        let v1 = Var::from_index(1);
        let binary = vec![
            [Lit::negative(v0), Lit::positive(v1)],
            [Lit::negative(v1), Lit::positive(v0)],
        ];
        let sccs = big_sccs(2, &binary);
        assert_eq!(sccs.len(), 2, "mirror SCC pair");
        for scc in &sccs {
            assert_eq!(scc.len(), 2);
            assert_ne!(scc[0].var(), scc[1].var());
        }
    }

    #[test]
    fn equivalent_literals_are_substituted() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[1]), Lit::positive(v[0])]);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[2])]);
        solver.add_clause([Lit::negative(v[1]), Lit::negative(v[2])]);
        let summary = solver.preprocess();
        assert!(summary.equivalences >= 1, "x0 ≡ x1 should be detected");
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let m = solver.model().unwrap().clone();
        assert_eq!(m.value(v[0]), m.value(v[1]), "equivalence must hold");
        assert!(m.value(v[0]) || m.value(v[2]));
        assert!(!m.value(v[1]) || !m.value(v[2]));
    }

    #[test]
    fn opposite_literals_in_one_scc_is_unsat() {
        // x0 → x1, x1 → ¬x0, ¬x0 → ¬x1... build x0 ≡ ¬x0 via chain:
        // (¬x0 ∨ x1), (¬x1 ∨ ¬x0) gives x0 → ¬x0, and (x0 ∨ x1), (¬x1 ∨ x0)
        // gives ¬x0 → x0.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[1]), Lit::negative(v[0])]);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[1]), Lit::positive(v[0])]);
        assert!(solver.preprocess().unsat);
        assert_eq!(solver.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn subsumed_clauses_are_removed() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([
            Lit::positive(v[0]),
            Lit::positive(v[1]),
            Lit::positive(v[2]),
        ]);
        // Freeze everything so BVE cannot remove the clauses first.
        for &var in &v {
            solver.freeze_var(var);
        }
        let summary = solver.preprocess();
        assert_eq!(summary.subsumed, 1);
        assert_eq!(summary.clauses_after, 1);
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (a ∨ b) and (¬a ∨ b ∨ c): resolving on a gives (b ∨ c) ⊂ second
        // clause, so ¬a is removed from it.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        for &var in &v {
            solver.freeze_var(var);
        }
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([
            Lit::negative(v[0]),
            Lit::positive(v[1]),
            Lit::positive(v[2]),
        ]);
        let summary = solver.preprocess();
        assert!(summary.strengthened >= 1);
    }

    #[test]
    fn probing_fixes_failed_literals() {
        // x0 → x1, x0 → x2 and ¬x1 ∨ ¬x2: probing x0 propagates a conflict,
        // so ¬x0 is fixed. No other pass applies: the implication graph has
        // no cycle, no clause subsumes or strengthens another, and frozen
        // variables are never eliminated.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        for &var in &v {
            solver.freeze_var(var);
        }
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[2])]);
        solver.add_clause([Lit::negative(v[1]), Lit::negative(v[2])]);
        let summary = solver.preprocess();
        assert!(summary.probes > 0, "{summary}");
        assert_eq!(summary.fixed, 1, "probing should fix ¬x0: {summary}");
        assert_eq!(summary.strengthened + summary.subsumed, 0, "{summary}");
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        assert!(!solver.model().unwrap().value(v[0]));
    }

    #[test]
    fn bve_eliminates_and_reconstructs() {
        // x1 is eliminable: (x0 ∨ x1) ∧ (¬x1 ∨ x2) resolves to (x0 ∨ x2).
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[1]), Lit::positive(v[2])]);
        let summary = solver.preprocess();
        assert!(summary.eliminated >= 1);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let m = solver.model().unwrap();
        // The reconstructed model must satisfy the *original* clauses.
        assert!(m.value(v[0]) || m.value(v[1]));
        assert!(!m.value(v[1]) || m.value(v[2]));
    }

    #[test]
    fn pure_literals_are_eliminated() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        let summary = solver.preprocess();
        // Both variables are pure; eliminating either satisfies the clause.
        assert!(summary.eliminated >= 1);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let m = solver.model().unwrap();
        assert!(m.value(v[0]) || m.value(v[1]));
    }

    #[test]
    fn frozen_vars_survive_preprocessing() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        solver.freeze_var(v[0]);
        solver.freeze_var(v[1]);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        let summary = solver.preprocess();
        assert_eq!(summary.eliminated, 0);
        assert!(solver.is_active_var(v[0]));
        assert!(solver.is_active_var(v[1]));
    }

    #[test]
    fn incremental_clause_restores_eliminated_var() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[1]), Lit::positive(v[2])]);
        assert!(solver.preprocess().eliminated >= 1);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        // Force each variable in turn through blocking clauses; models must
        // keep satisfying the original formula.
        for _ in 0..4 {
            let m = solver.model().unwrap().clone();
            assert!(m.value(v[0]) || m.value(v[1]), "(x0 ∨ x1) violated");
            assert!(!m.value(v[1]) || m.value(v[2]), "(¬x1 ∨ x2) violated");
            let blocking: Vec<Lit> = v.iter().map(|&var| Lit::new(var, m.value(var))).collect();
            solver.add_clause(blocking);
            if solver.solve() == SolveOutcome::Unsat {
                break;
            }
        }
    }

    #[test]
    fn blocking_clause_enumeration_counts_all_models() {
        // Preprocessing must not change the *number* of models over the
        // original variables when enumerating with blocking clauses.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        solver.add_clause([
            Lit::positive(v[0]),
            Lit::positive(v[1]),
            Lit::positive(v[2]),
        ]);
        solver.preprocess();
        let mut count = 0;
        while solver.solve() == SolveOutcome::Sat {
            count += 1;
            assert!(count <= 7, "enumerated too many models");
            let m = solver.model().unwrap().clone();
            let blocking: Vec<Lit> = v.iter().map(|&var| Lit::new(var, m.value(var))).collect();
            solver.add_clause(blocking);
        }
        assert_eq!(count, 7);
    }

    #[test]
    fn preprocess_runs_at_most_once() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        let first = solver.preprocess();
        assert!(first.rounds > 0);
        assert_eq!(solver.preprocess(), PreprocessSummary::default());
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[1])]);
        assert_eq!(solver.preprocess(), PreprocessSummary::default());
        assert_eq!(solver.stats().pp_rounds, first.rounds);
    }

    #[test]
    fn preprocess_after_search_is_a_no_op() {
        // x1 is eliminable: (x0 ∨ x1) ∧ (¬x1 ∨ x2) resolves to (x0 ∨ x2).
        let mut solver = Solver::new();
        let v = vars(&mut solver, 3);
        let mut clauses = vec![
            vec![Lit::positive(v[0]), Lit::positive(v[1])],
            vec![Lit::negative(v[1]), Lit::positive(v[2])],
        ];
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        assert!(solver.preprocess().eliminated >= 1);
        assert!(!solver.is_active_var(v[1]));
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        // A clause over the eliminated variable restores it; preprocessing
        // does not run again.
        clauses.push(vec![Lit::negative(v[1]), Lit::negative(v[0])]);
        solver.add_clause(clauses[2].iter().copied());
        assert!(solver.is_active_var(v[1]));
        let rounds = solver.stats().pp_rounds;
        assert_eq!(solver.preprocess(), PreprocessSummary::default());
        assert_eq!(solver.stats().pp_rounds, rounds);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        let m = solver.model().unwrap();
        for clause in &clauses {
            assert!(
                clause.iter().any(|&l| m.value(l.var()) == l.is_positive()),
                "model violates {clause:?}"
            );
        }
    }

    #[test]
    fn disabled_preprocessing_changes_nothing() {
        // Without a `preprocess` call the solver searches the formula as
        // added.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        assert_eq!(solver.solve(), SolveOutcome::Sat);
        assert!(solver.is_active_var(v[0]) && solver.is_active_var(v[1]));
        assert_eq!(solver.stats().pp_rounds, 0);
        assert_eq!(solver.stats().pp_eliminated, 0);
    }

    #[test]
    fn profile_reports_structure() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 4);
        solver.freeze_var(v[3]);
        solver.add_clause([Lit::positive(v[0]), Lit::positive(v[1])]);
        solver.add_clause([Lit::negative(v[0]), Lit::positive(v[1])]);
        solver.add_clause([
            Lit::positive(v[1]),
            Lit::positive(v[2]),
            Lit::positive(v[3]),
        ]);
        let profile = solver.profile();
        assert_eq!(profile.variables, 4);
        assert_eq!(profile.clauses, 3);
        assert_eq!(profile.binary_clauses, 2);
        assert_eq!(profile.ternary_clauses, 1);
        assert_eq!(profile.literals, 7);
        assert_eq!(profile.frozen_variables, 1);
        // x1, x2, x3 occur only positively.
        assert_eq!(profile.pure_literals, 3);
        assert_eq!(profile.size_histogram, vec![(2, 2), (3, 1)]);
        let rendered = profile.to_string();
        assert!(rendered.contains("clauses: 3"));
    }

    #[test]
    fn preprocessing_agrees_with_brute_force_on_random_cnfs() {
        // Differential test: preprocessing on vs. off must agree on
        // satisfiability, and reconstructed models must satisfy the original
        // clauses. Mirrors the xorshift harness used elsewhere in the crate.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for instance in 0..40 {
            let num_vars = 9;
            let num_clauses = 30 + (next() % 15) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut clause = Vec::new();
                for _ in 0..len {
                    clause.push(((next() % num_vars as u64) as usize, next() % 2 == 0));
                }
                clauses.push(clause);
            }

            let run = |enabled: bool| {
                let mut solver = Solver::new();
                let vs: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
                for clause in &clauses {
                    solver.add_clause(clause.iter().map(|&(v, neg)| Lit::new(vs[v], neg)));
                }
                if enabled {
                    solver.preprocess();
                }
                let outcome = solver.solve();
                let model = solver.model().cloned();
                (outcome, model, vs)
            };
            let (on, on_model, vs) = run(true);
            let (off, _, _) = run(false);
            assert_eq!(on, off, "equisatisfiability violated (instance {instance})");
            if let Some(m) = on_model {
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&(v, neg)| m.value(vs[v]) != neg),
                        "reconstructed model violates original clause (instance {instance})"
                    );
                }
            }
        }
    }

    /// FNV-1a (64-bit) accumulator for [`golden_identity`].
    struct Fnv(u64);

    impl Fnv {
        fn u64(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn lits(&mut self, lits: &[Lit]) {
            self.u64(lits.len() as u64);
            for l in lits {
                self.u64(l.code() as u64);
            }
        }
    }

    /// Hashes everything `preprocess` leaves behind: the summary, the clause
    /// database in slot order (literal order, family, mask), the elimination
    /// stack, per-variable state, stored restoration clauses and the
    /// top-level trail.
    fn digest_state(h: &mut Fnv, solver: &Solver, summary: &PreprocessSummary) {
        for x in [
            summary.rounds,
            summary.fixed,
            summary.equivalences,
            summary.subsumed,
            summary.strengthened,
            summary.eliminated,
            summary.resolvents,
            summary.probes,
            summary.clauses_before,
            summary.clauses_after,
            summary.literals_before,
            summary.literals_after,
            u64::from(summary.unsat),
            u64::from(solver.ok),
        ] {
            h.u64(x);
        }
        h.u64(solver.db.clauses.len() as u64);
        for c in &solver.db.clauses {
            h.u64(u64::from(c.deleted) | u64::from(c.learnt) << 1);
            h.lits(&c.lits);
            h.u64(u64::from(c.family));
            h.u64(u64::from(c.mask));
            h.u64(u64::from(c.lbd));
            h.u64(c.activity.to_bits());
        }
        h.u64(solver.elim_stack.len() as u64);
        for e in &solver.elim_stack {
            h.u64(e.pivot.code() as u64);
            h.lits(&e.clause);
        }
        for v in 0..solver.num_vars() {
            h.u64(match solver.var_state[v] {
                VarState::Active => 0,
                VarState::Substituted => 1,
                VarState::Eliminated => 2,
            });
            h.u64(solver.subst[v].code() as u64);
            h.u64(solver.restore_clauses[v].len() as u64);
            for r in &solver.restore_clauses[v] {
                h.lits(&r.lits);
                h.u64(u64::from(r.family));
                h.u64(u64::from(r.mask));
            }
        }
        h.lits(&solver.assignment.trail);
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A seeded random CNF instance for [`golden_identity`].
    struct Instance {
        num_vars: usize,
        frozen: Vec<usize>,
        /// Clauses before index `split` are tagged with one family, the rest
        /// with another, so provenance masks get merged by the passes.
        split: usize,
        clauses: Vec<Vec<Lit>>,
    }

    /// 100–400 variables; binary, ternary and long random clauses plus
    /// planted structure: supersets of earlier clauses (subsumption), copies
    /// with one literal flipped plus one extra (strengthening), failed-literal
    /// gadgets `a → b, a → c, ¬b ∨ ¬c`, and equivalent pairs. About one
    /// variable in eight is frozen. No unit clauses.
    fn random_instance(seed: u64) -> Instance {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for _ in 0..4 {
            rng.next();
        }
        let num_vars = 100 + rng.below(301);
        let lit = |rng: &mut XorShift, var: usize| {
            Lit::new(Var::from_index(var as u32), rng.next() & 1 == 0)
        };
        let random_clause = |rng: &mut XorShift, len: usize| -> Vec<Lit> {
            let mut vars: Vec<usize> = Vec::with_capacity(len);
            while vars.len() < len {
                let v = rng.below(num_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter().map(|v| lit(rng, v)).collect()
        };
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let binaries = num_vars * (3 + rng.below(6)) / 10;
        let ternaries = num_vars * (5 + rng.below(11)) / 10;
        let longs = num_vars / 10;
        for _ in 0..binaries {
            clauses.push(random_clause(&mut rng, 2));
        }
        for _ in 0..ternaries {
            clauses.push(random_clause(&mut rng, 3));
        }
        for _ in 0..longs {
            let len = 4 + rng.below(5);
            clauses.push(random_clause(&mut rng, len));
        }
        let extend = |rng: &mut XorShift, clause: &mut Vec<Lit>| loop {
            let v = rng.below(num_vars);
            if clause.iter().all(|l| l.var().index() != v) {
                clause.push(lit(rng, v));
                return;
            }
        };
        for _ in 0..num_vars / 15 {
            let mut d = clauses[rng.below(clauses.len())].clone();
            extend(&mut rng, &mut d);
            clauses.push(d);
        }
        for _ in 0..num_vars / 15 {
            let mut d = clauses[rng.below(clauses.len())].clone();
            let at = rng.below(d.len());
            d[at] = d[at].negate();
            extend(&mut rng, &mut d);
            clauses.push(d);
        }
        for _ in 0..3 {
            let abc = random_clause(&mut rng, 3);
            let (a, b, c) = (abc[0], abc[1], abc[2]);
            clauses.push(vec![a.negate(), b]);
            clauses.push(vec![a.negate(), c]);
            clauses.push(vec![b.negate(), c.negate()]);
        }
        for _ in 0..2 {
            let ab = random_clause(&mut rng, 2);
            clauses.push(vec![ab[0].negate(), ab[1]]);
            clauses.push(vec![ab[1].negate(), ab[0]]);
        }
        // Interleave the planted clauses with the random ones.
        for i in (1..clauses.len()).rev() {
            let j = rng.below(i + 1);
            clauses.swap(i, j);
        }
        let frozen = (0..num_vars).filter(|_| rng.below(8) == 0).collect();
        let split = clauses.len() / 2;
        Instance {
            num_vars,
            frozen,
            split,
            clauses,
        }
    }

    fn load_instance(inst: &Instance) -> Solver {
        let mut solver = Solver::new();
        let vs = vars(&mut solver, inst.num_vars);
        for &v in &inst.frozen {
            solver.freeze_var(vs[v]);
        }
        let first = solver.intern_family("first");
        let second = solver.intern_family("second");
        for (i, clause) in inst.clauses.iter().enumerate() {
            solver.set_emit_family(if i < inst.split { first } else { second });
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Digests, per instance, recorded from the configurable pipeline that
    /// the one fixed pass replaced; the replacement reproduces each one. Any
    /// change in what the simplifier outputs (clause order, literal order,
    /// provenance, elimination stack, fixed literals, summary) or in the
    /// search and restoration that follow it changes a digest.
    const GOLDEN: &[(&str, u64)] = &[
        ("golden_sat", 0x895e434c1fcec5b2),
        ("php_4_3", 0x9881ae9780b2b882),
        ("random_1", 0xcd2aa9f90f8aae31),
        ("random_2", 0xbd6acfcb20f863eb),
        ("random_3", 0xc65511a1915913bd),
        ("random_4", 0xf251d979121b863a),
        ("random_5", 0x237a592265e5c074),
        ("random_6", 0x38c363dcb516a7b7),
        ("random_7", 0x8963a553863ebec6),
        ("random_8", 0x25b8ca0fc78d8d98),
        ("random_9", 0x9a8e599e45af1d25),
        ("random_10", 0xaccb60f3ef864246),
        ("random_11", 0xbad1f3b87801363b),
        ("random_12", 0xc9692f5ad3227441),
        ("random_13", 0x06a6c68b82bbc5de),
        ("random_14", 0x5f5ed4f0a56fa061),
        ("random_15", 0x404f9d1a78a65cef),
        ("random_16", 0x76abca9ad1deb00f),
        ("random_17", 0xa089369dc974f9e2),
        ("random_18", 0xc2988012f2fb76d4),
        ("random_19", 0x8657d1460d0ee3d5),
        ("random_20", 0xc7366dacdeb40687),
        ("cegar_100", 0x427b48513899f65b),
    ];

    #[test]
    fn golden_identity() {
        PATHS.with(|paths| paths.set(PathCounts::default()));
        let mut actual: Vec<(String, u64)> = Vec::new();
        let mut probes = 0;
        let mut strengthened = 0;
        let mut subsumed = 0;
        let mut eliminated = 0;
        let mut equivalences = 0;
        let mut restored = 0;

        for (name, text) in [
            (
                "golden_sat",
                include_str!("../tests/fixtures/golden_sat.cnf"),
            ),
            ("php_4_3", include_str!("../tests/fixtures/php_4_3.cnf")),
        ] {
            let (num_vars, clauses) = crate::parse_dimacs(text).expect("fixture parses");
            let inst = Instance {
                num_vars,
                frozen: Vec::new(),
                split: clauses.len() / 2,
                clauses,
            };
            let mut solver = load_instance(&inst);
            let summary = solver.preprocess();
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            digest_state(&mut h, &solver, &summary);
            actual.push((name.to_string(), h.0));
        }

        for seed in 1..=20u64 {
            let inst = random_instance(seed);
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            let mut solver = load_instance(&inst);
            let summary = solver.preprocess();
            digest_state(&mut h, &solver, &summary);
            probes += summary.probes;
            strengthened += summary.strengthened;
            subsumed += summary.subsumed;
            eliminated += summary.eliminated;
            equivalences += summary.equivalences;
            actual.push((format!("random_{seed}"), h.0));
        }

        // The CEGAR pattern: preprocess once, then solve and block the model
        // three times (the blocking clauses mention eliminated variables and
        // restore them).
        let inst = random_instance(100);
        let mut solver = load_instance(&inst);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let summary = solver.preprocess();
        digest_state(&mut h, &solver, &summary);
        for _ in 0..3 {
            let outcome = solver.solve();
            h.u64(outcome as u64);
            let Some(model) = solver.model().cloned() else {
                break;
            };
            let blocking: Vec<Lit> = (0..40)
                .map(|v| {
                    let var = Var::from_index(v);
                    Lit::new(var, model.value(var))
                })
                .collect();
            solver.add_clause(blocking);
            digest_state(&mut h, &solver, &PreprocessSummary::default());
        }
        restored += solver.stats().pp_restored;
        actual.push(("cegar_100".to_string(), h.0));

        let table: String = actual
            .iter()
            .map(|(name, digest)| format!("        (\"{name}\", {digest:#018x}),\n"))
            .collect();
        let expected: Vec<(String, u64)> = GOLDEN
            .iter()
            .map(|&(name, digest)| (name.to_string(), digest))
            .collect();
        assert_eq!(
            actual, expected,
            "simplifier output changed; digests now:\n{table}"
        );

        assert!(probes > 0, "no instance probed a literal");
        assert!(strengthened > 0, "no instance strengthened a clause");
        assert!(subsumed > 0, "no instance subsumed a clause");
        assert!(eliminated > 0, "no instance eliminated a variable");
        assert!(equivalences > 0, "no instance substituted an equivalence");
        assert!(restored > 0, "the CEGAR instance restored no variable");
        let paths = PATHS.with(std::cell::Cell::get);
        assert!(paths.bve_gave_up > 0, "BVE never gave up after counting");
        assert!(
            paths.bve_taut_elims > 0,
            "BVE eliminated no variable with a tautological resolvent"
        );
        assert!(
            paths.max_failed_per_probe_pass >= 2,
            "no probing pass probed over repaired watches"
        );
    }

    /// The BVE loop before the count step: build, sort and dedup every
    /// resolvent, and stop once more than `bound` are non-tautological.
    /// Returns the non-tautological count and the pairs visited.
    fn reference_count(
        clauses: &[Option<Vec<Lit>>],
        pos_list: &[usize],
        neg_list: &[usize],
        pos: Lit,
        bound: usize,
    ) -> (usize, u64) {
        let neg = pos.negate();
        let (mut count, mut pairs) = (0, 0);
        for &pi in pos_list {
            for &ni in neg_list {
                pairs += 1;
                let p_lits = clauses[pi].as_ref().unwrap();
                let n_lits = clauses[ni].as_ref().unwrap();
                let mut res: Vec<Lit> = p_lits.iter().copied().filter(|&l| l != pos).collect();
                res.extend(n_lits.iter().copied().filter(|&l| l != neg));
                res.sort_unstable();
                res.dedup();
                if res.windows(2).any(|w| w[0] == w[1].negate()) {
                    continue;
                }
                count += 1;
                if count > bound {
                    return (count, pairs);
                }
            }
        }
        (count, pairs)
    }

    /// Clause sides for [`count_step_matches_reference`]: 1–10 clauses (the
    /// default occurrence limit) of 0–4 random literals over 5 variables,
    /// to which the pivot literal is added. Variable 0 is the pivot, so a
    /// side may also hold the pivot's complement, and random literals may
    /// repeat or clash within a clause.
    fn side() -> impl proptest::strategy::Strategy<Value = Vec<Vec<(u32, bool)>>> {
        use proptest::prelude::*;
        prop::collection::vec(prop::collection::vec((0u32..5, any::<bool>()), 0..5), 1..11)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// The count step decides and counts exactly as building every
        /// resolvent did, over shared literals, tautological pairs and full
        /// occurrence lists, at the BVE bound and at a random one.
        #[test]
        fn count_step_matches_reference(
            positive in side(),
            negative in side(),
            slack in 0usize..40,
        ) {
            let pos = Lit::positive(Var::from_index(0));
            let lit = |&(v, negated): &(u32, bool)| Lit::new(Var::from_index(v), negated);
            let mut clauses: Vec<Option<Vec<Lit>>> = Vec::new();
            let mut add_side = |side: &[Vec<(u32, bool)>], pivot: Lit| -> Vec<usize> {
                side.iter()
                    .map(|random| {
                        let mut lits: Vec<Lit> = random.iter().map(lit).collect();
                        lits.insert(lits.len() / 2, pivot);
                        clauses.push(Some(lits));
                        clauses.len() - 1
                    })
                    .collect()
            };
            let pos_list = add_side(&positive, pos);
            let neg_list = add_side(&negative, pos.negate());
            let mut counter = ResolventCounter::new(5);
            for bound in [pos_list.len() + neg_list.len(), slack] {
                let before = counter.pairs;
                let count = counter.count(&clauses, &pos_list, &neg_list, pos, bound);
                let (expected, pairs) = reference_count(&clauses, &pos_list, &neg_list, pos, bound);
                proptest::prop_assert_eq!(count, expected, "bound {}", bound);
                proptest::prop_assert_eq!(counter.pairs - before, pairs);
            }
        }
    }

    #[test]
    fn summary_display_mentions_counts() {
        let summary = PreprocessSummary {
            rounds: 2,
            fixed: 3,
            eliminated: 4,
            ..PreprocessSummary::default()
        };
        let s = summary.to_string();
        assert!(s.contains("rounds=2"));
        assert!(s.contains("fixed=3"));
        assert!(s.contains("eliminated=4"));
    }
}
