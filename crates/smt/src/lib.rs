//! A small SMT layer tailored to IsoPredict's constraint language.
//!
//! The IsoPredict paper generates constraints over three kinds of symbols:
//!
//! * **Boolean relation variables** such as `φ_so(t1, t2)`, `φ_wr(t1, t2)`,
//!   `φ_hb(t1, t2)`, `φ_ww(t1, t2)` — plain propositional atoms;
//! * **finite-domain functions** such as `φ_choice(s, i)` (which writer
//!   transaction a read reads from) and `φ_boundary(s)` (the prediction
//!   boundary position of a session) — each application ranges over a known
//!   finite set of values;
//! * **integer-valued symbols** such as `φ_co(t)` and `rank(t1, t2)` that only
//!   ever appear in *strict comparisons* `x < y`.
//!
//! All three are decidable with a propositional CDCL core plus a
//! *strict-order theory* whose only job is to keep the set of asserted `x < y`
//! atoms acyclic. This crate provides exactly that: hash-consed formulas
//! ([`SmtSolver`] term builders), Tseitin conversion to CNF, one-hot encoded
//! finite-domain variables ([`FdVar`]), and order atoms over [`OrderNode`]s
//! backed by an incremental cycle-detection theory.
//!
//! # Terms and literals
//!
//! Terms live in one arena and are hash-consed: each term is stored once,
//! and an open-addressing table of term ids, probed with the Fx hash
//! ([`FxHasher`]), finds the stored copy when the same term is built again.
//! A term's SAT literal sits in a dense vector indexed by its [`TermId`], so
//! looking it up hashes nothing. Tseitin conversion reads a conjunction's or
//! disjunction's children in place and builds its definition clauses from
//! one buffer of child literals.
//!
//! # The order theory
//!
//! Each true `x < y` atom is an edge `x → y` of a graph the theory keeps
//! acyclic. Asserting an atom whose reverse path `y ⇝ x` exists is a
//! conflict; the clause is the negation of the new atom and of the atoms
//! along the path a depth-first search finds. Two invariants keep this cheap
//! without changing any answer:
//!
//! * **Topological order.** The theory maintains a topological order of the
//!   asserted edges (Pearce & Kelly's dynamic topological sort). An edge
//!   that agrees with the order cannot close a cycle and needs no search;
//!   one that disagrees is searched for and, if acyclic, the order is
//!   repaired over the affected region only. Backtracking removes edges,
//!   which never invalidates the order.
//! * **Path-preserving pruning.** The search for `y ⇝ x` skips nodes ordered
//!   after `x`, which cannot reach `x`. Skipping them leaves the path the
//!   search returns — and therefore the conflict clause, and the whole CDCL
//!   search after it — exactly as without pruning.
//!
//! The searches reuse theory-owned buffers, so the hot path allocates only
//! the conflict clauses it returns. [`TheoryStats`] counts the work, under
//! the names [`SmtSolver::work_counters`] reports.
//!
//! # Polarity restriction on order atoms
//!
//! The theory ignores *negated* order atoms (`¬(x < y)` places no constraint).
//! This is sound and complete as long as order atoms appear with **positive
//! polarity** in asserted formulas, which is the case for every constraint the
//! paper generates (`… ⇒ co(t1) < co(t2)` and the `ww`/`rw`/`pco`
//! justifications). [`SmtSolver::assert_term`] enforces the restriction and
//! panics on misuse.
//!
//! # Example
//!
//! ```
//! use isopredict_smt::{SmtResult, SmtSolver};
//!
//! let mut smt = SmtSolver::new();
//! let a = smt.bool_var();
//! let b = smt.bool_var();
//! let or = smt.or([a, b]);
//! let not_a = smt.not(a);
//! smt.assert_term(or);
//! smt.assert_term(not_a);
//! assert_eq!(smt.check(), SmtResult::Sat);
//! assert_eq!(smt.model_bool(b), Some(true));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod fd;
mod fx;
mod order;
mod solver;
mod stats;
mod term;
mod tseitin;

pub use fd::FdVar;
pub use fx::{FxBuildHasher, FxHasher};
pub use isopredict_sat::{
    busiest_family, FamilyAttribution, Heartbeat, HeartbeatHook, SolverPostmortem, SolverStats,
};
pub use order::OrderNode;
pub use solver::{SmtResult, SmtSolver};
pub use stats::{EncodingStats, TheoryStats};
pub use term::{Term, TermId};
