//! A conflict-driven clause-learning (CDCL) SAT solver with theory hooks.
//!
//! This crate is the lowest layer of the IsoPredict reproduction's
//! constraint-solving substrate. The paper uses Z3; because the native Z3
//! bindings cannot be built in this environment, the reproduction ships its
//! own solver. The constraints IsoPredict generates are propositional plus a
//! strict-order ("acyclicity") theory, so a CDCL core with a [`Theory`]
//! callback interface is sufficient (see the `isopredict-smt` crate for the
//! formula layer and theory implementation).
//!
//! # Features
//!
//! * Two-watched-literal unit propagation.
//! * First-UIP conflict analysis with recursive clause minimization.
//! * VSIDS-style variable activity with phase saving.
//! * Luby-sequence restarts.
//! * Learnt-clause database reduction driven by LBD (glue) scores.
//! * A [`Theory`] trait for DPLL(T)-style integration: the theory is told
//!   about assignments to its atoms as they happen and may report conflict
//!   clauses that the solver then learns from.
//!
//! # Example
//!
//! ```
//! use isopredict_sat::{Lit, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a)]);
//! let outcome = solver.solve();
//! assert!(outcome.is_sat());
//! let model = solver.model().expect("sat outcome has a model");
//! assert!(model.value(b));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod analyze;
mod assignment;
mod clause;
mod dimacs;
mod flight;
mod heap;
mod literal;
mod model;
mod preprocess;
mod propagate;
mod reduce;
mod solver;
mod stats;
mod theory;

pub use assignment::LBool;
pub use clause::{Clause, ClauseRef};
pub use dimacs::{parse_dimacs, solver_from_dimacs, write_dimacs, DimacsError};
pub use flight::{
    FamilyAttribution, Heartbeat, SolverPostmortem, FAMILY_DEFAULT, FAMILY_LEARNED, FAMILY_THEORY,
};
pub use literal::{Lit, Var};
pub use model::Model;
pub use preprocess::{FormulaProfile, PreprocessConfig, PreprocessSummary};
pub use solver::{HeartbeatHook, SolveOutcome, Solver, SolverConfig};
pub use stats::SolverStats;
pub use theory::{NullTheory, Theory, TheoryResult};
