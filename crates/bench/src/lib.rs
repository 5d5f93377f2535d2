//! The experiment harness: end-to-end record → predict → validate pipelines
//! and the aggregation logic behind the paper's tables.
//!
//! The binaries in `src/bin/` regenerate the paper's tables:
//!
//! * `table3` — workload characteristics (Table 3),
//! * `table4_5` — prediction effectiveness and performance under causal
//!   consistency and read committed (Tables 4 and 5),
//! * `table6_7` — the comparison with MonkeyDB-style random exploration and
//!   with a "regular execution" read-committed baseline (Tables 6 and 7),
//! * `figures` — Graphviz renderings of observed/predicted execution pairs
//!   (Figures 7, 8 and 10).
//!
//! The Criterion benches in `benches/` cover the solver substrate, encoding
//! sizes, prediction latency and the serializability checker.

#![deny(missing_docs)]

pub mod cli;
pub mod tables;

pub use isopredict_orchestrator::harness;
pub use isopredict_orchestrator::harness::{run_experiment, ExperimentOutcome, ExperimentResult};
