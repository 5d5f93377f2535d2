//! The paper's evaluation: table aggregation and the binaries that
//! regenerate the tables. Every record → predict → validate run goes through
//! the orchestrator's [`isopredict_orchestrator::Campaign`] with the
//! whole-history shard policy; this crate only shapes its report into rows.
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
//! Performance is measured by `perfbench/` at the repository root, not here.

#![deny(missing_docs)]

pub mod cli;
pub mod tables;
