//! OLTP-Bench-style transactional workloads ported to the key–value store.
//!
//! The paper evaluates IsoPredict on four OLTP-Bench programs — Smallbank,
//! Voter, TPC-C and Wikipedia — using the simplified ports that the MonkeyDB
//! authors prepared, made deterministic by fixing the number of sessions and
//! transactions per session and by seeding the random number generator
//! (Section 7.1). This crate re-implements those workloads directly against
//! the key–value interface (the level at which the formal model and the
//! analysis operate):
//!
//! * [`smallbank`] — checking/savings accounts with deposits, withdrawals and
//!   transfers;
//! * [`voter`] — the vote-once benchmark of Algorithm 3;
//! * [`tpcc`] — a reduced TPC-C with new-order, payment, delivery,
//!   order-status and stock-level transactions;
//! * [`wikipedia`] — mostly-read page/revision traffic with occasional edits.
//!
//! Beyond the paper's four programs, [`overdraft`] adds the canonical
//! write-skew scenario (sum-guarded withdrawals over per-customer account
//! pairs) that separates snapshot isolation from serializability.
//!
//! Every workload is deterministic given a [`WorkloadConfig`] (sessions,
//! transactions per session, RNG seed, scale) and exposes MonkeyDB-style
//! assertions over the final state so that the Table 6/7 comparison can be
//! reproduced.
//!
//! # Example
//!
//! ```
//! use isopredict_store::StoreMode;
//! use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};
//!
//! let config = WorkloadConfig::small(0);
//! let output = run(
//!     Benchmark::Smallbank,
//!     &config,
//!     StoreMode::SerializableRecord,
//!     &Schedule::RoundRobin,
//! );
//! assert!(output.violations.is_empty(), "serializable runs never fail assertions");
//! assert!(output.history.len() > 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod assertions;
pub mod overdraft;
pub mod smallbank;
pub mod stats;
pub mod tpcc;
pub mod voter;
pub mod wikipedia;

mod config;
mod runner;
mod spec;

pub use assertions::AssertionViolation;
pub use config::{ParseWorkloadSizeError, WorkloadConfig, WorkloadSize};
pub use runner::{record_observed, run, RunOutput, Schedule};
pub use spec::{Benchmark, ParseBenchmarkError, PlannedTxn, TxnResult};
pub use stats::WorkloadCharacteristics;
