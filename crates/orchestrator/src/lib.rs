//! Parallel prediction orchestrator: key-disjoint history sharding and
//! multi-threaded analysis campaigns.
//!
//! The core predictor ([`isopredict::Predictor`]) analyzes one observed
//! history with one solver invocation. This crate turns that single-shot
//! analysis into a batch engine with three layers:
//!
//! 1. **History sharding** ([`shard`]): an observed history decomposes into
//!    *communication components* — transactions that transitively share no
//!    key and no session can be analyzed independently, because every
//!    relation the analysis constrains (`so`, `wr`, arbitration orders,
//!    anti-dependencies, and hence every unserializability witness cycle)
//!    stays inside a component. Each component is a **shard**; per-shard
//!    verdicts merge losslessly back into a whole-history verdict
//!    ([`merge`]). When one component dominates the history the sharder
//!    falls back to whole-history analysis, since splitting buys nothing.
//! 2. **A campaign runner** ([`campaign`], [`worker`]): a declarative
//!    [`Campaign`] names a benchmarks × seeds × strategies × isolation
//!    levels matrix; the runner expands it — after recording, per shard —
//!    into tasks executed by a self-scheduling `std::thread::scope` worker
//!    pool. Idle workers steal the next task from a shared queue, so uneven
//!    solver times balance automatically, and results are written back by
//!    task index so reports are **byte-identical regardless of worker
//!    count**.
//! 3. **Aggregated reporting** ([`report`]): a serde-serializable
//!    [`CampaignReport`] rolls up per-task outcomes, encoding statistics,
//!    per-phase timing and the parallel speedup estimate.
//!
//! The end-to-end record → predict → validate pipeline for one experiment
//! lives in [`harness`] (re-exported by `isopredict-bench` for the paper's
//! table binaries).
//!
//! # Example
//!
//! ```
//! use isopredict_orchestrator::{Campaign, CampaignOptions};
//! use isopredict::{IsolationLevel, Strategy};
//! use isopredict_workloads::Benchmark;
//!
//! let report = Campaign::new()
//!     .benchmarks([Benchmark::Smallbank])
//!     .seeds(0..2)
//!     .strategies([Strategy::ApproxRelaxed])
//!     .isolations([IsolationLevel::ReadCommitted])
//!     .txns_per_session(2)
//!     .run(&CampaignOptions { workers: 2, ..CampaignOptions::default() });
//! assert_eq!(report.tasks.len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "the orchestrator owns the non-deterministic report half (phase timings, \
              worker-pool sizing); `merge`, `shard` and `report` compute the deterministic \
              half and turn the check back on"
)]

pub mod campaign;
pub mod harness;
pub mod merge;
pub mod report;
pub mod shard;
pub mod worker;

pub use campaign::{Campaign, CampaignOptions};
pub use harness::{record_observed, run_experiment, ExperimentOutcome, ExperimentResult};
pub use merge::{embed, merge_outcomes, MergedOutcome};
pub use report::{
    CampaignReport, CampaignSummary, CampaignTiming, HeartbeatRecord, PostmortemRecord,
    ProvenanceRecord, TaskRecord,
};
pub use shard::{ShardPlan, ShardPolicy, ShardUnit};
pub use worker::WorkerPool;
