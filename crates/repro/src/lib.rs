//! Umbrella crate for the IsoPredict reproduction workspace.
//!
//! This crate exists to host the workspace-level examples (`examples/`) and
//! the cross-crate integration tests (`tests/`). The actual functionality
//! lives in:
//!
//! * [`isopredict`] — the predictive analysis and validation pipeline (the
//!   paper's contribution),
//! * [`isopredict_history`] — the execution-history formalism,
//! * [`isopredict_store`] — the MonkeyDB-substitute transactional KV store,
//! * [`isopredict_workloads`] — the OLTP-Bench-style client applications,
//! * [`isopredict_smt`] / [`isopredict_sat`] — the constraint-solving substrate,
//! * [`isopredict_orchestrator`] — history sharding and parallel analysis
//!   campaigns over the benchmark matrix.
//!
//! # Example
//!
//! ```
//! use isopredict_repro::prelude::*;
//!
//! let config = WorkloadConfig::small(0);
//! let observed = isopredict_workloads::run(
//!     Benchmark::Smallbank,
//!     &config,
//!     StoreMode::SerializableRecord,
//!     &Schedule::RoundRobin,
//! );
//! assert!(observed.history.len() > 1);
//!
//! let predictor = Predictor::new(PredictorConfig {
//!     strategy: Strategy::ApproxRelaxed,
//!     isolation: IsolationLevel::ReadCommitted,
//!     ..PredictorConfig::default()
//! });
//! let outcome = predictor.predict(&observed.history, &Obs::off());
//! assert!(outcome.is_prediction() || outcome.is_no_prediction() || outcome.is_unknown());
//! ```

pub use isopredict;
pub use isopredict_history;
pub use isopredict_orchestrator;
pub use isopredict_sat;
pub use isopredict_smt;
pub use isopredict_store;
pub use isopredict_workloads;

/// Convenience re-exports used by the examples and integration tests.
pub mod prelude {
    pub use isopredict::{
        IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
        ValidationOutcome, ValidationPlan,
    };
    pub use isopredict_history::{History, HistoryBuilder, SessionId, TxnId};
    pub use isopredict_orchestrator::{
        Campaign, CampaignOptions, CampaignReport, ShardPlan, ShardPolicy, WorkerPool,
    };
    pub use isopredict_store::{Engine, StoreMode, Value};
    pub use isopredict_workloads::{Benchmark, RunOutput, Schedule, WorkloadConfig};
}
