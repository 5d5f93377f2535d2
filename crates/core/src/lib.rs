//! IsoPredict: dynamic predictive analysis for detecting unserializable
//! behaviors in weakly isolated data store applications.
//!
//! This crate is a from-scratch Rust implementation of the analysis described
//! in *IsoPredict: Dynamic Predictive Analysis for Detecting Unserializable
//! Behaviors in Weakly Isolated Data Store Applications* (PLDI 2024). Given an
//! **observed, serializable** execution history of a transactional data store
//! application, it searches for an **alternative execution of the same
//! application** that is
//!
//! 1. *feasible* — a prefix of an execution the application could really
//!    produce (Section 4.1 / 4.5 of the paper: reads before the per-session
//!    prediction boundary keep their observed writers),
//! 2. *unserializable* (Section 4.2), and
//! 3. valid under a target **weak isolation level** (Section 4.3) — causal
//!    consistency, read committed, or snapshot isolation, each a row of the
//!    pluggable isolation seam ([`isopredict_history::isolation`] for the
//!    checker/chooser half, this crate's encoder axiom table for the SMT
//!    half).
//!
//! The search is expressed as constraints over writer-choice variables and
//! solved with the workspace's own SMT substrate (`isopredict-smt`). Predicted
//! executions can then be **validated** by replaying the application against a
//! store that steers each read toward the predicted writer (Section 5), using
//! [`validate`].
//!
//! # Quick start
//!
//! ```
//! use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
//! use isopredict_history::{HistoryBuilder, TxnId};
//!
//! // The observed execution of Figure 1a: the second deposit reads the first.
//! let mut builder = HistoryBuilder::new();
//! let s1 = builder.session("client-1");
//! let s2 = builder.session("client-2");
//! let t1 = builder.begin(s1);
//! builder.read(t1, "acct", TxnId::INITIAL);
//! builder.write(t1, "acct");
//! builder.commit(t1);
//! let t2 = builder.begin(s2);
//! builder.read(t2, "acct", t1);
//! builder.write(t2, "acct");
//! builder.commit(t2);
//! let observed = builder.finish();
//!
//! // Predict a causally consistent but unserializable execution (Figure 1b).
//! let predictor = Predictor::new(PredictorConfig {
//!     strategy: Strategy::ApproxRelaxed,
//!     isolation: IsolationLevel::Causal,
//!     ..PredictorConfig::default()
//! });
//! let outcome = predictor.predict(&observed, &Obs::off());
//! let prediction = outcome.prediction().expect("a prediction exists");
//! assert!(!isopredict_history::serializability::check(&prediction.predicted).is_serializable());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod encode;
pub mod report;
pub mod validate;

mod config;
mod predict;
mod prediction;

pub use config::{BoundaryKind, PredictorConfig, Strategy};
pub use isopredict_obs::Obs;
pub use isopredict_store::IsolationLevel;
pub use predict::{NoPredictionReason, PredictionOutcome, Predictor};
pub use prediction::{ChangedRead, Prediction};
pub use validate::{ValidationOutcome, ValidationPlan};
