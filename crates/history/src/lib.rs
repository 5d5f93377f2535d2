//! Execution histories of weakly isolated transactional data stores.
//!
//! This crate implements the formalism of Section 2 of the IsoPredict paper
//! (closely based on Biswas and Enea's axiomatic framework):
//!
//! * a [`History`] is `⟨T, so, wr⟩` — a set of committed transactions, the
//!   per-session order `so`, and the write–read relation `wr` recording which
//!   transaction's write each read observes (the special transaction `t0`
//!   represents the initial state);
//! * derived relations: happens-before `hb = (so ∪ wr)+`, the serializability
//!   arbitration order `ww`, the causal arbitration order `ww_causal`, the
//!   read-committed arbitration order `ww_rc`, and anti-dependencies `rw`
//!   (see [`relations`]);
//! * deciders for the isolation levels: [`serializability`] and [`si`]
//!   (via SAT encodings of the commit-order axioms, since both problems are
//!   NP-hard), [`causal`] and [`readcommitted`] (polynomial acyclicity
//!   checks) — bundled per level behind the [`isolation`] seam so that every
//!   other layer dispatches through [`IsolationLevel::semantics`];
//! * a serde-friendly [`trace`] format for recorded executions and a
//!   [`dot`] renderer for the paper-style history graphs.
//!
//! # Example
//!
//! The deposit example of Figure 1b/3a — both transactions read the initial
//! balance — is causally consistent but unserializable:
//!
//! ```
//! use isopredict_history::{HistoryBuilder, TxnId};
//!
//! let mut builder = HistoryBuilder::new();
//! let s1 = builder.session("client-1");
//! let s2 = builder.session("client-2");
//! let t1 = builder.begin(s1);
//! builder.read(t1, "acct", TxnId::INITIAL);
//! builder.write(t1, "acct");
//! builder.commit(t1);
//! let t2 = builder.begin(s2);
//! builder.read(t2, "acct", TxnId::INITIAL);
//! builder.write(t2, "acct");
//! builder.commit(t2);
//! let history = builder.finish();
//!
//! assert!(isopredict_history::causal::is_causal(&history));
//! assert!(!isopredict_history::serializability::check(&history).is_serializable());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod causal;
pub mod connectivity;
pub mod dot;
pub mod graph;
pub mod isolation;
pub mod readcommitted;
pub mod relations;
pub mod serializability;
pub mod si;
pub mod trace;

mod builder;
mod event;
mod history;
mod ids;

pub use builder::HistoryBuilder;
pub use connectivity::{KeyComponents, UnionFind};
pub use event::{Event, EventKind};
pub use history::{History, Transaction};
pub use ids::{KeyId, SessionId, TxnId};
pub use isolation::{IsolationLevel, IsolationSemantics, ParseIsolationLevelError};
pub use serializability::SerializabilityResult;
pub use trace::{OpTrace, SessionTrace, Trace, TraceError, TraceMeta, TxnTrace};

/// A key of the data store, by name. Keys are interned to [`KeyId`]s inside a
/// [`History`]; this alias documents intent at API boundaries that take names.
pub type KeyName = str;
