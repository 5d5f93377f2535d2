//! An in-memory, multi-version, transactional key–value store in the mold of
//! MonkeyDB, used as the substrate for recording observed executions,
//! producing randomly-weak executions, and replaying predicted executions.
//!
//! The paper's implementation extends MonkeyDB [Biswas et al., OOPSLA 2021];
//! this crate rebuilds the pieces IsoPredict needs:
//!
//! * **Recording** ([`StoreMode::SerializableRecord`]): transactions execute
//!   one at a time and every read returns the latest committed write, so the
//!   observed execution is serializable — exactly how the paper generates its
//!   input traces.
//! * **Weak random execution** ([`StoreMode::WeakRandom`]): every read picks a
//!   *random* writer among those that keep the execution valid under the
//!   target isolation level (causal or read committed). This reproduces
//!   MonkeyDB's behaviour for the Table 6/7 comparison.
//! * **Realistic read committed** ([`StoreMode::RealisticRc`]): reads return
//!   the latest committed value, modelling what a single-node MySQL instance
//!   in `READ COMMITTED` mode actually does (the paper's "regular execution"
//!   baseline).
//! * **Controlled replay** ([`StoreMode::Controlled`]): reads follow a
//!   *predicted* execution history whenever possible and record divergence
//!   when they cannot — the validation query engine of Section 5.
//!
//! Every execution is recorded as an [`isopredict_history::History`] that the
//! analysis layers consume.
//!
//! # Example
//!
//! ```
//! use isopredict_store::{Engine, StoreMode, Value};
//!
//! let engine = Engine::new(StoreMode::SerializableRecord);
//! let client = engine.client("client-1");
//! let mut txn = client.begin();
//! assert_eq!(txn.get("balance"), None);
//! txn.put("balance", Value::Int(100));
//! txn.commit();
//!
//! let history = engine.history();
//! assert_eq!(history.len(), 2); // t0 plus the deposit
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod chooser;
mod engine;
mod error;
mod isolation;
mod replay;
mod value;
mod version;

pub use engine::{Client, Engine, OpenTxn, RunStats};
pub use error::StoreError;
pub use isolation::{IsolationLevel, StoreMode};
pub use replay::{Divergence, DivergenceKind, ReplayScript};
pub use value::Value;

/// This store crate's version, stamped into recorded trace provenance so a
/// corpus can tell traces of one recorder apart from another's (the corpus
/// index key includes it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
