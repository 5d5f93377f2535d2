//! On-disk trace corpus: content-addressed persistence, exact-match indexing,
//! and external trace ingestion.
//!
//! IsoPredict's pipeline is observe → predict → validate. The predictor is
//! defined over an abstract execution history, not over this workspace's
//! recorder — so recorded traces are first-class artifacts worth persisting
//! and re-analyzing, and histories produced by *other* systems are just as
//! analyzable, the same separation CLOTHO draws between test generation and
//! replay artifacts. This crate provides that persistence layer:
//!
//! * **Canonical content addressing** — traces serialize to canonical JSON
//!   ([`isopredict_history::Trace::to_canonical_json`]) and are addressed by
//!   the SHA-256 of those bytes ([`hash`]), with collisions *detected* (byte
//!   comparison on store) rather than assumed away.
//! * **Exact-match indexing** — a manifest maps
//!   `(benchmark, workload config, seed, isolation, store version)` keys
//!   ([`CorpusKey`]) to object hashes, so a campaign can ask "has this exact
//!   cell been recorded by this exact recorder?" and skip its record phase on
//!   a hit.
//! * **Ingestion** — [`Corpus::import`] accepts external trace JSON,
//!   normalizes it, and rejects malformed histories (dangling reads,
//!   non-contiguous session order, unknown ops, self-reads) with errors that
//!   name the defect ([`import`]).
//! * **Maintenance** — [`Corpus::verify`] re-hashes and re-validates every
//!   indexed object; [`Corpus::gc`] removes unreferenced objects. The `trace`
//!   binary exposes all of it on the command line
//!   (`record`/`ls`/`show`/`import`/`verify`/`gc`).
//!
//! # Example
//!
//! ```
//! use isopredict_corpus::{Corpus, CorpusKey, testutil::scratch_dir};
//! use isopredict_store::StoreMode;
//! use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};
//!
//! let dir = scratch_dir("doc");
//! let corpus = Corpus::open(dir.path()).unwrap();
//!
//! // Record once, persist…
//! let config = WorkloadConfig::small(0);
//! let output = run(
//!     Benchmark::Smallbank,
//!     &config,
//!     StoreMode::SerializableRecord,
//!     &Schedule::RoundRobin,
//! );
//! let receipt = corpus.store(&output.trace(), 0).unwrap();
//!
//! // …and later runs load instead of re-recording.
//! let (entry, loaded) = corpus.load_observed("Smallbank", &config).unwrap().unwrap();
//! assert_eq!(entry.hash, receipt.hash);
//! assert_eq!(loaded.history.len(), output.trace().to_history().unwrap().len());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod corpus;
pub mod hash;
pub mod import;
pub mod testutil;

pub use corpus::{
    Corpus, CorpusError, CorpusKey, GcReport, LoadedTrace, ManifestEntry, StoreReceipt,
    VerifyReport,
};
pub use import::{normalize, ImportError};
