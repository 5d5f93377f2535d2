//! Observability substrate for the IsoPredict pipeline.
//!
//! Every open performance question in the workspace — solver-bound campaigns,
//! budget-exhausted `unknown`s, expensive SI unsat proofs — needs the same
//! instrument: a way to say *which phase, which shard, and which solve call*
//! the time went to. This crate is that instrument, and it is deliberately
//! dependency-light (vendored workspace deps only) so every layer from the
//! SAT core's callers up to the CLIs can afford it.
//!
//! # Model
//!
//! * A [`Registry`] owns the run's telemetry: finished [`SpanRecord`]s,
//!   monotonic counters, and an optional **JSONL event sink** that
//!   streams every span and counter update as one JSON object per line.
//! * An [`Obs`] is a cheap, cloneable handle *into* a registry, carrying the
//!   current span context. The disabled handle ([`Obs::off`]) records
//!   nothing, so instrumented code pays one branch per counter when
//!   observability is off — the product code never needs `#[cfg]`s or
//!   `Option<&Registry>` plumbing.
//! * [`Obs::span`] opens a hierarchical timer; the returned [`Span`] closes
//!   it on drop (or explicit [`Span::finish`]) and hands out child contexts
//!   via [`Span::obs`]. Spans are the pipeline's only clock: a span reads
//!   its start time even from the disabled handle, and [`Span::finish`]
//!   returns the duration, so the phase times a report stores are the ones
//!   its telemetry records. Span *names* form stable taxonomy paths
//!   (`campaign/predict/shard-0/solve`); run-dependent detail (benchmark,
//!   seed, outcome, …) goes into labels.
//! * [`Snapshot`]/[`MetricsSection`] turn the registry's raw records into the
//!   aggregated `metrics` section embedded in campaign reports, and
//!   [`span_forest`] normalizes records into a timing-free [`SpanNode`] tree
//!   whose shape is deterministic across worker counts (pinned by the
//!   orchestrator's proptests).
//!
//! # Determinism contract
//!
//! Spans and counters describe *work*, which for a fixed campaign
//! specification is deterministic; only their timings and interleavings are
//! not. Consumers therefore split the same way campaign reports do: the
//! normalized span tree and final counter values may be compared across runs,
//! while durations, sequence numbers and event order may not.
//!
//! ```
//! use isopredict_obs::{span_forest, Registry};
//!
//! let registry = Registry::new();
//! let obs = registry.obs();
//! {
//!     let predict = obs.span("predict");
//!     let solve = predict.obs().span("solve");
//!     predict.obs().count("solver.conflicts", 42);
//!     let _solving_time = solve.finish();
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("solver.conflicts"), 42);
//! let forest = span_forest(&snapshot.spans);
//! assert_eq!(forest[0].name, "predict");
//! assert_eq!(forest[0].children[0].name, "solve");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "obs owns the non-deterministic report half: span timings and telemetry"
)]

pub mod cli;
mod event;
mod metrics;
mod registry;
mod span;

pub use event::{validate_stream, Label, ObsEvent, StreamError, StreamSummary, SCHEMA_VERSION};
pub use metrics::{CounterValue, MetricsSection, SpanAggregate};
pub use registry::{BufferSink, HeartbeatSample, Obs, Registry, Span};
pub use span::{span_forest, Snapshot, SpanNode, SpanRecord};
