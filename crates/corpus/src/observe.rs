//! Record-or-load: the one way a (benchmark, workload config) cell becomes
//! an observed trace, shared by campaigns and `trace record`.

use std::time::Instant;

use isopredict_workloads::{record_observed, Benchmark, WorkloadConfig};

use crate::corpus::{Corpus, CorpusError, LoadedTrace};
use crate::hash::sha256_hex;

/// Where an observed cell's trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// The cell was recorded.
    Recorded,
    /// The trace was loaded from the corpus; recording was skipped.
    Corpus,
}

impl TraceSource {
    /// The source as reports name it (`recorded` / `corpus`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceSource::Recorded => "recorded",
            TraceSource::Corpus => "corpus",
        }
    }
}

/// An observed cell resolved to its canonical analysis form.
#[derive(Debug)]
pub struct ObservedCell {
    /// The canonical trace and the history rebuilt from it.
    pub loaded: LoadedTrace,
    /// Whether the cell was recorded or loaded.
    pub source: TraceSource,
    /// Content address, when a corpus was involved (`None` for corpus-less
    /// recordings: [`ObservedCell::hash`] computes it on demand).
    pub trace_hash: Option<String>,
    /// Recording cost paid (when recorded) or saved (when loaded), in
    /// microseconds.
    pub record_us: u64,
}

impl ObservedCell {
    /// The cell's content address, computing it from the canonical trace
    /// bytes when no corpus supplied one.
    #[must_use]
    pub fn hash(&self) -> String {
        self.trace_hash
            .clone()
            .unwrap_or_else(|| sha256_hex(self.loaded.trace.to_canonical_json().as_bytes()))
    }
}

/// Record-or-load for one (benchmark, config) cell: loads the cell from
/// `corpus` when it is indexed there, and otherwise records it (timing the
/// recording) and, with a corpus, persists it so the next run loads it.
/// Either way the result carries the history rebuilt from the canonical
/// trace, so analyses see the same history whether the cell was recorded
/// now or loaded.
///
/// # Errors
///
/// Whatever the corpus reports while loading or persisting the cell
/// (corrupt object, key conflict, filesystem failure).
pub fn observe_cell(
    benchmark: Benchmark,
    config: &WorkloadConfig,
    corpus: Option<&Corpus>,
) -> Result<ObservedCell, CorpusError> {
    if let Some(corpus) = corpus {
        if let Some((entry, loaded)) = corpus.load_observed(benchmark.name(), config)? {
            return Ok(ObservedCell {
                loaded,
                source: TraceSource::Corpus,
                trace_hash: Some(entry.hash),
                record_us: entry.record_us,
            });
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "record_us is provenance metadata (the non-deterministic half), not part of \
                  the canonical, content-addressed trace bytes"
    )]
    let start = Instant::now();
    let recorded = record_observed(benchmark, config);
    let record_us = start.elapsed().as_micros() as u64;
    let trace = recorded.trace();
    let trace_hash = corpus
        .map(|corpus| corpus.store(&trace, record_us))
        .transpose()?
        .map(|receipt| receipt.hash);
    Ok(ObservedCell {
        loaded: LoadedTrace::new(trace)?,
        source: TraceSource::Recorded,
        trace_hash,
        record_us,
    })
}
