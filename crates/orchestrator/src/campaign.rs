//! Declarative analysis campaigns over the benchmarks × seeds × strategies ×
//! isolation levels matrix.
//!
//! A [`Campaign`] names *what* to analyze; [`Campaign::run`] decides *how*:
//!
//! 1. **Record or load** — each unique (benchmark, seed) cell is recorded
//!    once (serializable observed execution) and its [`ShardPlan`] computed,
//!    in parallel. With a corpus configured
//!    ([`CampaignOptions::corpus`]), cells already on disk are *loaded*
//!    instead — the record phase is skipped for them and the report's
//!    provenance says `trace_source: corpus` with the time saved. Either
//!    way the analysis runs on the history rebuilt from the *canonical
//!    trace*, so verdicts are byte-identical whether a trace was just
//!    recorded or loaded from a corpus written weeks ago;
//! 2. **Predict** — the matrix expands into one task per (observation,
//!    strategy, isolation, shard unit); the worker pool drains the task queue,
//!    each task running the component-restricted (or whole-history) predictor
//!    with the campaign's per-task solver budget;
//! 3. **Merge + validate** — per experiment, shard verdicts merge into a
//!    whole-history verdict; predictions are embedded and validated by
//!    replaying the application with the store steered toward the predicted
//!    writers.
//!
//! Every phase writes results by task index, so the resulting
//! [`CampaignReport`] is deterministic: for a fixed campaign specification
//! the deterministic half of the report is byte-identical no matter how many
//! workers execute it (see `tests/campaign_determinism.rs`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use isopredict::{validate, PredictionOutcome, Predictor, PredictorConfig, Strategy};
use isopredict_corpus::{hash::sha256_hex, Corpus, LoadedTrace};
use isopredict_history::History;
use isopredict_obs::{MetricsSection, Obs};
use isopredict_store::{IsolationLevel, StoreMode};
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig, WorkloadSize};

use crate::harness::{record_observed, ExperimentOutcome};
use crate::merge::merge_outcomes;
use crate::report::{
    outcome_name, CampaignReport, CampaignSummary, CampaignTiming, PostmortemRecord,
    ProvenanceRecord, TaskRecord,
};
use crate::shard::{ShardPlan, ShardPolicy};
use crate::worker::WorkerPool;

/// Runtime options of a campaign: parallelism, budgets, sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// Worker threads (1 = the sequential baseline).
    pub workers: usize,
    /// Per-experiment solver conflict budget. Sharded experiments split it
    /// across their shard tasks proportionally to component size (see
    /// [`ShardPlan::unit_budgets`]), so a sharded run never spends more
    /// budget than the whole-history run it replaces; exhausting a share
    /// makes that task `Unknown`.
    pub conflict_budget: Option<u64>,
    /// When to shard observed histories.
    pub shard_policy: ShardPolicy,
    /// Trace corpus directory for record-or-load: cells found in the corpus
    /// skip the record phase; cells that are not are recorded once and
    /// persisted for the next run. `None` records every cell in memory, as
    /// before.
    pub corpus: Option<PathBuf>,
    /// Run the SAT core's static preprocessing pipeline before each solver
    /// call (see [`PredictorConfig::preprocess`]). On by default; the
    /// campaign CLI's `--no-preprocess` turns it off for A/B comparisons.
    pub preprocess: bool,
    /// Solver heartbeat interval in conflicts (0 disables). Heartbeats are
    /// schema-v2 obs stream events plus the bounded ring retained for
    /// `unknown` post-mortems; they never touch the deterministic report
    /// half (see [`PredictorConfig::heartbeat_every`]).
    pub heartbeat_every: u64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: WorkerPool::auto().workers(),
            conflict_budget: Some(2_000_000),
            shard_policy: ShardPolicy::default(),
            corpus: None,
            preprocess: true,
            heartbeat_every: 10_000,
        }
    }
}

/// A declarative benchmarks × seeds × strategies × isolation levels matrix.
#[derive(Debug, Clone)]
pub struct Campaign {
    benchmarks: Vec<Benchmark>,
    seeds: Vec<u64>,
    strategies: Vec<Strategy>,
    isolations: Vec<IsolationLevel>,
    size: WorkloadSize,
    txns_per_session: Option<usize>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// A small default matrix: Smallbank + Voter + Overdraft (the write-skew
    /// scenario), three seeds, Approx-Relaxed, every supported isolation
    /// level (causal, read committed, snapshot isolation).
    #[must_use]
    pub fn new() -> Campaign {
        Campaign {
            benchmarks: vec![Benchmark::Smallbank, Benchmark::Voter, Benchmark::Overdraft],
            seeds: vec![0, 1, 2],
            strategies: vec![Strategy::ApproxRelaxed],
            isolations: IsolationLevel::ALL.to_vec(),
            size: WorkloadSize::Small,
            txns_per_session: None,
        }
    }

    /// The paper's full Table 4/5 matrix: all benchmarks, ten seeds, all
    /// strategies, both isolation levels.
    #[must_use]
    pub fn paper_matrix() -> Campaign {
        Campaign {
            benchmarks: Benchmark::all().to_vec(),
            seeds: (0..10).collect(),
            strategies: Strategy::all().to_vec(),
            isolations: vec![IsolationLevel::Causal, IsolationLevel::ReadCommitted],
            size: WorkloadSize::Small,
            txns_per_session: None,
        }
    }

    /// Replaces the benchmark set.
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks = benchmarks.into_iter().collect();
        self
    }

    /// Replaces the seed set.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the strategy set.
    #[must_use]
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        self.strategies = strategies.into_iter().collect();
        self
    }

    /// Replaces the isolation-level set.
    #[must_use]
    pub fn isolations(mut self, isolations: impl IntoIterator<Item = IsolationLevel>) -> Self {
        self.isolations = isolations.into_iter().collect();
        self
    }

    /// Selects the paper's small or large workload size.
    #[must_use]
    pub fn size(mut self, size: WorkloadSize) -> Self {
        self.size = size;
        self
    }

    /// Overrides transactions per session (shrinks debug-build test time).
    #[must_use]
    pub fn txns_per_session(mut self, txns: usize) -> Self {
        self.txns_per_session = Some(txns);
        self
    }

    /// Number of experiments in the matrix.
    #[must_use]
    pub fn experiments(&self) -> usize {
        self.benchmarks.len() * self.seeds.len() * self.strategies.len() * self.isolations.len()
    }

    fn config_for(&self, seed: u64) -> WorkloadConfig {
        let mut config = match self.size {
            WorkloadSize::Small => WorkloadConfig::small(seed),
            WorkloadSize::Large => WorkloadConfig::large(seed),
        };
        if let Some(txns) = self.txns_per_session {
            config.txns_per_session = txns;
        }
        config
    }

    /// Executes the campaign on `options.workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if the campaign matrix is empty along any dimension.
    #[must_use]
    pub fn run(&self, options: &CampaignOptions) -> CampaignReport {
        self.run_observed(options, &Obs::off())
    }

    /// Like [`Campaign::run`], reporting telemetry through `obs`: a
    /// `campaign` root span with `record`/`predict`/`validate` phase
    /// children, per-cell `cell` spans (with a `connectivity` child), one
    /// span per analysis unit (named `whole` / `shard-N`, nesting the
    /// predictor's `encode` and `solve` spans), per-experiment `experiment`
    /// spans labelled with their outcome, and the predictor's and corpus's
    /// counters. The aggregated [`MetricsSection`] lands in the report's
    /// non-deterministic half; the deterministic half is byte-identical
    /// whether telemetry is collected or not.
    ///
    /// # Panics
    ///
    /// Panics if the campaign matrix is empty along any dimension.
    #[must_use]
    pub fn run_observed(&self, options: &CampaignOptions, obs: &Obs) -> CampaignReport {
        assert!(
            self.experiments() > 0,
            "campaign matrix is empty along some dimension"
        );
        let pool = WorkerPool::new(options.workers);
        let campaign_span = obs.span("campaign");
        let campaign_obs = campaign_span.obs();
        campaign_obs.gauge("workers", pool.workers() as u64);
        let campaign_start = Instant::now();
        let corpus: Option<Corpus> = options.corpus.as_ref().map(|dir| {
            let mut corpus = Corpus::open(dir)
                .unwrap_or_else(|error| panic!("cannot open corpus at {}: {error}", dir.display()));
            corpus.set_obs(campaign_obs.clone());
            corpus
        });

        // Phase 1 — record-or-load one observed execution per (benchmark,
        // seed). Both paths analyze the history rebuilt from the canonical
        // trace, so a corpus hit changes nothing but the time spent.
        let record_start = Instant::now();
        let record_span = campaign_obs.span("record");
        let cells: Vec<(Benchmark, u64)> = self
            .benchmarks
            .iter()
            .flat_map(|&benchmark| self.seeds.iter().map(move |&seed| (benchmark, seed)))
            .collect();
        let observations: Vec<Observation> = pool.run(&cells, |_, &(benchmark, seed)| {
            let seed_label = seed.to_string();
            let cell_span = record_span.obs().span_with(
                "cell",
                &[("benchmark", benchmark.name()), ("seed", &seed_label)],
            );
            let busy = Instant::now();
            let config = self.config_for(seed);
            let observed = observe_cell(benchmark, &config, corpus.as_ref());
            let plan = {
                let _connectivity = cell_span.obs().span("connectivity");
                ShardPlan::new(&observed.loaded.history, options.shard_policy)
            };
            // Provenance always reports a content address, even corpus-less.
            let trace_hash = observed.hash();
            Observation {
                benchmark,
                seed,
                config,
                history: observed.loaded.history,
                committed_indices: observed.loaded.committed_indices,
                source: observed.source,
                trace_hash,
                record_us: observed.record_us,
                plan,
                busy: busy.elapsed(),
            }
        });
        record_span.finish();
        let record_wall = record_start.elapsed();

        // Phase 2 — one prediction task per (observation, strategy,
        // isolation, shard unit), expanded in deterministic matrix order.
        let predict_start = Instant::now();
        let predict_span = campaign_obs.span("predict");
        let mut unit_tasks: Vec<UnitTask> = Vec::new();
        for (observation_index, observation) in observations.iter().enumerate() {
            let budgets = observation.plan.unit_budgets(options.conflict_budget);
            for &strategy in &self.strategies {
                for &isolation in &self.isolations {
                    for (unit_index, &conflict_budget) in budgets.iter().enumerate() {
                        unit_tasks.push(UnitTask {
                            observation: observation_index,
                            strategy,
                            isolation,
                            unit: unit_index,
                            conflict_budget,
                        });
                    }
                }
            }
        }
        let unit_results: Vec<(PredictionOutcome, Duration)> = pool.run(&unit_tasks, |_, task| {
            let busy = Instant::now();
            let observation = &observations[task.observation];
            let unit = &observation.plan.units[task.unit];
            let seed_label = observation.seed.to_string();
            let isolation_label = task.isolation.to_string();
            let unit_span = predict_span.obs().span_with(
                &unit.label(),
                &[
                    ("benchmark", observation.benchmark.name()),
                    ("seed", &seed_label),
                    ("strategy", task.strategy.name()),
                    ("isolation", &isolation_label),
                ],
            );
            let predictor = Predictor::new(PredictorConfig {
                strategy: task.strategy,
                isolation: task.isolation,
                conflict_budget: task.conflict_budget,
                preprocess: options.preprocess,
                heartbeat_every: options.heartbeat_every,
                ..PredictorConfig::default()
            });
            let history = observation.plan.history_for(&observation.history, unit);
            let outcome = predictor.predict(&history, unit_span.obs());
            (outcome, busy.elapsed())
        });
        predict_span.finish();
        let predict_wall = predict_start.elapsed();

        // Phase 3 — merge shard verdicts per experiment and validate
        // predictions by steered replay.
        let validate_start = Instant::now();
        let validate_span = campaign_obs.span("validate");
        let mut experiments: Vec<ExperimentInput> = Vec::new();
        {
            let mut cursor = 0usize;
            for (observation_index, observation) in observations.iter().enumerate() {
                for &strategy in &self.strategies {
                    for &isolation in &self.isolations {
                        let units = observation.plan.units.len();
                        experiments.push(ExperimentInput {
                            observation: observation_index,
                            strategy,
                            isolation,
                            unit_range: (cursor, cursor + units),
                        });
                        cursor += units;
                    }
                }
            }
            debug_assert_eq!(cursor, unit_results.len());
        }
        let experiment_results: Vec<(TaskRecord, Duration)> =
            pool.run(&experiments, |_, experiment| {
                let busy = Instant::now();
                let observation = &observations[experiment.observation];
                let seed_label = observation.seed.to_string();
                let isolation_label = experiment.isolation.to_string();
                let experiment_span = validate_span.obs().span_with(
                    "experiment",
                    &[
                        ("benchmark", observation.benchmark.name()),
                        ("seed", &seed_label),
                        ("strategy", experiment.strategy.name()),
                        ("isolation", &isolation_label),
                    ],
                );
                let (lo, hi) = experiment.unit_range;
                let outcomes: Vec<&PredictionOutcome> =
                    unit_results[lo..hi].iter().map(|(o, _)| o).collect();
                let record = finish_experiment(experiment, observation, &outcomes);
                experiment_span.label("outcome", &record.outcome);
                (record, busy.elapsed())
            });
        validate_span.finish();
        let validate_wall = validate_start.elapsed();

        // Aggregate.
        let wall = campaign_start.elapsed();
        let cpu: Duration = observations.iter().map(|o| o.busy).sum::<Duration>()
            + unit_results.iter().map(|(_, d)| *d).sum::<Duration>()
            + experiment_results.iter().map(|(_, d)| *d).sum::<Duration>();
        let tasks: Vec<TaskRecord> = experiment_results
            .into_iter()
            .map(|(record, _)| record)
            .collect();
        let summary = CampaignSummary::from_tasks(&tasks);
        // Flight-recorder post-mortems: one per budget-exhausted analysis
        // unit, in deterministic matrix order (unit_tasks order). The
        // records themselves are diagnostic (heartbeat ring, attribution)
        // and live in the non-deterministic report half.
        let postmortems: Vec<PostmortemRecord> = unit_tasks
            .iter()
            .zip(&unit_results)
            .filter_map(|(task, (outcome, _))| {
                outcome.postmortem().map(|pm| {
                    let observation = &observations[task.observation];
                    PostmortemRecord::new(
                        observation.benchmark.name(),
                        observation.seed,
                        task.strategy.name(),
                        &task.isolation.to_string(),
                        &observation.plan.units[task.unit].label(),
                        pm,
                    )
                })
            })
            .collect();
        let provenance: Vec<ProvenanceRecord> = observations
            .iter()
            .map(|observation| ProvenanceRecord {
                benchmark: observation.benchmark.name().to_string(),
                seed: observation.seed,
                trace_source: observation.source.name().to_string(),
                trace_hash: observation.trace_hash.clone(),
                record_us: observation.record_us,
            })
            .collect();
        let corpus_hits = observations
            .iter()
            .filter(|o| o.source == TraceSource::Corpus)
            .count();
        let record_saved_us = observations
            .iter()
            .filter(|o| o.source == TraceSource::Corpus)
            .map(|o| o.record_us)
            .sum();
        let wall_us = wall.as_micros().max(1) as u64;
        let timing = CampaignTiming {
            workers: pool.workers(),
            wall_us,
            cpu_us: cpu.as_micros() as u64,
            record_us: record_wall.as_micros() as u64,
            corpus_hits,
            corpus_misses: observations.len() - corpus_hits,
            record_saved_us,
            predict_us: predict_wall.as_micros() as u64,
            validate_us: validate_wall.as_micros() as u64,
            units_per_sec: unit_tasks.len() as f64 / (wall_us as f64 / 1e6),
            speedup_estimate: cpu.as_micros() as f64 / wall_us as f64,
        };
        let root_id = campaign_span.id();
        campaign_span.finish();
        let metrics = match (root_id, obs.snapshot()) {
            (Some(root), Some(snapshot)) => Some(MetricsSection::for_span(&snapshot, root)),
            _ => None,
        };
        CampaignReport {
            tasks,
            summary,
            provenance,
            timing,
            metrics,
            postmortems,
        }
    }
}

/// Where an observed cell's trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceSource {
    /// The record phase ran for this cell.
    Recorded,
    /// The trace was loaded from the corpus; the record phase was skipped.
    Corpus,
}

impl TraceSource {
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceSource::Recorded => "recorded",
            TraceSource::Corpus => "corpus",
        }
    }
}

/// An observed cell resolved to its canonical analysis form.
pub(crate) struct ObservedCell {
    pub(crate) loaded: LoadedTrace,
    pub(crate) source: TraceSource,
    /// Content address, when a corpus was involved (`None` for corpus-less
    /// recordings — callers needing one hash the canonical trace themselves,
    /// so corpus-less experiment runners never pay for an unused digest).
    pub(crate) trace_hash: Option<String>,
    /// Recording cost paid (when recorded) or saved (when loaded).
    pub(crate) record_us: u64,
}

impl ObservedCell {
    /// The cell's content address, computing it from the canonical trace
    /// bytes when no corpus supplied one.
    pub(crate) fn hash(&self) -> String {
        self.trace_hash
            .clone()
            .unwrap_or_else(|| sha256_hex(self.loaded.trace.to_canonical_json().as_bytes()))
    }
}

/// Record-or-load for one (benchmark, config) cell. On a corpus miss the
/// freshly recorded trace is persisted so the *next* run hits.
///
/// # Panics
///
/// Panics when the corpus rejects the cell (corrupt object, key conflict) —
/// campaign runs treat corpus failures as fatal configuration errors rather
/// than silently re-recording, so drift never goes unnoticed.
pub(crate) fn observe_cell(
    benchmark: Benchmark,
    config: &WorkloadConfig,
    corpus: Option<&Corpus>,
) -> ObservedCell {
    if let Some(corpus) = corpus {
        let hit = corpus
            .load_observed(benchmark.name(), config)
            .unwrap_or_else(|error| {
                panic!(
                    "corpus entry for {} seed {}: {error}",
                    benchmark, config.seed
                )
            });
        if let Some((entry, loaded)) = hit {
            return ObservedCell {
                loaded,
                source: TraceSource::Corpus,
                trace_hash: Some(entry.hash),
                record_us: entry.record_us,
            };
        }
    }
    let record_start = Instant::now();
    let run = record_observed(benchmark, config);
    let record_us = record_start.elapsed().as_micros() as u64;
    let trace = run.trace();
    let trace_hash = corpus.map(|corpus| {
        corpus
            .store(&trace, record_us)
            .unwrap_or_else(|error| {
                panic!("persisting {} seed {}: {error}", benchmark, config.seed)
            })
            .hash
    });
    let loaded = LoadedTrace::new(trace).expect("recorder traces are valid histories");
    ObservedCell {
        loaded,
        source: TraceSource::Recorded,
        trace_hash,
        record_us,
    }
}

/// A recorded-or-loaded (benchmark, seed) cell with its shard plan.
struct Observation {
    benchmark: Benchmark,
    seed: u64,
    config: WorkloadConfig,
    /// The canonical history (rebuilt from the trace) every analysis runs on.
    history: History,
    /// Per session, plan indices of committed transactions (for validation).
    committed_indices: Vec<Vec<usize>>,
    source: TraceSource,
    trace_hash: String,
    record_us: u64,
    plan: ShardPlan,
    busy: Duration,
}

/// One prediction task of the expanded matrix.
struct UnitTask {
    observation: usize,
    strategy: Strategy,
    isolation: IsolationLevel,
    unit: usize,
    /// This unit's share of the experiment's solver budget.
    conflict_budget: Option<u64>,
}

/// One experiment: the slice of unit tasks to merge plus its coordinates.
struct ExperimentInput {
    observation: usize,
    strategy: Strategy,
    isolation: IsolationLevel,
    unit_range: (usize, usize),
}

/// Merges an experiment's shard verdicts and validates any prediction.
fn finish_experiment(
    experiment: &ExperimentInput,
    observation: &Observation,
    outcomes: &[&PredictionOutcome],
) -> TaskRecord {
    let plan = &observation.plan;
    let merged = merge_outcomes(&observation.history, outcomes, plan.sharded);

    let (outcome, diverged, changed_reads) = match &merged.outcome {
        PredictionOutcome::NoPrediction { .. } => (ExperimentOutcome::NoPrediction, false, 0),
        PredictionOutcome::Unknown { .. } => (ExperimentOutcome::Unknown, false, 0),
        PredictionOutcome::Prediction(prediction) => {
            let validation_plan =
                validate::plan_validation(prediction, &observation.committed_indices);
            let validating_run = run(
                observation.benchmark,
                &observation.config,
                StoreMode::Controlled {
                    level: experiment.isolation,
                    script: validation_plan.script.clone(),
                },
                &Schedule::Explicit(validation_plan.schedule.clone()),
            );
            let assessment = validate::assess(&validating_run.history, &validating_run.divergences);
            let outcome = if assessment.validated {
                ExperimentOutcome::Validated
            } else {
                ExperimentOutcome::FailedValidation
            };
            (outcome, assessment.diverged, prediction.changed_reads.len())
        }
    };

    TaskRecord {
        benchmark: observation.benchmark.name().to_string(),
        seed: observation.seed,
        strategy: experiment.strategy.name().to_string(),
        isolation: experiment.isolation.to_string(),
        components: plan.components.len(),
        dominant_fraction: plan.components.dominant_fraction(),
        sharded: plan.sharded,
        units: plan.units.len(),
        predicting_unit: merged.predicting_unit,
        predicting_unit_label: merged
            .predicting_unit
            .map(|index| plan.units[index].label()),
        outcome: outcome_name(&outcome).to_string(),
        diverged,
        changed_reads,
        literals: merged.stats.literals,
        observed_txns: observation.history.committed_transactions().count(),
        observed_reads: observation.history.num_reads(),
        observed_writes: observation.history.num_writes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        Campaign::new()
            .benchmarks([Benchmark::Smallbank])
            .seeds([0])
            .strategies([Strategy::ApproxRelaxed])
            .isolations([IsolationLevel::ReadCommitted])
            .txns_per_session(2)
    }

    #[test]
    fn campaign_produces_one_record_per_matrix_cell() {
        let campaign = tiny_campaign();
        assert_eq!(campaign.experiments(), 1);
        let report = campaign.run(&CampaignOptions {
            workers: 2,
            ..CampaignOptions::default()
        });
        assert_eq!(report.tasks.len(), 1);
        let task = &report.tasks[0];
        assert_eq!(task.benchmark, "Smallbank");
        assert_eq!(task.strategy, "Approx-Relaxed");
        assert_eq!(task.isolation, "read committed");
        assert!(task.observed_txns > 0);
        assert_eq!(report.summary.experiments, 1);
        assert!(report.timing.wall_us > 0);
    }

    #[test]
    fn snapshot_isolation_rows_run_end_to_end() {
        // An SI row of the matrix must make it all the way through record →
        // predict (SI axioms) → merge → controlled-replay validation, and
        // report itself under the seam's canonical name. Overdraft seed 0 is
        // a known write-skew cell: the steered replay reproduces an
        // unserializable SI execution, so the row must come back *validated*.
        // (The replay may legitimately record divergences: the relaxed
        // boundary can cut a transaction before a write whose declared
        // conflict makes a predicted stale read unrealizable — the store then
        // falls back to an SI-legal writer, exactly the paper's
        // false-prediction backstop.)
        let campaign = Campaign::new()
            .benchmarks([Benchmark::Overdraft])
            .seeds([0])
            .strategies([Strategy::ApproxRelaxed])
            .isolations([IsolationLevel::Snapshot])
            .txns_per_session(2);
        let report = campaign.run(&CampaignOptions {
            workers: 1,
            ..CampaignOptions::default()
        });
        assert_eq!(report.tasks.len(), 1);
        let task = &report.tasks[0];
        assert_eq!(task.isolation, "snapshot isolation");
        assert_eq!(task.outcome, "validated");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_matrix_is_rejected() {
        let _ = Campaign::new()
            .benchmarks([])
            .run(&CampaignOptions::default());
    }
}
