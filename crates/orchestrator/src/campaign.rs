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
use std::time::Duration;

use isopredict::{validate, PredictionOutcome, Predictor, PredictorConfig, Strategy};
use isopredict_corpus::{observe_cell, Corpus, TraceSource};
use isopredict_history::History;
use isopredict_obs::{MetricsSection, Obs};
use isopredict_store::{IsolationLevel, StoreMode};
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig, WorkloadSize};

use crate::merge::merge_outcomes;
use crate::report::{
    outcome_name, CampaignReport, CampaignSummary, CampaignTiming, ExperimentOutcome,
    PostmortemRecord, ProvenanceRecord, TaskRecord, TaskRun,
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
    /// Run the SAT core's static preprocessing pipeline once per analysis
    /// unit, before its first search (see [`PredictorConfig::preprocess`]).
    /// On by default; the campaign CLI's `--no-preprocess` turns it off for
    /// A/B comparisons.
    pub preprocess: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: WorkerPool::auto().workers(),
            conflict_budget: Some(2_000_000),
            shard_policy: ShardPolicy::default(),
            corpus: None,
            preprocess: true,
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
        let mut config = WorkloadConfig::sized(self.size, seed);
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
    /// spans labelled with their outcome, and the predictor's counters. The
    /// aggregated [`MetricsSection`] lands in the report's non-deterministic
    /// half; the deterministic half is byte-identical whether telemetry is
    /// collected or not. The same spans time the report's phases
    /// ([`CampaignTiming`]) and per-task busy times, with telemetry on or
    /// off.
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
        let corpus: Option<Corpus> = options.corpus.as_ref().map(|dir| {
            Corpus::open(dir)
                .unwrap_or_else(|error| panic!("cannot open corpus at {}: {error}", dir.display()))
        });

        // Phase 1 — record-or-load one observed execution per (benchmark,
        // seed). Both paths analyze the history rebuilt from the canonical
        // trace, so a corpus hit changes nothing but the time spent.
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
            let config = self.config_for(seed);
            // Campaigns treat corpus failures as fatal configuration errors
            // rather than silently re-recording, so drift never goes
            // unnoticed.
            let observed = observe_cell(benchmark, &config, corpus.as_ref())
                .unwrap_or_else(|error| panic!("corpus cell {benchmark} seed {seed}: {error}"));
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
                busy: cell_span.finish(),
            }
        });
        let record_wall = record_span.finish();

        // Phase 2 — one prediction task per (observation, strategy,
        // isolation, shard unit), expanded in deterministic matrix order.
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
                ..PredictorConfig::default()
            });
            let history = observation.plan.history_for(&observation.history, unit);
            let outcome = predictor.predict(&history, unit_span.obs());
            (outcome, unit_span.finish())
        });
        let predict_wall = predict_span.finish();

        // Phase 3 — merge shard verdicts per experiment and validate
        // predictions by steered replay.
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
        let experiment_results: Vec<(TaskRecord, TaskRun, Duration)> =
            pool.run(&experiments, |_, experiment| {
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
                let (record, run) =
                    finish_experiment(experiment, observation, &unit_results[lo..hi]);
                experiment_span.label("outcome", &record.outcome);
                (record, run, experiment_span.finish())
            });
        let validate_wall = validate_span.finish();

        // Aggregate.
        let cpu: Duration = observations.iter().map(|o| o.busy).sum::<Duration>()
            + unit_results.iter().map(|(_, d)| *d).sum::<Duration>()
            + experiment_results
                .iter()
                .map(|(_, _, d)| *d)
                .sum::<Duration>();
        let (tasks, runs): (Vec<TaskRecord>, Vec<TaskRun>) = experiment_results
            .into_iter()
            .map(|(record, run, _)| (record, run))
            .unzip();
        let summary = CampaignSummary::from_tasks(&tasks);
        // Flight-recorder post-mortems: one per budget-exhausted analysis
        // unit, in deterministic matrix order (unit_tasks order). The
        // records themselves are diagnostic (heartbeat ring, attribution)
        // and live in the non-deterministic report half.
        let postmortems: Vec<PostmortemRecord> = unit_tasks
            .iter()
            .zip(&unit_results)
            .filter_map(|(task, (outcome, _))| {
                outcome.postmortem().map(|solver| {
                    let observation = &observations[task.observation];
                    PostmortemRecord {
                        benchmark: observation.benchmark.name().to_string(),
                        seed: observation.seed,
                        strategy: task.strategy.name().to_string(),
                        isolation: task.isolation.to_string(),
                        unit: observation.plan.units[task.unit].label(),
                        solver: solver.clone(),
                    }
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
        let root_id = campaign_span.id();
        let timing = CampaignTiming {
            workers: pool.workers(),
            wall_us: campaign_span.finish().as_micros().max(1) as u64,
            cpu_us: cpu.as_micros() as u64,
            record_us: record_wall.as_micros() as u64,
            corpus_hits,
            corpus_misses: observations.len() - corpus_hits,
            record_saved_us,
            predict_us: predict_wall.as_micros() as u64,
            validate_us: validate_wall.as_micros() as u64,
        };
        let metrics = match (root_id, obs.snapshot()) {
            (Some(root), Some(snapshot)) => Some(MetricsSection::for_span(&snapshot, root)),
            _ => None,
        };
        CampaignReport {
            tasks,
            summary,
            runs,
            provenance,
            timing,
            metrics,
            postmortems,
        }
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
    unit_results: &[(PredictionOutcome, Duration)],
) -> (TaskRecord, TaskRun) {
    let plan = &observation.plan;
    let outcomes: Vec<&PredictionOutcome> = unit_results.iter().map(|(o, _)| o).collect();
    let merged = merge_outcomes(&observation.history, &outcomes, plan.sharded);
    let mut task_run = TaskRun {
        constraint_gen_us: merged.constraint_gen_time.as_micros() as u64,
        solving_us: merged.solving_time.as_micros() as u64,
        predict_us: unit_results
            .iter()
            .map(|(_, busy)| *busy)
            .sum::<Duration>()
            .as_micros() as u64,
        ..TaskRun::default()
    };

    let outcome = match &merged.outcome {
        PredictionOutcome::NoPrediction { .. } => ExperimentOutcome::NoPrediction,
        PredictionOutcome::Unknown { .. } => ExperimentOutcome::Unknown,
        PredictionOutcome::Prediction(prediction) => {
            let validation_plan =
                validate::plan_validation(prediction, &observation.committed_indices);
            let validating_run = run(
                observation.benchmark,
                &observation.config,
                StoreMode::Controlled {
                    level: experiment.isolation,
                    script: validation_plan.script,
                },
                &Schedule::Explicit(validation_plan.schedule),
            );
            let assessment = validate::assess(&validating_run.history, &validating_run.divergences);
            task_run.diverged = assessment.diverged;
            task_run.changed_reads = prediction.changed_reads.len();
            task_run.divergences = assessment.divergences.iter().map(Into::into).collect();
            if assessment.validated {
                ExperimentOutcome::Validated
            } else {
                ExperimentOutcome::FailedValidation
            }
        }
    };

    let record = TaskRecord {
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
        outcome: outcome_name(outcome).to_string(),
        literals: merged.stats.literals,
        observed_txns: observation.history.committed_transactions().count(),
        observed_reads: observation.history.num_reads(),
        observed_writes: observation.history.num_writes(),
    };
    (record, task_run)
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

    /// The paper's whole-history pipeline: one unit per experiment.
    fn whole_history(workers: usize) -> CampaignOptions {
        CampaignOptions {
            workers,
            shard_policy: ShardPolicy::Never,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn smallbank_pipeline_produces_a_validated_prediction_under_rc() {
        // Under read committed, Smallbank predictions exist for essentially
        // every seed (Table 5); pick one seed and run the whole pipeline.
        let report = Campaign::new()
            .benchmarks([Benchmark::Smallbank])
            .seeds([0])
            .strategies([Strategy::ApproxRelaxed])
            .isolations([IsolationLevel::ReadCommitted])
            .run(&whole_history(1));
        let task = &report.tasks[0];
        assert!(
            matches!(task.outcome.as_str(), "validated" | "failed_validation"),
            "expected a prediction, got {}",
            task.outcome
        );
        assert_eq!(task.units, 1);
        assert!(task.literals > 0);
        assert!(report.runs[0].changed_reads > 0);
    }

    #[test]
    fn voter_has_no_causal_prediction() {
        // A shortened workload keeps the unsatisfiability proof cheap in
        // debug builds; the full-size configuration is exercised by the
        // release-mode table4_5 binary.
        let report = Campaign::new()
            .benchmarks([Benchmark::Voter])
            .seeds([1])
            .strategies([Strategy::ApproxRelaxed])
            .isolations([IsolationLevel::Causal])
            .txns_per_session(2)
            .run(&whole_history(1));
        assert_eq!(report.tasks[0].outcome, "no_prediction");
        // No prediction, no replay — but the unit's predict time is measured.
        let run = &report.runs[0];
        assert!(run.divergences.is_empty() && !run.diverged);
        assert!(run.predict_us > 0);
    }

    #[test]
    fn diverged_runs_list_their_divergences() {
        // TPC-C under read committed with Approx-Strict: both seeds predict
        // reads the steered replay cannot follow (the replayed transaction
        // takes a different branch and reads other keys), so both replays
        // diverge.
        let report = Campaign::new()
            .benchmarks([Benchmark::Tpcc])
            .seeds([0, 1])
            .strategies([Strategy::ApproxStrict])
            .isolations([IsolationLevel::ReadCommitted])
            .run(&whole_history(2));
        assert!(report.runs.iter().any(|run| run.diverged));
        for (task, run) in report.tasks.iter().zip(&report.runs) {
            if run.diverged {
                assert!(
                    run.divergences.iter().any(|d| d.kind != "PastPrediction"),
                    "seed {}: diverged without a listed divergence: {:?}",
                    task.seed,
                    run.divergences
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_matrix_is_rejected() {
        let _ = Campaign::new()
            .benchmarks([])
            .run(&CampaignOptions::default());
    }
}
