//! End-to-end record → predict → validate pipeline for one benchmark run.

use std::time::Duration;

use isopredict::{
    validate, IsolationLevel, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_corpus::Corpus;
use isopredict_obs::Obs;
use isopredict_smt::EncodingStats;
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Benchmark, RunOutput, Schedule, WorkloadConfig};

use crate::campaign::observe_cell;

/// How one experiment run ended, mirroring the columns of Tables 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentOutcome {
    /// A prediction was found and the validating execution was unserializable.
    Validated,
    /// A prediction was found but the validating execution was serializable
    /// (a false prediction).
    FailedValidation,
    /// The solver proved that no prediction exists ("Unsat").
    NoPrediction,
    /// The solver budget was exhausted ("T/O" / "Unk").
    Unknown,
}

/// The measurements of one record → predict → validate run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The benchmark that was run.
    pub benchmark: Benchmark,
    /// The seed of the observed execution.
    pub seed: u64,
    /// The prediction strategy.
    pub strategy: Strategy,
    /// The target isolation level.
    pub isolation: IsolationLevel,
    /// How the run ended.
    pub outcome: ExperimentOutcome,
    /// Whether the validating execution diverged from the prediction.
    pub diverged: bool,
    /// Encoding statistics (the "# Literals" column).
    pub stats: EncodingStats,
    /// Constraint generation time.
    pub constraint_gen_time: Duration,
    /// Solving time.
    pub solving_time: Duration,
    /// Characteristics of the observed execution (for Table 3).
    pub observed: isopredict_workloads::WorkloadCharacteristics,
    /// `"recorded"` when the observed execution was recorded by this run,
    /// `"corpus"` when it was loaded from a trace corpus.
    pub trace_source: &'static str,
}

/// Records an observed (serializable) execution of `benchmark`.
#[must_use]
pub fn record_observed(benchmark: Benchmark, config: &WorkloadConfig) -> RunOutput {
    run(
        benchmark,
        config,
        StoreMode::SerializableRecord,
        &Schedule::RoundRobin,
    )
}

/// Runs the full pipeline — record an observed execution, predict, validate —
/// for one benchmark, seed, strategy and isolation level, reporting
/// telemetry through `obs` ([`Obs::off`] for none): `record`, `predict`
/// (nesting the predictor's `encode`/`solve` spans) and `validate` phase
/// spans, the latter labelled with the experiment outcome.
///
/// With a corpus, the record phase is record-or-load: an observed execution
/// already on disk is loaded (skipping the recording) and a fresh recording
/// is persisted for next time. Either way the analysis runs on the history
/// rebuilt from the canonical trace, so the result is identical whether the
/// trace was recorded this run or loaded from disk.
#[must_use]
pub fn run_experiment(
    benchmark: Benchmark,
    config: &WorkloadConfig,
    strategy: Strategy,
    isolation: IsolationLevel,
    conflict_budget: Option<u64>,
    corpus: Option<&Corpus>,
    obs: &Obs,
) -> ExperimentResult {
    let observed = {
        let _record = obs.span("record");
        observe_cell(benchmark, config, corpus)
    };
    let trace_source = observed.source.name();
    let observed_history = observed.loaded.history;
    let committed_indices = observed.loaded.committed_indices;
    let observed_chars = isopredict_workloads::WorkloadCharacteristics::of(&observed_history);

    let predictor = Predictor::new(PredictorConfig {
        strategy,
        isolation,
        conflict_budget,
        ..PredictorConfig::default()
    });
    let predict_span = obs.span("predict");
    let outcome = predictor.predict(&observed_history, predict_span.obs());
    predict_span.finish();

    let validate_span = obs.span("validate");
    let (experiment_outcome, diverged, stats, gen_time, solve_time) = match outcome {
        PredictionOutcome::NoPrediction { .. } => (
            ExperimentOutcome::NoPrediction,
            false,
            EncodingStats::default(),
            Duration::ZERO,
            Duration::ZERO,
        ),
        PredictionOutcome::Unknown { .. } => (
            ExperimentOutcome::Unknown,
            false,
            EncodingStats::default(),
            Duration::ZERO,
            Duration::ZERO,
        ),
        PredictionOutcome::Prediction(prediction) => {
            let plan = validate::plan_validation(&prediction, &committed_indices);
            let validating_run = run(
                benchmark,
                config,
                StoreMode::Controlled {
                    level: isolation,
                    script: plan.script.clone(),
                },
                &Schedule::Explicit(plan.schedule.clone()),
            );
            let assessment = validate::assess(&validating_run.history, &validating_run.divergences);
            let outcome = if assessment.validated {
                ExperimentOutcome::Validated
            } else {
                ExperimentOutcome::FailedValidation
            };
            (
                outcome,
                assessment.diverged,
                prediction.stats,
                prediction.constraint_gen_time,
                prediction.solving_time,
            )
        }
    };
    validate_span.label("outcome", crate::report::outcome_name(&experiment_outcome));
    validate_span.finish();

    ExperimentResult {
        benchmark,
        seed: config.seed,
        strategy,
        isolation,
        outcome: experiment_outcome,
        diverged,
        stats,
        constraint_gen_time: gen_time,
        solving_time: solve_time,
        observed: observed_chars,
        trace_source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallbank_pipeline_produces_a_validated_prediction_under_rc() {
        // Under read committed, Smallbank predictions exist for essentially
        // every seed (Table 5); pick one seed and run the whole pipeline.
        let config = WorkloadConfig::small(0);
        let result = run_experiment(
            Benchmark::Smallbank,
            &config,
            Strategy::ApproxRelaxed,
            IsolationLevel::ReadCommitted,
            Some(2_000_000),
            None,
            &Obs::off(),
        );
        assert!(
            matches!(
                result.outcome,
                ExperimentOutcome::Validated | ExperimentOutcome::FailedValidation
            ),
            "expected a prediction, got {:?}",
            result.outcome
        );
        assert!(result.stats.literals > 0);
    }

    #[test]
    fn voter_has_no_causal_prediction() {
        // A shortened workload keeps the unsatisfiability proof cheap in
        // debug builds; the full-size configuration is exercised by the
        // release-mode table4_5 binary.
        let config = WorkloadConfig {
            txns_per_session: 2,
            ..WorkloadConfig::small(1)
        };
        let result = run_experiment(
            Benchmark::Voter,
            &config,
            Strategy::ApproxRelaxed,
            IsolationLevel::Causal,
            Some(2_000_000),
            None,
            &Obs::off(),
        );
        assert_eq!(result.outcome, ExperimentOutcome::NoPrediction);
    }
}
