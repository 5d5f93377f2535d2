//! Campaign reports: deterministic per-task records plus run records and
//! timing aggregates.
//!
//! Reports split into two halves, and each half is its own type:
//!
//! * [`TaskRecord`]s and the [`CampaignSummary`] contain only verdict-level
//!   values that are a pure function of the campaign specification
//!   (workloads, solver and sharding are all deterministic).
//!   [`CampaignReport::deterministic_json`] serializes exactly these two
//!   through a derived `DeterministicReport { tasks, summary }`, so the half
//!   is **byte-identical across runs, worker counts and equisatisfiable
//!   solver configurations** by construction — the campaign runner's
//!   reproducibility contract, and what the determinism tests pin.
//! * Everything else is the non-deterministic half: one [`TaskRun`] per task
//!   (witness-level fields, replay divergences, per-task timings),
//!   [`CampaignTiming`] (the phase spans' wall-clock times), the per-cell [`ProvenanceRecord`]s (the trace source depends
//!   on what happens to be on disk), telemetry and post-mortems.

#![warn(clippy::iter_over_hash_type)]

use isopredict_obs::MetricsSection;
use isopredict_smt::SolverPostmortem;
use isopredict_store::Divergence;
use serde::{Deserialize, Serialize};

/// How one experiment ended, mirroring the columns of Tables 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExperimentOutcome {
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

/// How one experiment ended, as a report string.
pub(crate) fn outcome_name(outcome: ExperimentOutcome) -> &'static str {
    match outcome {
        ExperimentOutcome::Validated => "validated",
        ExperimentOutcome::FailedValidation => "failed_validation",
        ExperimentOutcome::NoPrediction => "no_prediction",
        ExperimentOutcome::Unknown => "unknown",
    }
}

/// The deterministic record of one experiment of the campaign matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskRecord {
    /// Benchmark name (paper spelling, e.g. "Smallbank").
    pub benchmark: String,
    /// Seed of the observed execution.
    pub seed: u64,
    /// Prediction strategy name (paper spelling, e.g. "Approx-Relaxed").
    pub strategy: String,
    /// Target isolation level ("causal" / "read committed").
    pub isolation: String,
    /// Number of communication components in the observed history.
    pub components: usize,
    /// Fraction of committed transactions in the largest component.
    pub dominant_fraction: f64,
    /// Whether the shard policy decided to analyze per-component.
    pub sharded: bool,
    /// Number of analysis units (1 if unsharded, else the component count).
    pub units: usize,
    /// Index of the shard whose prediction was embedded, if any.
    pub predicting_unit: Option<usize>,
    /// Human-readable label of that unit ("whole" / "shard-N"), if any.
    pub predicting_unit_label: Option<String>,
    /// How the experiment ended ("validated", "failed_validation",
    /// "no_prediction", "unknown").
    pub outcome: String,
    /// Literal count of the generated constraints (summed over predicting
    /// shards; 0 when no shard predicted).
    pub literals: u64,
    /// Committed transactions in the observed execution.
    pub observed_txns: usize,
    /// Read events in the observed execution.
    pub observed_reads: usize,
    /// Write events in the observed execution.
    pub observed_writes: usize,
}

/// The run record of one experiment: what its particular solver model and
/// validating replay looked like, and what it cost.
///
/// Lives in the report's **non-deterministic half**: the witness-level
/// fields describe the model the solver happened to produce, which is
/// deterministic for a fixed configuration but legitimately differs between
/// equisatisfiable solver configurations (e.g. preprocessing on/off), and the
/// timings vary run to run. `runs[i]` belongs to `tasks[i]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TaskRun {
    /// Whether the validating execution diverged from the prediction (some
    /// divergence other than running past the prediction's end).
    pub diverged: bool,
    /// Number of reads whose writer the prediction changed.
    pub changed_reads: usize,
    /// Every divergence the validating replay recorded, in replay order.
    pub divergences: Vec<DivergenceRecord>,
    /// Constraint generation time summed over predicting units, in
    /// microseconds (0 when no unit predicted).
    pub constraint_gen_us: u64,
    /// Solving time summed over predicting units, in microseconds (0 when no
    /// unit predicted).
    pub solving_us: u64,
    /// Busy time of the experiment's analysis units summed, encoding
    /// included, in microseconds: measured for every outcome.
    pub predict_us: u64,
}

/// One divergence of a validating replay from its prediction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DivergenceRecord {
    /// The kind of mismatch (`DifferentKey`, `WriterMissing`,
    /// `IsolationViolation` or `PastPrediction`).
    pub kind: String,
    /// Index of the session in which it occurred.
    pub session: u32,
    /// Session-wide read position at which it occurred.
    pub position: usize,
    /// The key involved.
    pub key: String,
}

impl From<&Divergence> for DivergenceRecord {
    fn from(divergence: &Divergence) -> Self {
        DivergenceRecord {
            kind: format!("{:?}", divergence.kind),
            session: divergence.session.0,
            position: divergence.position,
            key: divergence.key.clone(),
        }
    }
}

/// Where one observed (benchmark, seed) cell's trace came from.
///
/// Not part of the deterministic report half: a cold corpus records
/// (`trace_source: "recorded"`), a warm one loads (`trace_source: "corpus"`),
/// and the verdicts must be byte-identical either way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProvenanceRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Seed of the observed execution.
    pub seed: u64,
    /// `"recorded"` when the record phase ran for this cell, `"corpus"` when
    /// the trace was loaded from disk and the record phase was skipped.
    pub trace_source: String,
    /// Content address of the observed trace.
    pub trace_hash: String,
    /// Wall-clock microseconds of the recording: the cost paid (when
    /// `recorded`) or the cost *saved* by the corpus hit (when `corpus`,
    /// measured at original record time).
    pub record_us: u64,
}

/// Flight-recorder post-mortem of one budget-exhausted analysis unit: the
/// solver's own [`SolverPostmortem`] (final per-family conflict attribution
/// plus its retained heartbeat ring), stamped with the unit's matrix
/// coordinates.
///
/// Lives in the report's **non-deterministic half** (beside `timing` and
/// `provenance`): everything in it is diagnostic — it explains where the
/// budget went, never what the verdict was. `sat_explain` renders these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostmortemRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Seed of the observed execution.
    pub seed: u64,
    /// Prediction strategy name.
    pub strategy: String,
    /// Target isolation level.
    pub isolation: String,
    /// Analysis-unit label ("whole" / "shard-N").
    pub unit: String,
    /// The solver's post-mortem of the unit's final solve call.
    pub solver: SolverPostmortem,
}

/// Outcome counts over the whole campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CampaignSummary {
    /// Total experiments (matrix cells).
    pub experiments: usize,
    /// Experiments whose prediction validated as unserializable.
    pub validated: usize,
    /// Experiments whose prediction failed validation.
    pub failed_validation: usize,
    /// Experiments where no prediction exists.
    pub no_prediction: usize,
    /// Experiments where the solver budget was exhausted.
    pub unknown: usize,
    /// Experiments analyzed per-shard.
    pub sharded: usize,
    /// Total analysis units executed (shard tasks + whole-history tasks).
    pub analysis_units: usize,
}

impl CampaignSummary {
    /// Tallies a summary from task records.
    #[must_use]
    pub fn from_tasks(tasks: &[TaskRecord]) -> CampaignSummary {
        let mut summary = CampaignSummary {
            experiments: tasks.len(),
            ..CampaignSummary::default()
        };
        for task in tasks {
            match task.outcome.as_str() {
                "validated" => summary.validated += 1,
                "failed_validation" => summary.failed_validation += 1,
                "no_prediction" => summary.no_prediction += 1,
                _ => summary.unknown += 1,
            }
            if task.sharded {
                summary.sharded += 1;
            }
            summary.analysis_units += task.units;
        }
        summary
    }
}

/// Wall-clock measurements of one campaign run, each read off the span that
/// encloses the work (`campaign`, `record`, `predict`, `validate`, and the
/// per-cell, per-unit and per-experiment spans for `cpu_us`).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignTiming {
    /// Worker threads used.
    pub workers: usize,
    /// Total wall-clock time of the campaign, in microseconds.
    pub wall_us: u64,
    /// Sum of per-task busy times across all phases, in microseconds (the
    /// sequential-equivalent cost). When workers time-share scarce CPUs the
    /// per-task times inflate, so compare `wall_us` against a 1-worker run
    /// of the same campaign to measure speedup.
    pub cpu_us: u64,
    /// Wall-clock time of the record phase, in microseconds.
    pub record_us: u64,
    /// Cells whose trace was loaded from the corpus (record phase skipped).
    pub corpus_hits: usize,
    /// Cells that had to be recorded (and were persisted, when a corpus is
    /// configured).
    pub corpus_misses: usize,
    /// Recording time saved by corpus hits, in microseconds: the sum of the
    /// original record costs of every loaded cell.
    pub record_saved_us: u64,
    /// Wall-clock time of the predict phase, in microseconds.
    pub predict_us: u64,
    /// Wall-clock time of the merge + validate phase, in microseconds.
    pub validate_us: u64,
}

/// The full result of a campaign run.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// One record per experiment, in matrix order (deterministic).
    pub tasks: Vec<TaskRecord>,
    /// Outcome aggregates (deterministic).
    pub summary: CampaignSummary,
    /// One run record per experiment, parallel to `tasks` (run-dependent).
    pub runs: Vec<TaskRun>,
    /// Per observed cell: where its trace came from (run-dependent — depends
    /// on the corpus state, so excluded from the deterministic half).
    pub provenance: Vec<ProvenanceRecord>,
    /// Wall-clock measurements (run-dependent).
    pub timing: CampaignTiming,
    /// Aggregated telemetry of the run (`None` unless the campaign executed
    /// through [`crate::Campaign::run_observed`] with an enabled handle).
    /// Run-dependent — durations vary — so it lives beside `timing`, outside
    /// the deterministic half.
    pub metrics: Option<MetricsSection>,
    /// Flight-recorder post-mortems, one per analysis unit that ended
    /// `unknown`, in matrix order. Diagnostic data (heartbeat counts depend
    /// on the heartbeat interval), so excluded from the deterministic half.
    pub postmortems: Vec<PostmortemRecord>,
}

impl CampaignReport {
    /// Pretty JSON of the whole report, timing included.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Pretty JSON of the deterministic half only (tasks + summary):
    /// byte-identical across runs, worker counts, and solver configurations
    /// that cannot change verdicts (e.g. preprocessing on/off) for a fixed
    /// campaign.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let half = DeterministicReport {
            tasks: self.tasks.clone(),
            summary: self.summary.clone(),
        };
        serde_json::to_string_pretty(&half).expect("report serialization cannot fail")
    }
}

/// The deterministic half of a [`CampaignReport`], as serialized by
/// [`CampaignReport::deterministic_json`]. An owned copy: the vendored
/// derive supports no lifetimes or generics.
#[derive(Serialize)]
struct DeterministicReport {
    tasks: Vec<TaskRecord>,
    summary: CampaignSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_smt::{FamilyAttribution, Heartbeat, SolverStats};

    fn record(outcome: &str, sharded: bool, units: usize) -> TaskRecord {
        TaskRecord {
            benchmark: "Smallbank".into(),
            seed: 0,
            strategy: "Approx-Relaxed".into(),
            isolation: "causal".into(),
            components: units.max(1),
            dominant_fraction: 0.5,
            sharded,
            units,
            predicting_unit: None,
            predicting_unit_label: None,
            outcome: outcome.into(),
            literals: 100,
            observed_txns: 12,
            observed_reads: 20,
            observed_writes: 10,
        }
    }

    #[test]
    fn summary_tallies_outcomes_and_units() {
        let tasks = vec![
            record("validated", true, 3),
            record("no_prediction", false, 1),
            record("unknown", false, 1),
            record("failed_validation", true, 2),
        ];
        let summary = CampaignSummary::from_tasks(&tasks);
        assert_eq!(summary.experiments, 4);
        assert_eq!(summary.validated, 1);
        assert_eq!(summary.failed_validation, 1);
        assert_eq!(summary.no_prediction, 1);
        assert_eq!(summary.unknown, 1);
        assert_eq!(summary.sharded, 2);
        assert_eq!(summary.analysis_units, 7);
    }

    #[test]
    fn deterministic_json_excludes_timing_and_provenance() {
        let tasks = vec![record("validated", false, 1)];
        let summary = CampaignSummary::from_tasks(&tasks);
        let mut report = CampaignReport {
            tasks,
            summary,
            runs: vec![TaskRun::default()],
            provenance: vec![ProvenanceRecord {
                benchmark: "Smallbank".into(),
                seed: 0,
                trace_source: "recorded".into(),
                trace_hash: "ab".repeat(32),
                record_us: 10,
            }],
            timing: CampaignTiming {
                workers: 4,
                wall_us: 123,
                ..CampaignTiming::default()
            },
            metrics: None,
            postmortems: vec![],
        };
        let first = report.deterministic_json();
        report.timing.wall_us = 456_789;
        report.timing.workers = 8;
        // A warm rerun flips the source and saves the record cost — none of
        // which may leak into the deterministic half.
        report.provenance[0].trace_source = "corpus".into();
        report.timing.corpus_hits = 1;
        report.timing.record_saved_us = 10;
        // Collected telemetry may not leak into the deterministic half either.
        report.metrics = Some(MetricsSection {
            spans: vec![],
            counters: vec![],
            attributed_wall_fraction: 0.99,
        });
        assert_eq!(first, report.deterministic_json());
        assert!(report.to_json().contains("wall_us"));
        assert!(report.to_json().contains("attributed_wall_fraction"));
        assert!(!first.contains("attributed_wall_fraction"));
        assert!(report.to_json().contains("\"trace_source\": \"corpus\""));
        assert!(!first.contains("wall_us"));
        assert!(!first.contains("trace_source"));
        assert!(first.contains("\"benchmark\": \"Smallbank\""));
    }

    #[test]
    fn deterministic_json_excludes_witness_level_task_fields() {
        let tasks = vec![record("validated", false, 1)];
        let summary = CampaignSummary::from_tasks(&tasks);
        let mut report = CampaignReport {
            tasks,
            summary,
            runs: vec![TaskRun::default()],
            provenance: vec![],
            timing: CampaignTiming::default(),
            metrics: None,
            postmortems: vec![],
        };
        let first = report.deterministic_json();
        // A different (equally valid) solver model changes only the run record.
        report.runs[0] = TaskRun {
            diverged: true,
            changed_reads: 7,
            divergences: vec![DivergenceRecord {
                kind: "WriterMissing".into(),
                session: 2,
                position: 5,
                key: "acct-1".into(),
            }],
            constraint_gen_us: 10,
            solving_us: 20,
            predict_us: 40,
        };
        assert_eq!(first, report.deterministic_json());
        for field in ["changed_reads", "diverged", "divergences", "predict_us"] {
            assert!(
                !first.contains(field),
                "{field} leaked into the deterministic half"
            );
        }
        // Verdict-level fields stay.
        assert!(first.contains("\"outcome\": \"validated\""));
        assert!(first.contains("\"literals\": 100"));
        // The full report keeps the witness fields, under the run record.
        let full = report.to_json();
        let runs = &full[full.find("\"runs\"").expect("runs section")..];
        let runs = &runs[..runs.find("\"provenance\"").expect("provenance follows")];
        assert!(runs.contains("\"changed_reads\": 7"));
        assert!(runs.contains("\"diverged\": true"));
        assert!(runs.contains("\"kind\": \"WriterMissing\""));
        let tasks = &full[..full.find("\"runs\"").unwrap()];
        assert!(!tasks.contains("diverged"));
    }

    #[test]
    fn deterministic_json_excludes_postmortems() {
        let tasks = vec![record("unknown", false, 1)];
        let summary = CampaignSummary::from_tasks(&tasks);
        let mut report = CampaignReport {
            tasks,
            summary,
            runs: vec![TaskRun::default()],
            provenance: vec![],
            timing: CampaignTiming::default(),
            metrics: None,
            postmortems: vec![],
        };
        let first = report.deterministic_json();
        // Attaching a post-mortem may not perturb the deterministic half.
        let attribution = FamilyAttribution {
            families: vec!["default".into(), "feasibility".into()],
            conflicts_by_family: vec![40, 60],
            conflicts_involving: vec![40, 80],
            propagations_by_family: vec![0, 900],
            learned_ancestry: vec![0, 80],
            clauses_by_family: vec![3, 17],
        };
        report.postmortems.push(PostmortemRecord {
            benchmark: "Smallbank".into(),
            seed: 0,
            strategy: "Approx-Relaxed".into(),
            isolation: "causal".into(),
            unit: "whole".into(),
            solver: SolverPostmortem {
                budget: Some(100),
                conflicts_in_call: 100,
                stats: SolverStats {
                    conflicts: 100,
                    restarts: 2,
                    propagations: 5000,
                    ..SolverStats::default()
                },
                attribution,
                heartbeats: vec![Heartbeat {
                    seq: 1,
                    conflicts: 100,
                    decisions: 400,
                    propagations: 5000,
                    restarts: 2,
                    trail_depth: 12,
                    learnt_clauses: 30,
                    vars_assigned_at_root: 4,
                    total_vars: 40,
                    conflicts_by_family: vec![40, 60],
                }],
            },
        });
        assert_eq!(first, report.deterministic_json());
        assert!(!first.contains("conflicts_in_call"));
        assert!(report.to_json().contains("\"conflicts_in_call\": 100"));
        // And the record round-trips through the JSON a `sat_explain` reads.
        let json = serde_json::to_string(&report.postmortems).expect("serialize");
        let back: Vec<PostmortemRecord> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report.postmortems);
    }
}
