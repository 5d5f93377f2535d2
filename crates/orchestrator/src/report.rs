//! Campaign reports: deterministic per-task records plus timing aggregates.
//!
//! Reports split into two halves on purpose:
//!
//! * [`TaskRecord`]s and the [`CampaignSummary`] contain only values that are
//!   a pure function of the campaign specification (workloads, solver and
//!   sharding are all deterministic), so [`CampaignReport::deterministic_json`]
//!   is **byte-identical across runs and worker counts** — the campaign
//!   runner's reproducibility contract, and what the determinism tests pin.
//! * [`CampaignTiming`] carries the wall-clock measurements (which of course
//!   vary run to run) and the parallel speedup estimate; the per-cell
//!   [`ProvenanceRecord`]s live beside it because the trace source
//!   (`recorded` vs `corpus`) depends on what happens to be on disk, not on
//!   the campaign specification.

#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use isopredict_obs::MetricsSection;
use isopredict_smt::SolverPostmortem;
use serde::{Deserialize, Serialize};

/// How one experiment (or shard task) ended, as a report string.
pub(crate) fn outcome_name(outcome: &crate::harness::ExperimentOutcome) -> &'static str {
    use crate::harness::ExperimentOutcome;
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
    /// Whether the validating execution diverged from the prediction.
    ///
    /// Witness-level: describes the particular model the solver produced,
    /// not the verdict, so it is excluded from the deterministic half (see
    /// [`CampaignReport::deterministic_json`]).
    pub diverged: bool,
    /// Number of reads whose writer the prediction changed.
    ///
    /// Witness-level, like `diverged`: solver configuration (e.g.
    /// preprocessing on/off) may produce a different — equally valid —
    /// model, so this is excluded from the deterministic half.
    pub changed_reads: usize,
    /// Literal count of the generated constraints (summed over predicting
    /// shards; 0 when no shard predicted, mirroring the harness).
    pub literals: u64,
    /// Committed transactions in the observed execution.
    pub observed_txns: usize,
    /// Read events in the observed execution.
    pub observed_reads: usize,
    /// Write events in the observed execution.
    pub observed_writes: usize,
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
/// solver's final per-family conflict attribution plus its retained
/// heartbeat ring, stamped with the unit's matrix coordinates.
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
    /// The conflict budget this unit exhausted, if one was set.
    pub budget: Option<u64>,
    /// Conflicts spent inside the final solve call.
    pub conflicts_in_call: u64,
    /// Cumulative conflicts over the unit's whole solver lifetime.
    pub conflicts: u64,
    /// Cumulative restarts.
    pub restarts: u64,
    /// Cumulative unit propagations.
    pub propagations: u64,
    /// Interned clause-family names; all per-family vectors are parallel.
    pub families: Vec<String>,
    /// Strict partition: conflicts charged to each family's falsified
    /// clause; sums exactly to `conflicts`.
    pub conflicts_by_family: Vec<u64>,
    /// Conflicts whose resolution involved each family (not a partition —
    /// one conflict can involve several families).
    pub conflicts_involving: Vec<u64>,
    /// Unit propagations forced by each family's clauses.
    pub propagations_by_family: Vec<u64>,
    /// Learnt clauses whose derivation involved each family.
    pub learned_ancestry: Vec<u64>,
    /// Problem clauses emitted under each family tag.
    pub clauses_by_family: Vec<u64>,
    /// The axiom family most involved in conflicts, if any conflicts
    /// happened.
    pub dominant_family: Option<String>,
    /// The most recent heartbeats of the final solve call, oldest first.
    pub heartbeats: Vec<HeartbeatRecord>,
}

/// One retained solver heartbeat, as serialized into a [`PostmortemRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRecord {
    /// 1-based ordinal within the solve call.
    pub seq: u64,
    /// Cumulative conflicts at sample time.
    pub conflicts: u64,
    /// Cumulative decisions at sample time.
    pub decisions: u64,
    /// Cumulative propagations at sample time.
    pub propagations: u64,
    /// Cumulative restarts at sample time.
    pub restarts: u64,
    /// Assigned literals on the trail at sample time.
    pub trail_depth: u64,
    /// Live learnt clauses at sample time.
    pub learnt_clauses: u64,
    /// Variables fixed at decision level 0 at sample time.
    pub vars_assigned_at_root: u64,
    /// Total problem variables.
    pub total_vars: u64,
    /// Per-family conflict partition at sample time.
    pub conflicts_by_family: Vec<u64>,
}

impl PostmortemRecord {
    /// Builds a record from a solver post-mortem plus the unit's matrix
    /// coordinates.
    #[must_use]
    pub fn new(
        benchmark: &str,
        seed: u64,
        strategy: &str,
        isolation: &str,
        unit: &str,
        postmortem: &SolverPostmortem,
    ) -> PostmortemRecord {
        PostmortemRecord {
            benchmark: benchmark.to_string(),
            seed,
            strategy: strategy.to_string(),
            isolation: isolation.to_string(),
            unit: unit.to_string(),
            budget: postmortem.budget,
            conflicts_in_call: postmortem.conflicts_in_call,
            conflicts: postmortem.stats.conflicts,
            restarts: postmortem.stats.restarts,
            propagations: postmortem.stats.propagations,
            families: postmortem.attribution.families.clone(),
            conflicts_by_family: postmortem.attribution.conflicts_by_family.clone(),
            conflicts_involving: postmortem.attribution.conflicts_involving.clone(),
            propagations_by_family: postmortem.attribution.propagations_by_family.clone(),
            learned_ancestry: postmortem.attribution.learned_ancestry.clone(),
            clauses_by_family: postmortem.attribution.clauses_by_family.clone(),
            dominant_family: postmortem
                .attribution
                .dominant_family()
                .map(|(name, _)| name.to_string()),
            heartbeats: postmortem
                .heartbeats
                .iter()
                .map(|hb| HeartbeatRecord {
                    seq: hb.seq,
                    conflicts: hb.conflicts,
                    decisions: hb.decisions,
                    propagations: hb.propagations,
                    restarts: hb.restarts,
                    trail_depth: hb.trail_depth,
                    learnt_clauses: hb.learnt_clauses,
                    vars_assigned_at_root: hb.vars_assigned_at_root,
                    total_vars: hb.total_vars,
                    conflicts_by_family: hb.conflicts_by_family.clone(),
                })
                .collect(),
        }
    }
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

/// Wall-clock measurements of one campaign run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignTiming {
    /// Worker threads used.
    pub workers: usize,
    /// Total wall-clock time of the campaign, in microseconds.
    pub wall_us: u64,
    /// Sum of per-task busy times across all phases, in microseconds (the
    /// sequential-equivalent cost).
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
    /// Analysis units executed per wall-clock second.
    pub units_per_sec: f64,
    /// `cpu_us / wall_us` — an *upper bound* on the parallel speedup. Each
    /// task's busy time is measured in wall-clock terms, so when workers
    /// time-share scarce CPUs the per-task times inflate and this ratio
    /// approaches the worker count regardless of real throughput; the honest
    /// speedup measure is comparing `wall_us` against a 1-worker run of the
    /// same campaign (what `bench_orchestrator` reports).
    pub speedup_estimate: f64,
}

/// The full result of a campaign run.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// One record per experiment, in matrix order (deterministic).
    pub tasks: Vec<TaskRecord>,
    /// Outcome aggregates (deterministic).
    pub summary: CampaignSummary,
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
    ///
    /// Witness-level task fields (`diverged`, `changed_reads`) are excluded:
    /// they describe the particular model the solver happened to produce,
    /// which is deterministic for a fixed configuration but legitimately
    /// differs between equisatisfiable solver configurations.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        const WITNESS_FIELDS: &[&str] = &["diverged", "changed_reads"];
        struct Deterministic<'a>(&'a CampaignReport);
        impl Serialize for Deterministic<'_> {
            fn to_content(&self) -> serde::Content {
                let tasks = self
                    .0
                    .tasks
                    .iter()
                    .map(|task| match task.to_content() {
                        serde::Content::Map(entries) => serde::Content::Map(
                            entries
                                .into_iter()
                                .filter(|(key, _)| !WITNESS_FIELDS.contains(&key.as_str()))
                                .collect(),
                        ),
                        other => other,
                    })
                    .collect();
                serde::Content::Map(vec![
                    ("tasks".to_string(), serde::Content::Seq(tasks)),
                    ("summary".to_string(), self.0.summary.to_content()),
                ])
            }
        }
        serde_json::to_string_pretty(&Deterministic(self))
            .expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            diverged: false,
            changed_reads: 1,
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
            gauges: vec![],
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
            provenance: vec![],
            timing: CampaignTiming::default(),
            metrics: None,
            postmortems: vec![],
        };
        let first = report.deterministic_json();
        // A different (equally valid) solver model changes only the witness.
        report.tasks[0].diverged = true;
        report.tasks[0].changed_reads = 7;
        assert_eq!(first, report.deterministic_json());
        assert!(!first.contains("changed_reads"));
        assert!(!first.contains("diverged"));
        // Verdict-level fields stay.
        assert!(first.contains("\"outcome\": \"validated\""));
        assert!(first.contains("\"literals\": 100"));
        // The full report keeps the witness fields.
        assert!(report.to_json().contains("\"changed_reads\": 7"));
        assert!(report.to_json().contains("\"diverged\": true"));
    }

    #[test]
    fn deterministic_json_excludes_postmortems() {
        let tasks = vec![record("unknown", false, 1)];
        let summary = CampaignSummary::from_tasks(&tasks);
        let mut report = CampaignReport {
            tasks,
            summary,
            provenance: vec![],
            timing: CampaignTiming::default(),
            metrics: None,
            postmortems: vec![],
        };
        let first = report.deterministic_json();
        // Heartbeat counts depend on the heartbeat interval, so attaching a
        // post-mortem may not perturb the deterministic half.
        report.postmortems.push(PostmortemRecord {
            benchmark: "Smallbank".into(),
            seed: 0,
            strategy: "Approx-Relaxed".into(),
            isolation: "causal".into(),
            unit: "whole".into(),
            budget: Some(100),
            conflicts_in_call: 100,
            conflicts: 100,
            restarts: 2,
            propagations: 5000,
            families: vec!["default".into(), "feasibility".into()],
            conflicts_by_family: vec![40, 60],
            conflicts_involving: vec![40, 80],
            propagations_by_family: vec![0, 900],
            learned_ancestry: vec![0, 80],
            clauses_by_family: vec![3, 17],
            dominant_family: Some("feasibility".into()),
            heartbeats: vec![HeartbeatRecord {
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
        });
        assert_eq!(first, report.deterministic_json());
        assert!(!first.contains("dominant_family"));
        assert!(report
            .to_json()
            .contains("\"dominant_family\": \"feasibility\""));
        assert!(report.to_json().contains("\"conflicts_in_call\": 100"));
        // And the record round-trips through the JSON a `sat_explain` reads.
        let json = serde_json::to_string(&report.postmortems).expect("serialize");
        let raw: serde::Content = serde_json::from_str(&json).expect("reparse");
        let back = Vec::<PostmortemRecord>::from_content(&raw).expect("deserialize");
        assert_eq!(back, report.postmortems);
    }
}
