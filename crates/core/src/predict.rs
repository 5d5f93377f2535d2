//! The predictor: one encode phase and one solve loop for every strategy,
//! with the exact strategy's counterexample-guided refinement inside it.

use std::time::{Duration, Instant};

use isopredict_history::{serializability, History, SerializabilityResult, TxnId};
use isopredict_obs::{HeartbeatSample, Obs};
use isopredict_smt::{
    EncodingStats, Heartbeat, SmtResult, SmtSolver, SolverPostmortem, SolverStats, TheoryStats,
};

use crate::config::PredictorConfig;
use crate::encode::unserializability::ApproxSymbols;
use crate::encode::Encoder;
use crate::prediction::{extract, Prediction};

/// Why the predictor reported no prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoPredictionReason {
    /// The constraints are unsatisfiable: no feasible, weak-isolation-valid,
    /// unserializable execution can be predicted from this observation.
    Unsatisfiable,
    /// The exact strategy enumerated every feasible candidate execution and
    /// none of them was unserializable.
    ExhaustedCandidates,
}

/// Result of [`Predictor::predict`].
#[derive(Debug)]
pub enum PredictionOutcome {
    /// A feasible, weak-isolation-valid, unserializable execution was found.
    Prediction(Box<Prediction>),
    /// No prediction exists (the analogue of the paper's "Unsat" column).
    NoPrediction {
        /// Why the search concluded that no prediction exists.
        reason: NoPredictionReason,
    },
    /// The solver budget was exhausted (the analogue of the paper's
    /// "T/O"/"Unk" column).
    Unknown {
        /// The solver's flight-recorder post-mortem — final per-family
        /// conflict attribution plus the retained heartbeat ring — when one
        /// was captured. Non-deterministic-half data only: it explains where
        /// the budget went, never what the verdict would have been.
        postmortem: Option<Box<SolverPostmortem>>,
    },
}

impl PredictionOutcome {
    /// The prediction, if one was found.
    #[must_use]
    pub fn prediction(&self) -> Option<&Prediction> {
        match self {
            PredictionOutcome::Prediction(p) => Some(p),
            _ => None,
        }
    }

    /// Whether the outcome is a successful prediction.
    #[must_use]
    pub fn is_prediction(&self) -> bool {
        matches!(self, PredictionOutcome::Prediction(_))
    }

    /// Whether the outcome is a definitive "no prediction exists".
    #[must_use]
    pub fn is_no_prediction(&self) -> bool {
        matches!(self, PredictionOutcome::NoPrediction { .. })
    }

    /// Whether the solver gave up before reaching a decision.
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, PredictionOutcome::Unknown { .. })
    }

    /// The flight-recorder post-mortem attached to an `Unknown` outcome.
    #[must_use]
    pub fn postmortem(&self) -> Option<&SolverPostmortem> {
        match self {
            PredictionOutcome::Unknown { postmortem } => postmortem.as_deref(),
            _ => None,
        }
    }
}

/// IsoPredict's predictive analysis.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Predictor {
    config: PredictorConfig,
}

/// One prediction's constraint system as the encode phase leaves it:
/// feasibility, require-change and isolation for every strategy, plus the
/// approximate unserializability condition for the approximate ones.
pub(crate) struct Encoding<'h> {
    pub(crate) encoder: Encoder<'h>,
    /// The approximate condition's `pco` symbols, whose model holds the
    /// cycle that witnesses unserializability. `None` for the exact
    /// strategy, which checks each candidate outside the solver instead.
    approx: Option<ApproxSymbols>,
    families: AxiomFamilies,
    /// The encoding's size right after encoding: the constraint system the
    /// paper's tables measure, independent of what the search adds later.
    stats: EncodingStats,
    constraint_gen_time: Duration,
}

impl Predictor {
    /// Creates a predictor with the given configuration.
    #[must_use]
    pub fn new(config: PredictorConfig) -> Self {
        Predictor { config }
    }

    /// The predictor's configuration.
    #[must_use]
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// Predicts an unserializable execution from an observed history,
    /// reporting telemetry through `obs`: an `encode` span with
    /// `feasibility`/`isolation`/`unserializability` children, one `solve`
    /// span per solver call (labelled with its result; the first one holds
    /// the `preprocess` span), `encode.*` size counters, and `solver.*` /
    /// `pp.*` work counters diffed around each call. Pass [`Obs::off`] for
    /// no telemetry; the cost is then a handful of branch checks.
    ///
    /// To analyse one communication component, restrict the history first
    /// (`isopredict-orchestrator`'s `ShardPlan::history_for`): the
    /// prediction's identifiers and positions then still refer to the
    /// original history.
    ///
    /// Every strategy runs the same encode phase and the same solve loop.
    /// The approximate strategies never refine: the first model is the
    /// prediction, and its cyclic `pco` is the witness. The exact strategy
    /// (Section 4.2.1) replaces Z3's universally quantified encoding ("no
    /// commit order serializes the candidate") by a counterexample-guided
    /// loop: the first candidate whose prefix history admits no commit
    /// order is the prediction, and each serializable candidate's witness
    /// commit order `σ` is asserted not to serialize the next one
    /// (`Encoder::witness_refinement`). That clause excludes every
    /// candidate `σ` serializes, so models that differ only past a
    /// session's boundary never come back.
    ///
    /// The formula is preprocessed once, under the first `solve` span.
    /// Refinement clauses then join the simplified formula incrementally:
    /// the SAT core maps them through its substitutions and restores any
    /// eliminated variable they mention, so later candidates cost a search,
    /// not another pass of the pipeline.
    #[must_use]
    pub fn predict(&self, observed: &History, obs: &Obs) -> PredictionOutcome {
        let Encoding {
            mut encoder,
            approx,
            families,
            stats,
            constraint_gen_time,
        } = self.encode(observed, obs);
        encoder.smt.set_conflict_budget(self.config.conflict_budget);
        install_heartbeat_bridge(&mut encoder.smt, obs, self.config.heartbeat_every);

        let refines = self.config.strategy.is_exact();
        let mut solving_time = Duration::ZERO;
        let mut candidates_examined = 0usize;
        loop {
            if refines && candidates_examined >= self.config.max_exact_candidates {
                return PredictionOutcome::Unknown {
                    postmortem: Some(Box::new(encoder.smt.solver_postmortem())),
                };
            }
            let before = encoder.smt.solver_stats();
            let theory_before = encoder.smt.theory_stats();
            #[expect(
                clippy::disallowed_methods,
                reason = "solving_time is non-deterministic-half data"
            )]
            let solve_start = Instant::now();
            let solve_span = obs.span("solve");
            if self.config.preprocess && candidates_examined == 0 {
                let pp_span = solve_span.obs().span("preprocess");
                encoder.smt.preprocess();
                pp_span.finish();
            }
            let result = encoder.smt.check();
            solve_span.label("result", smt_result_label(result));
            solve_span.finish();
            solving_time += solve_start.elapsed();
            count_solver_work(
                obs,
                &encoder.smt.solver_stats().diff(&before),
                &encoder.smt.theory_stats().diff(&theory_before),
            );

            match result {
                SmtResult::Unknown => {
                    return PredictionOutcome::Unknown {
                        postmortem: Some(Box::new(encoder.smt.solver_postmortem())),
                    }
                }
                SmtResult::Unsat => {
                    let reason = if candidates_examined == 0 {
                        NoPredictionReason::Unsatisfiable
                    } else {
                        NoPredictionReason::ExhaustedCandidates
                    };
                    return PredictionOutcome::NoPrediction { reason };
                }
                SmtResult::Sat => {
                    let (predicted, boundaries, changed_reads) = extract(&encoder, observed);
                    if refines {
                        candidates_examined += 1;
                        obs.count("exact.candidates", 1);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "solving_time is non-deterministic-half data"
                        )]
                        let check_start = Instant::now();
                        let verdict = self
                            .config
                            .isolation
                            .is_conformant(&predicted)
                            .then(|| serializability::check(&predicted));
                        solving_time += check_start.elapsed();
                        let refinement = match verdict {
                            Some(SerializabilityResult::Unserializable) => None,
                            Some(SerializabilityResult::Serializable { witness }) => {
                                Some(encoder.witness_refinement(&witness))
                            }
                            // The snapshot encoding is weaker than SI (see
                            // `encode_snapshot`), so the exact checker has
                            // the last word on conformance; a candidate it
                            // rejects is ruled out alone.
                            None => Some(encoder.candidate_exclusion()),
                        };
                        if let Some(refinement) = refinement {
                            // The refinement clauses are the exact
                            // strategy's unserializability condition.
                            encoder.smt.set_clause_family(families.unserializability);
                            encoder.smt.assert_term(refinement);
                            continue;
                        }
                    }
                    let pco_cycle = approx.as_ref().and_then(|symbols| {
                        let mut pco = isopredict_history::graph::DiGraph::new(observed.len());
                        for (&(t1, t2), &term) in &symbols.pco {
                            if encoder.smt.model_bool(term) == Some(true) {
                                pco.add_edge(t1, t2);
                            }
                        }
                        pco.find_cycle()
                    });
                    return PredictionOutcome::Prediction(Box::new(Prediction {
                        predicted,
                        boundaries,
                        changed_reads,
                        isolation: self.config.isolation,
                        strategy: self.config.strategy,
                        stats,
                        constraint_gen_time,
                        solving_time,
                        pco_cycle,
                    }));
                }
            }
        }
    }

    /// The encode phase shared by every strategy, under an `encode` span.
    pub(crate) fn encode<'h>(&self, observed: &'h History, obs: &Obs) -> Encoding<'h> {
        #[expect(
            clippy::disallowed_methods,
            reason = "timings feed the non-deterministic report half \
                      (Prediction::constraint_gen_time), never the verdicts"
        )]
        let gen_start = Instant::now();
        let encode_span = obs.span("encode");
        let encode_obs = encode_span.obs();
        let mut encoder = Encoder::new(observed, self.config.strategy.boundary());
        encoder.smt.set_preprocessing(self.config.preprocess);
        let families = self.intern_families(&mut encoder.smt);
        {
            let _feasibility = encode_obs.span("feasibility");
            encoder.smt.set_clause_family(families.feasibility);
            encoder.encode_feasibility();
            encoder.encode_require_change();
        }
        {
            let _isolation = encode_obs.span("isolation");
            encoder.smt.set_clause_family(families.isolation);
            encoder.encode_isolation(self.config.isolation);
        }
        let approx = (!self.config.strategy.is_exact()).then(|| {
            let _unser = encode_obs.span("unserializability");
            encoder.smt.set_clause_family(families.unserializability);
            encoder.encode_approx_unserializability()
        });
        let stats = encoder.smt.stats();
        count_encoding_size(obs, &stats);
        encode_span.finish();
        Encoding {
            encoder,
            approx,
            families,
            stats,
            constraint_gen_time: gen_start.elapsed(),
        }
    }

    /// Interns the predictor's axiom families in the solver so every clause
    /// each encode phase emits carries its provenance through conflict
    /// analysis (the flight recorder's "which axioms are we fighting" data).
    fn intern_families(&self, smt: &mut SmtSolver) -> AxiomFamilies {
        AxiomFamilies {
            feasibility: smt.intern_clause_family("feasibility"),
            isolation: smt.intern_clause_family(&format!("isolation:{}", self.config.isolation)),
            unserializability: smt.intern_clause_family("unserializability"),
        }
    }
}

/// The clause-family ids of one prediction's axiom groups.
#[derive(Debug, Clone, Copy)]
struct AxiomFamilies {
    feasibility: u16,
    isolation: u16,
    unserializability: u16,
}

/// Configures the solver's heartbeat interval and, when telemetry is on,
/// installs the hook that turns the solver's count-only heartbeats into
/// schema-v2 obs events. The bridge — not the solver — owns the wall clock,
/// so the SAT core stays deterministic and obs-free: it reports counts, and
/// the rate is computed here from the time between samples.
fn install_heartbeat_bridge(smt: &mut SmtSolver, obs: &Obs, every: u64) {
    smt.set_heartbeat_every(every);
    if every == 0 || !obs.is_enabled() {
        smt.set_heartbeat_hook(None);
        return;
    }
    let obs = obs.clone();
    let families: Vec<String> = smt.clause_families().to_vec();
    let mut last: Option<(Instant, u64)> = None;
    smt.set_heartbeat_hook(Some(Box::new(move |hb: &Heartbeat| {
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat rates are stream-only telemetry (the non-deterministic half); \
                      verdicts never read them"
        )]
        let now = Instant::now();
        let conflicts_per_sec = match last {
            Some((at, conflicts)) => {
                let dt = now.duration_since(at).as_secs_f64();
                let dc = hb.conflicts.saturating_sub(conflicts) as f64;
                if dt > 0.0 {
                    dc / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        last = Some((now, hb.conflicts));
        obs.heartbeat(HeartbeatSample {
            hb_seq: hb.seq,
            conflicts: hb.conflicts,
            conflicts_per_sec,
            restarts: hb.restarts,
            trail_depth: hb.trail_depth,
            learnt_clauses: hb.learnt_clauses,
            vars_assigned_at_root: hb.vars_assigned_at_root,
            total_vars: hb.total_vars,
            families: families.clone(),
            conflicts_by_family: hb.conflicts_by_family.clone(),
        });
    })));
}

/// The deterministic `result` label attached to each `solve` span.
fn smt_result_label(result: SmtResult) -> &'static str {
    match result {
        SmtResult::Sat => "sat",
        SmtResult::Unsat => "unsat",
        SmtResult::Unknown => "unknown",
    }
}

/// Records the size of a freshly built encoding (`encode.*` counters).
fn count_encoding_size(obs: &Obs, stats: &EncodingStats) {
    obs.count("encode.variables", stats.variables);
    obs.count("encode.clauses", stats.clauses);
    obs.count("encode.literals", stats.literals);
}

/// Records the solver work performed by one `check` call (`solver.*`
/// counters), from a [`SolverStats::diff`] and a [`TheoryStats::diff`]
/// around the call.
fn count_solver_work(obs: &Obs, delta: &SolverStats, theory: &TheoryStats) {
    obs.count("solver.decisions", delta.decisions);
    obs.count("solver.propagations", delta.propagations);
    obs.count("solver.conflicts", delta.conflicts);
    obs.count("solver.theory_conflicts", delta.theory_conflicts);
    obs.count("solver.theory_asserts", theory.asserts);
    obs.count("solver.theory_searches", theory.searches);
    obs.count("solver.theory_nodes_visited", theory.nodes_visited);
    obs.count("solver.restarts", delta.restarts);
    obs.count("solver.deleted_clauses", delta.deleted_clauses);
    obs.count("pp.rounds", delta.pp_rounds);
    obs.count("pp.fixed", delta.pp_fixed);
    obs.count("pp.equivalences", delta.pp_equivalences);
    obs.count("pp.subsumed", delta.pp_subsumed);
    obs.count("pp.strengthened", delta.pp_strengthened);
    obs.count("pp.eliminated", delta.pp_eliminated);
    obs.count("pp.resolvents", delta.pp_resolvents);
    obs.count("pp.probes", delta.pp_probes);
    obs.count("pp.restored", delta.pp_restored);
    obs.count("pp.probe_visits", delta.pp_probe_visits);
    obs.count("pp.subsume_checks", delta.pp_subsume_checks);
    obs.count("pp.bve_pairs", delta.pp_bve_pairs);
}

/// Convenience: `TxnId` list rendering for diagnostics.
#[must_use]
pub(crate) fn format_cycle(cycle: &[TxnId]) -> String {
    let mut parts: Vec<String> = cycle.iter().map(ToString::to_string).collect();
    if let Some(first) = parts.first().cloned() {
        parts.push(first);
    }
    parts.join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorConfig, Strategy};
    use crate::encode::test_support::*;
    use isopredict_store::IsolationLevel;

    fn predictor(strategy: Strategy, isolation: IsolationLevel) -> Predictor {
        Predictor::new(PredictorConfig {
            strategy,
            isolation,
            ..PredictorConfig::default()
        })
    }

    #[test]
    fn approx_relaxed_predicts_the_motivating_example() {
        let observed = chained_deposits();
        let outcome = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        let prediction = outcome.prediction().expect("prediction exists");
        assert!(!serializability::check(&prediction.predicted).is_serializable());
        assert!(isopredict_history::causal::is_causal(&prediction.predicted));
        assert_eq!(prediction.changed_reads.len(), 1);
        assert!(prediction.pco_cycle.is_some());
        let cycle = prediction.pco_cycle.as_ref().unwrap();
        assert!(cycle.len() >= 2);
        assert!(format_cycle(cycle).contains("→"));
    }

    #[test]
    fn strict_boundary_finds_nothing_for_the_two_transaction_example() {
        // With only one read per transaction, excluding everything after the
        // changed read also excludes the transaction's own write, and the
        // remaining prefix is serializable.
        let observed = chained_deposits();
        for strategy in [Strategy::ApproxStrict, Strategy::ExactStrict] {
            let outcome =
                predictor(strategy, IsolationLevel::Causal).predict(&observed, &Obs::off());
            assert!(outcome.is_no_prediction(), "{strategy}: {outcome:?}");
        }
    }

    #[test]
    fn exact_and_approx_agree_on_the_deposit_withdraw_history() {
        // Figure 9: a larger history where the relaxed boundary admits a
        // prediction; the exact strategy (strict boundary) must agree with
        // Approx-Strict.
        let observed = deposit_withdraw_deposit();
        let relaxed = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        assert!(relaxed.is_prediction(), "{relaxed:?}");

        let approx_strict = predictor(Strategy::ApproxStrict, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        let exact_strict = predictor(Strategy::ExactStrict, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        assert_eq!(
            approx_strict.is_prediction(),
            exact_strict.is_prediction(),
            "approximate and exact strategies disagree"
        );
    }

    #[test]
    fn voter_like_histories_have_rc_predictions_but_no_causal_ones() {
        let observed = single_writer_history();
        let causal = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        assert!(causal.is_no_prediction());
        // A single read per reader is not enough for an rc anomaly either; the
        // paper's Voter transactions read several keys, which the workload
        // crate models. Here we simply check rc is at least as permissive.
        let rc = predictor(Strategy::ApproxRelaxed, IsolationLevel::ReadCommitted)
            .predict(&observed, &Obs::off());
        assert!(rc.is_no_prediction() || rc.is_prediction());
    }

    #[test]
    fn predictions_conform_to_the_requested_isolation_level() {
        let observed = deposit_withdraw_deposit();
        for isolation in IsolationLevel::ALL {
            let outcome =
                predictor(Strategy::ApproxRelaxed, isolation).predict(&observed, &Obs::off());
            if let Some(prediction) = outcome.prediction() {
                assert!(
                    isolation.is_conformant(&prediction.predicted),
                    "{isolation}: prediction must conform to its level"
                );
                assert!(
                    !serializability::check(&prediction.predicted).is_serializable(),
                    "{isolation}: prediction must be unserializable"
                );
            }
        }
    }

    #[test]
    fn snapshot_finds_nothing_in_single_key_rmw_histories() {
        // Every anomaly reachable from a single-key read-modify-write chain is
        // a lost update, which first-committer-wins forbids — while causal
        // still predicts one (the racing deposits).
        let observed = chained_deposits();
        let causal = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        assert!(causal.is_prediction());
        let si = predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot)
            .predict(&observed, &Obs::off());
        assert!(si.is_no_prediction(), "{si:?}");
        let longer = deposit_withdraw_deposit();
        let si = predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot)
            .predict(&longer, &Obs::off());
        assert!(si.is_no_prediction(), "{si:?}");
    }

    #[test]
    fn snapshot_predicts_write_skew() {
        // Two sessions guarding a two-key invariant: the predictor must find
        // the write-skew execution (stale crossed reads, disjoint writes) —
        // SI-legal by the independent checker, yet unserializable.
        let mut b = isopredict_history::HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "x", TxnId::INITIAL);
        b.read(t1, "y", TxnId::INITIAL);
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "y", t1);
        b.read(t2, "x", TxnId::INITIAL);
        b.write(t2, "x");
        b.commit(t2);
        let observed = b.finish();

        let outcome = predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot)
            .predict(&observed, &Obs::off());
        let prediction = outcome.prediction().expect("write skew must be predicted");
        assert!(isopredict_history::si::is_si(&prediction.predicted));
        assert!(!serializability::check(&prediction.predicted).is_serializable());
        assert!(!prediction.changed_reads.is_empty());
    }

    #[test]
    fn restricted_prediction_matches_whole_history_on_a_closed_component() {
        // `chained_deposits` is a single communication component, so
        // restricting to all of its transactions must not change the verdict.
        let observed = chained_deposits();
        let keep: Vec<TxnId> = observed.committed_transactions().map(|t| t.id).collect();
        let predictor = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal);
        let whole = predictor.predict(&observed, &Obs::off());
        let restricted = predictor.predict(&observed.restrict(&keep, false), &Obs::off());
        assert_eq!(whole.is_prediction(), restricted.is_prediction());
        if let (Some(a), Some(b)) = (whole.prediction(), restricted.prediction()) {
            assert_eq!(a.changed_reads, b.changed_reads);
        }
    }

    #[test]
    fn predict_obs_records_encode_solve_spans_and_solver_counters() {
        use isopredict_obs::{span_forest, MetricsSection, Registry};

        let observed = chained_deposits();
        let registry = Registry::new();
        let obs = registry.obs();
        let root = obs.span("predict");
        let outcome = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, root.obs());
        assert!(outcome.is_prediction());
        let root_id = root.id().expect("enabled");
        root.finish();

        let snapshot = registry.snapshot();
        let forest = span_forest(&snapshot.spans);
        assert_eq!(forest[0].name, "predict");
        let rendered = forest[0].render();
        for needle in ["encode", "feasibility", "isolation", "unserializability"] {
            assert!(rendered.contains(needle), "missing {needle} in\n{rendered}");
        }
        assert!(rendered.contains("solve[result=sat]"), "{rendered}");

        let metrics = MetricsSection::for_span(&snapshot, root_id);
        assert!(metrics.span("predict/encode/feasibility").is_some());
        assert_eq!(metrics.span("predict/solve").unwrap().count, 1);
        assert_eq!(metrics.span("predict/solve/preprocess").unwrap().count, 1);
        assert!(metrics.counter("encode.variables") > 0);
        assert!(metrics.counter("encode.clauses") > 0);
        assert!(metrics.counter("solver.propagations") > 0);
        assert!(metrics.counter("solver.theory_asserts") > 0);
        assert!(
            metrics.counter("solver.theory_searches") <= metrics.counter("solver.theory_asserts")
        );
        assert!(metrics.counter("pp.rounds") > 0);
    }

    #[test]
    fn preprocessing_does_not_change_outcomes_or_predictions() {
        for observed in [chained_deposits(), deposit_withdraw_deposit()] {
            for isolation in IsolationLevel::ALL {
                let on =
                    predictor(Strategy::ApproxRelaxed, isolation).predict(&observed, &Obs::off());
                let off = Predictor::new(PredictorConfig {
                    strategy: Strategy::ApproxRelaxed,
                    isolation,
                    preprocess: false,
                    ..PredictorConfig::default()
                })
                .predict(&observed, &Obs::off());
                assert_eq!(
                    on.is_prediction(),
                    off.is_prediction(),
                    "{isolation}: preprocessing changed the verdict"
                );
                if let (Some(a), Some(b)) = (on.prediction(), off.prediction()) {
                    // Both predictions must independently satisfy the spec;
                    // models may differ, so only verdict-level facts compare.
                    for p in [a, b] {
                        assert!(isolation.is_conformant(&p.predicted));
                        assert!(!serializability::check(&p.predicted).is_serializable());
                    }
                }
            }
        }
    }

    #[test]
    fn exact_strategy_counts_examined_candidates() {
        use isopredict_obs::Registry;

        let observed = deposit_withdraw_deposit();
        let registry = Registry::new();
        let obs = registry.obs();
        let _ = predictor(Strategy::ExactStrict, IsolationLevel::Causal).predict(&observed, &obs);
        let snapshot = registry.snapshot();
        // Every sat solver answer examined one candidate.
        let sat_solves = snapshot
            .spans
            .iter()
            .filter(|s| {
                s.name == "solve" && s.labels.iter().any(|(k, v)| k == "result" && v == "sat")
            })
            .count() as u64;
        assert_eq!(snapshot.counter("exact.candidates"), sat_solves);
        assert!(snapshot.spans.iter().any(|s| s.name == "encode"));
    }

    #[test]
    fn exact_strategy_preprocesses_once_per_analysis() {
        use isopredict_obs::{MetricsSection, Registry};

        // Under read committed the first candidate is serializable, so the
        // loop refines once and predicts on the second.
        let observed = deposit_withdraw_deposit();
        let registry = Registry::new();
        let obs = registry.obs();
        let root = obs.span("predict");
        let outcome = predictor(Strategy::ExactStrict, IsolationLevel::ReadCommitted)
            .predict(&observed, root.obs());
        assert!(outcome.is_prediction());
        let root_id = root.id().expect("enabled");
        root.finish();

        let snapshot = registry.snapshot();
        let candidates = snapshot.counter("exact.candidates");
        assert!(candidates >= 2, "examined {candidates} candidate(s)");
        let metrics = MetricsSection::for_span(&snapshot, root_id);
        assert_eq!(metrics.span("predict/solve").unwrap().count, candidates);
        assert_eq!(metrics.span("predict/solve/preprocess").unwrap().count, 1);
    }

    #[test]
    fn encoding_size_is_one_snapshot_taken_after_encoding() {
        use isopredict_obs::Registry;

        // Under read committed every strategy predicts, and Exact-Strict
        // refines at least once first, so its refinement clauses would show
        // in a snapshot taken any later than the encode phase.
        let observed = deposit_withdraw_deposit();
        for strategy in Strategy::all() {
            let registry = Registry::new();
            let outcome = predictor(strategy, IsolationLevel::ReadCommitted)
                .predict(&observed, &registry.obs());
            let prediction = outcome.prediction().expect("prediction exists");
            let snapshot = registry.snapshot();
            if strategy.is_exact() {
                let candidates = snapshot.counter("exact.candidates");
                assert!(candidates >= 2, "examined {candidates} candidate(s)");
            }
            assert_eq!(
                prediction.stats.literals,
                snapshot.counter("encode.literals"),
                "{strategy}"
            );
            assert_eq!(prediction.stats.clauses, snapshot.counter("encode.clauses"));
            assert_eq!(
                prediction.stats.variables,
                snapshot.counter("encode.variables")
            );
        }
    }

    #[test]
    fn tiny_conflict_budget_reports_unknown() {
        let observed = deposit_withdraw_deposit();
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            conflict_budget: Some(1),
            ..PredictorConfig::default()
        });
        let outcome = predictor.predict(&observed, &Obs::off());
        assert!(outcome.is_unknown() || outcome.is_prediction());
        if outcome.is_unknown() {
            let pm = outcome.postmortem().expect("unknown carries a post-mortem");
            assert_eq!(pm.budget, Some(1));
        }
    }

    #[test]
    fn exhausted_exact_search_attaches_a_postmortem() {
        let observed = deposit_withdraw_deposit();
        let exact = Predictor::new(PredictorConfig {
            strategy: Strategy::ExactStrict,
            isolation: IsolationLevel::Causal,
            max_exact_candidates: 0,
            ..PredictorConfig::default()
        });
        let outcome = exact.predict(&observed, &Obs::off());
        assert!(outcome.is_unknown());
        let pm = outcome.postmortem().expect("unknown carries a post-mortem");
        assert_eq!(pm.attribution.total_conflicts(), pm.stats.conflicts);
        for family in ["feasibility", "isolation:causal", "unserializability"] {
            assert!(
                pm.attribution.families.iter().any(|f| f == family),
                "family {family} must be interned, got {:?}",
                pm.attribution.families
            );
        }
        // A non-unknown outcome exposes no post-mortem.
        let sat = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &Obs::off());
        assert!(sat.postmortem().is_none());
    }

    #[test]
    fn heartbeats_stream_as_schema_v2_events() {
        use isopredict_obs::{validate_stream, BufferSink, Registry};

        let observed = deposit_withdraw_deposit();
        let sink = BufferSink::new();
        let registry = Registry::with_sink(Box::new(sink.clone()));
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            heartbeat_every: 1,
            preprocess: false,
            ..PredictorConfig::default()
        });
        let outcome = predictor.predict(&observed, &registry.obs());
        assert!(!outcome.is_unknown());
        registry.flush();
        let summary = validate_stream(&sink.contents()).expect("stream validates");
        assert_eq!(summary.schema, 2);
        // Any conflict the solve needed produced a heartbeat; the validator
        // has already checked each one's family partition sums to its
        // conflict counter.
        let conflicts = registry.snapshot().counter("solver.conflicts");
        assert!(
            summary.heartbeats as u64 <= conflicts || conflicts == 0,
            "{} heartbeats from {conflicts} conflicts",
            summary.heartbeats
        );
    }
}
