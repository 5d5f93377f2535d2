//! The predictor: one encode phase and one solve loop for every strategy,
//! with the exact strategy's counterexample-guided refinement inside it.

use std::time::{Duration, Instant};

use isopredict_history::{serializability, History, SerializabilityResult, TxnId};
use isopredict_obs::{HeartbeatSample, Obs, Span};
use isopredict_smt::{EncodingStats, Heartbeat, SmtResult, SmtSolver, SolverPostmortem};

use crate::config::PredictorConfig;
use crate::encode::unserializability::ApproxSymbols;
use crate::encode::Encoder;
use crate::prediction::{extract, Prediction};

/// The conflict budget of the probe search that runs before preprocessing
/// (see [`Predictor::predict`]). Most analysis units decide within a few
/// conflicts, and for them preprocessing costs more than the search. In a
/// sweep over 10, 25, 50, 100 and 200 on the three benchmark workloads,
/// the same 8 of rc-sweep's 31 units preprocessed at every budget up to
/// 100, its median wall time was flat from 10 to 50 and 2–4% higher from
/// 100 on, and an undecided unit pays the whole probe: 50 is the largest
/// budget before the rise.
pub(crate) const PROBE_CONFLICTS: u64 = 50;

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
        /// The solver's flight-recorder post-mortem: final per-family
        /// conflict attribution plus the retained heartbeat ring.
        /// Non-deterministic-half data only: it explains where the budget
        /// went, never what the verdict would have been.
        postmortem: Box<SolverPostmortem>,
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
            PredictionOutcome::Unknown { postmortem } => Some(postmortem),
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
    /// the probe search and, if the probe did not decide, the `preprocess`
    /// span, and the exact strategy's span also covers its candidate's
    /// check), `encode.*` size counters, `solver.*` / `pp.*`
    /// work counters (the solver's totals, counted once when the analysis
    /// ends) and, every 10,000 conflicts, a solver heartbeat. Pass
    /// [`Obs::off`] for no telemetry; the cost is then a handful of branch
    /// checks and the spans' clock reads. The spans are also the
    /// prediction's timers: `constraint_gen_time` is the `encode` span and
    /// `solving_time` the sum of the `solve` spans, whether or not telemetry
    /// is on.
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
    /// The first `solve` span probes before it preprocesses (the one-step
    /// inprocessing schedule of Järvisalo, Heule & Biere, "Inprocessing
    /// Rules", IJCAR 2012): it searches the formula as encoded under
    /// `PROBE_CONFLICTS` (50) conflicts, and only if that does not decide does
    /// it rewind the solver, preprocess once and search again under the
    /// configured budget. The rewind restores the exact pre-search state, so
    /// every analysis ends either as it would preprocessed first or as it
    /// would without preprocessing. Refinement clauses join the (possibly
    /// simplified) formula incrementally: the SAT core maps them through its
    /// substitutions and restores any eliminated variable they mention, so
    /// later candidates cost a search, not another pass of the pipeline.
    #[must_use]
    pub fn predict(&self, observed: &History, obs: &Obs) -> PredictionOutcome {
        let mut encoding = self.encode(observed, obs);
        let outcome = self.solve(observed, &mut encoding, obs);
        // The solver is this analysis's own and its counters are
        // cumulative, so one read at the end is the analysis's total work.
        for (name, total) in encoding.encoder.smt.work_counters() {
            obs.count(name, total);
        }
        outcome
    }

    /// The solve loop shared by every strategy, run on a fresh encoding
    /// (see [`Predictor::predict`]).
    pub(crate) fn solve(
        &self,
        observed: &History,
        encoding: &mut Encoding<'_>,
        obs: &Obs,
    ) -> PredictionOutcome {
        let Encoding {
            encoder,
            approx,
            families,
            stats,
            constraint_gen_time,
        } = encoding;
        encoder.smt.set_conflict_budget(self.config.conflict_budget);

        let refines = self.config.strategy.is_exact();
        let mut solving_time = Duration::ZERO;
        let mut candidates_examined = 0usize;
        loop {
            if refines && candidates_examined >= self.config.max_exact_candidates {
                return PredictionOutcome::Unknown {
                    postmortem: Box::new(encoder.smt.solver_postmortem()),
                };
            }
            let solve_span = obs.span("solve");
            let result = if self.config.preprocess && candidates_examined == 0 {
                self.probe_then_preprocess(&mut encoder.smt, &solve_span, obs)
            } else {
                install_heartbeat_bridge(&mut encoder.smt, obs);
                encoder.smt.check()
            };
            solve_span.label("result", smt_result_label(result));
            let (predicted, boundaries, changed_reads) = match result {
                SmtResult::Unknown => {
                    return PredictionOutcome::Unknown {
                        postmortem: Box::new(encoder.smt.solver_postmortem()),
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
                // The approximate strategies' model is the prediction.
                SmtResult::Sat if !refines => {
                    solving_time += solve_span.finish();
                    extract(encoder, observed)
                }
                // The exact strategy's candidate check belongs to its solve
                // call, so its span covers the verdict too.
                SmtResult::Sat => {
                    let (predicted, boundaries, changed_reads) = extract(encoder, observed);
                    candidates_examined += 1;
                    obs.count("exact.candidates", 1);
                    let verdict = self
                        .config
                        .isolation
                        .is_conformant(&predicted)
                        .then(|| serializability::check(&predicted));
                    solving_time += solve_span.finish();
                    let refinement = match verdict {
                        Some(SerializabilityResult::Unserializable) => None,
                        Some(SerializabilityResult::Serializable { witness }) => {
                            Some(encoder.witness_refinement(&witness))
                        }
                        // The snapshot encoding is weaker than SI (see
                        // `encode_snapshot`), so the exact checker has the
                        // last word on conformance; a candidate it rejects is
                        // ruled out alone.
                        None => Some(encoder.candidate_exclusion()),
                    };
                    if let Some(refinement) = refinement {
                        // The refinement clauses are the exact strategy's
                        // unserializability condition.
                        encoder.smt.set_clause_family(families.unserializability);
                        encoder.smt.assert_term(refinement);
                        continue;
                    }
                    (predicted, boundaries, changed_reads)
                }
            };
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
                stats: *stats,
                constraint_gen_time: *constraint_gen_time,
                solving_time,
                pco_cycle,
            }));
        }
    }

    /// The first search of a preprocessing analysis: the formula as encoded
    /// under [`PROBE_CONFLICTS`] (or the configured budget, if smaller), and
    /// only if that does not decide, a rewind, the `preprocess` span under
    /// `solve_span`, and the search again under the configured budget. The
    /// rewind makes that second search exactly the one a solver preprocessed
    /// before its first search would run.
    fn probe_then_preprocess(
        &self,
        smt: &mut SmtSolver,
        solve_span: &Span,
        obs: &Obs,
    ) -> SmtResult {
        let budget = self.config.conflict_budget;
        smt.set_conflict_budget(Some(
            budget.map_or(PROBE_CONFLICTS, |b| b.min(PROBE_CONFLICTS)),
        ));
        // The probe is far shorter than the heartbeat interval, so only the
        // search after preprocessing needs the bridge.
        let probe = smt.check();
        smt.set_conflict_budget(budget);
        if probe != SmtResult::Unknown {
            return probe;
        }
        smt.rewind();
        let pp_span = solve_span.obs().span("preprocess");
        smt.preprocess();
        pp_span.finish();
        install_heartbeat_bridge(smt, obs);
        smt.check()
    }

    /// The encode phase shared by every strategy, under an `encode` span.
    pub(crate) fn encode<'h>(&self, observed: &'h History, obs: &Obs) -> Encoding<'h> {
        let encode_span = obs.span("encode");
        let encode_obs = encode_span.obs();
        let mut encoder = Encoder::new(observed, self.config.strategy.boundary());
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
        Encoding {
            encoder,
            approx,
            families,
            stats,
            constraint_gen_time: encode_span.finish(),
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

/// When telemetry is on, installs the hook that turns the solver's
/// count-only heartbeats (one every 10,000 conflicts, the SAT core's
/// interval) into obs events. The bridge — not the solver — owns the rate
/// clock, so the SAT core stays deterministic and obs-free: it reports
/// counts, and the rate is computed here from the time between samples.
/// It is installed afresh right before each search, after preprocessing,
/// so the first sample's rate runs from the start of that search and its
/// conflict count.
#[expect(
    clippy::disallowed_methods,
    reason = "heartbeat rates are stream-only telemetry (the non-deterministic half); \
              verdicts never read them"
)]
fn install_heartbeat_bridge(smt: &mut SmtSolver, obs: &Obs) {
    if !obs.is_enabled() {
        return;
    }
    let obs = obs.clone();
    let families: Vec<String> = smt.clause_families().to_vec();
    let mut last = (Instant::now(), smt.attribution().total_conflicts());
    smt.set_heartbeat_hook(Some(Box::new(move |hb: &Heartbeat| {
        let now = Instant::now();
        let dt = now.duration_since(last.0).as_secs_f64();
        let dc = hb.conflicts.saturating_sub(last.1) as f64;
        let conflicts_per_sec = if dt > 0.0 { dc / dt } else { 0.0 };
        last = (now, hb.conflicts);
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
        let restricted = predictor.predict(&observed.restrict(&keep), &Obs::off());
        assert_eq!(whole.is_prediction(), restricted.is_prediction());
        if let (Some(a), Some(b)) = (whole.prediction(), restricted.prediction()) {
            assert_eq!(a.changed_reads, b.changed_reads);
        }
    }

    #[test]
    fn predict_obs_records_encode_solve_spans_and_solver_counters() {
        use isopredict_obs::{span_forest, MetricsSection, Registry};

        // Approx-Strict under read committed needs more conflicts than the
        // probe allows, so the analysis preprocesses.
        let observed = two_key_round_robin();
        let registry = Registry::new();
        let obs = registry.obs();
        let root = obs.span("predict");
        let outcome = predictor(Strategy::ApproxStrict, IsolationLevel::ReadCommitted)
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

    /// Exact-Strict under snapshot isolation on a 20-transaction
    /// round-robin history: its first candidate takes more conflicts than
    /// the probe allows, so the analysis preprocesses, and every candidate
    /// is serializable, so the loop refines until the candidate cap (3)
    /// ends it.
    fn exact_analysis_past_the_probe() -> (History, Predictor) {
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ExactStrict,
            isolation: IsolationLevel::Snapshot,
            max_exact_candidates: 3,
            ..PredictorConfig::default()
        });
        (round_robin(5, &["x", "y", "z"], 20), predictor)
    }

    #[test]
    fn exact_strategy_preprocesses_once_per_analysis() {
        use isopredict_obs::{MetricsSection, Registry};

        let (observed, predictor) = exact_analysis_past_the_probe();
        let registry = Registry::new();
        let obs = registry.obs();
        let root = obs.span("predict");
        let outcome = predictor.predict(&observed, root.obs());
        assert!(outcome.is_unknown(), "{outcome:?}");
        let root_id = root.id().expect("enabled");
        root.finish();

        let snapshot = registry.snapshot();
        let candidates = snapshot.counter("exact.candidates");
        assert_eq!(candidates, 3, "the candidate cap ends the loop");
        let metrics = MetricsSection::for_span(&snapshot, root_id);
        assert_eq!(metrics.span("predict/solve").unwrap().count, candidates);
        assert_eq!(metrics.span("predict/solve/preprocess").unwrap().count, 1);
    }

    #[test]
    fn only_an_analysis_the_probe_does_not_decide_preprocesses() {
        use isopredict_obs::{MetricsSection, Registry};

        let undecided = predictor(Strategy::ApproxStrict, IsolationLevel::ReadCommitted);
        let cases = [
            // (history, predictor, whether the probe decides)
            (
                chained_deposits(),
                predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal),
                true,
            ),
            (
                deposit_withdraw_deposit(),
                predictor(Strategy::ExactStrict, IsolationLevel::ReadCommitted),
                true,
            ),
            (two_key_round_robin(), undecided.clone(), false),
            (single_writer_history(), undecided, false),
        ];
        for (observed, predictor, decided) in cases {
            let registry = Registry::new();
            let obs = registry.obs();
            let root = obs.span("predict");
            let outcome = predictor.predict(&observed, root.obs());
            assert!(!outcome.is_unknown(), "{outcome:?}");
            let root_id = root.id().expect("enabled");
            root.finish();
            let snapshot = registry.snapshot();
            let metrics = MetricsSection::for_span(&snapshot, root_id);
            let preprocess_spans = metrics
                .span("predict/solve/preprocess")
                .map_or(0, |span| span.count);
            let conflicts = snapshot.counter("solver.conflicts");
            if decided {
                assert_eq!(preprocess_spans, 0, "{}", predictor.config().strategy);
                assert!(conflicts < PROBE_CONFLICTS);
                assert_eq!(snapshot.counter("pp.rounds"), 0);
            } else {
                assert_eq!(preprocess_spans, 1, "{}", predictor.config().strategy);
                // The same encoding preprocessed before its first search, as
                // the solve loop did before it probed.
                let mut encoding = predictor.encode(&observed, &Obs::off());
                encoding.encoder.smt.preprocess();
                encoding.encoder.smt.check();
                let first = encoding.encoder.smt.work_counters();
                let first_conflicts = first
                    .iter()
                    .find(|&&(name, _)| name == "solver.conflicts")
                    .map_or(0, |&(_, total)| total);
                // The rewind makes the search after preprocessing the one a
                // solver preprocessed first runs: it adds nothing but the
                // probe's conflicts, and preprocessing does the same work.
                assert_eq!(conflicts, PROBE_CONFLICTS + first_conflicts);
                for &(name, total) in first.iter().filter(|(name, _)| name.starts_with("pp.")) {
                    assert_eq!(snapshot.counter(name), total, "{name}");
                }
                assert!(snapshot.counter("pp.rounds") > 0);
            }
        }
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
    fn heartbeats_stream_as_schema_events() {
        use isopredict_obs::{validate_stream, BufferSink, Registry, SCHEMA_VERSION};

        let observed = deposit_withdraw_deposit();
        let sink = BufferSink::new();
        let registry = Registry::with_sink(Box::new(sink.clone()));
        let outcome = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal)
            .predict(&observed, &registry.obs());
        assert!(!outcome.is_unknown());
        registry.flush();
        let summary = validate_stream(&sink.contents()).expect("stream validates");
        assert_eq!(summary.schema, SCHEMA_VERSION);
        // One heartbeat per 10,000 conflicts (the orchestrator's campaign
        // tests cover a solve long enough to stream some); the validator has
        // already checked each one's family partition sums to its conflict
        // counter.
        let conflicts = registry.snapshot().counter("solver.conflicts");
        assert_eq!(summary.heartbeats as u64, conflicts / 10_000);
    }

    #[test]
    fn traced_predict_counts_each_work_counter_once_at_its_total() {
        use isopredict_obs::{validate_stream, BufferSink, Registry};

        // A probe, a preprocessed search and two refined ones: the analysis
        // makes several solver calls.
        let (observed, predictor) = exact_analysis_past_the_probe();
        let sink = BufferSink::new();
        let registry = Registry::with_sink(Box::new(sink.clone()));
        assert!(predictor.predict(&observed, &registry.obs()).is_unknown());
        registry.flush();
        let snapshot = registry.snapshot();
        let candidates = snapshot.counter("exact.candidates");
        assert!(candidates >= 2, "examined {candidates} candidate(s)");

        // The same analysis untraced (the search is deterministic), to read
        // its solver's final totals.
        let mut encoding = predictor.encode(&observed, &Obs::off());
        assert!(predictor
            .solve(&observed, &mut encoding, &Obs::off())
            .is_unknown());
        let totals = encoding.encoder.smt.work_counters();

        let mut names: Vec<&str> = totals.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), totals.len(), "work counter names are unique");
        let mut nonzero = 0;
        for &(name, total) in &totals {
            assert_eq!(snapshot.counter(name), total, "{name}");
            nonzero += u64::from(total > 0);
        }
        assert!(snapshot.counter("solver.propagations") > 0);
        assert!(snapshot.counter("pp.rounds") > 0);
        // Refinement clauses restore eliminated variables as they are
        // added, between solver calls, where no per-call count sees them.
        assert!(snapshot.counter("pp.restored") > 0);
        // One counter event per non-zero work counter, beside the three
        // `encode.*` sizes and one `exact.candidates` event per candidate.
        let summary = validate_stream(&sink.contents()).expect("stream validates");
        assert_eq!(summary.counter_updates as u64, nonzero + 3 + candidates);
    }
}
