//! The predictor: strategies, solving, and the exact strategy's
//! counterexample-guided search.

use std::time::{Duration, Instant};

use isopredict_history::{serializability, History, TxnId};
use isopredict_obs::{HeartbeatSample, Obs};
use isopredict_smt::{
    Heartbeat, SmtResult, SmtSolver, SolverPostmortem, SolverStats, TermId, TheoryStats,
};

use crate::config::{PredictorConfig, Strategy};
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

    /// Predicts an unserializable execution from an observed history.
    #[must_use]
    pub fn predict(&self, observed: &History) -> PredictionOutcome {
        self.predict_obs(observed, &Obs::off())
    }

    /// Like [`Predictor::predict`], reporting telemetry through `obs`:
    /// an `encode` span with `feasibility`/`isolation`/`unserializability`
    /// children, one `solve` span per solver call (labelled with its result),
    /// `encode.*` size counters, and `solver.*` work counters diffed around
    /// each call. With [`Obs::off`] the cost is a handful of branch checks.
    #[must_use]
    pub fn predict_obs(&self, observed: &History, obs: &Obs) -> PredictionOutcome {
        match self.config.strategy {
            Strategy::ExactStrict => self.predict_exact(observed, obs),
            Strategy::ApproxStrict | Strategy::ApproxRelaxed => self.predict_approx(observed, obs),
        }
    }

    /// Predicts over the restriction of `observed` to the transactions in
    /// `keep` (plus `t0`): the component-restricted analysis behind
    /// `isopredict-orchestrator`'s history sharding.
    ///
    /// The resulting prediction's transaction identifiers, session
    /// identifiers and event positions all refer to the *original* observed
    /// history, so component predictions can be merged back losslessly.
    ///
    /// Soundness requires `keep` to be closed under communication: no kept
    /// transaction may share a key or a session with a dropped one (as
    /// guaranteed by [`isopredict_history::connectivity::KeyComponents`]).
    /// Reads whose writer is dropped would otherwise be dropped with it,
    /// changing the analyzed application behavior.
    #[must_use]
    pub fn predict_restricted(&self, observed: &History, keep: &[TxnId]) -> PredictionOutcome {
        self.predict_restricted_obs(observed, keep, &Obs::off())
    }

    /// Like [`Predictor::predict_restricted`], reporting telemetry through
    /// `obs` (see [`Predictor::predict_obs`]).
    #[must_use]
    pub fn predict_restricted_obs(
        &self,
        observed: &History,
        keep: &[TxnId],
        obs: &Obs,
    ) -> PredictionOutcome {
        self.predict_obs(&observed.restrict(keep, false), obs)
    }

    /// The approximate strategies: one solver call over the full encoding.
    fn predict_approx(&self, observed: &History, obs: &Obs) -> PredictionOutcome {
        // detlint: allow(wall-clock) — timings feed the non-deterministic
        // report half (Prediction::constraint_gen_time), never the verdicts.
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
            if self.config.require_change {
                encoder.encode_require_change();
            }
        }
        {
            let _isolation = encode_obs.span("isolation");
            encoder.smt.set_clause_family(families.isolation);
            encoder.encode_isolation(self.config.isolation);
        }
        let symbols = {
            let _unser = encode_obs.span("unserializability");
            encoder.smt.set_clause_family(families.unserializability);
            encoder.encode_approx_unserializability()
        };
        count_encoding_size(obs, &encoder.smt.solver_stats());
        encode_span.finish();
        let constraint_gen_time = gen_start.elapsed();
        encoder.smt.set_conflict_budget(self.config.conflict_budget);
        install_heartbeat_bridge(&mut encoder.smt, obs, self.config.heartbeat_every);

        let before = encoder.smt.solver_stats();
        let theory_before = encoder.smt.theory_stats();
        // detlint: allow(wall-clock) — solving_time is non-deterministic-half data.
        let solve_start = Instant::now();
        let solve_span = obs.span("solve");
        if self.config.preprocess {
            let pp_span = solve_span.obs().span("preprocess");
            encoder.smt.preprocess();
            pp_span.finish();
        }
        let result = encoder.smt.check();
        solve_span.label("result", smt_result_label(result));
        solve_span.finish();
        let solving_time = solve_start.elapsed();
        count_solver_work(
            obs,
            &encoder.smt.solver_stats().diff(&before),
            &encoder.smt.theory_stats().diff(&theory_before),
        );

        match result {
            SmtResult::Unsat => PredictionOutcome::NoPrediction {
                reason: NoPredictionReason::Unsatisfiable,
            },
            SmtResult::Unknown => PredictionOutcome::Unknown {
                postmortem: Some(Box::new(encoder.smt.solver_postmortem())),
            },
            SmtResult::Sat => {
                let (predicted, boundaries, changed_reads) = extract(&encoder, observed);
                // Recover the pco cycle that witnesses unserializability.
                let mut pco_graph = isopredict_history::graph::DiGraph::new(observed.len());
                for (&(t1, t2), &term) in &symbols.pco {
                    if encoder.smt.model_bool(term) == Some(true) {
                        pco_graph.add_edge(t1, t2);
                    }
                }
                let pco_cycle = pco_graph.find_cycle();
                PredictionOutcome::Prediction(Box::new(Prediction {
                    predicted,
                    boundaries,
                    changed_reads,
                    isolation: self.config.isolation,
                    strategy: self.config.strategy,
                    stats: encoder.smt.stats(),
                    constraint_gen_time,
                    solving_time,
                    pco_cycle,
                }))
            }
        }
    }

    /// The exact strategy (Section 4.2.1). Z3's universally quantified
    /// encoding is replaced by a counterexample-guided loop: enumerate
    /// feasible, isolation-valid candidate executions and accept the first
    /// whose prefix history admits no commit order. Each rejected candidate is
    /// blocked by a clause over its writer choices and boundaries.
    fn predict_exact(&self, observed: &History, obs: &Obs) -> PredictionOutcome {
        // detlint: allow(wall-clock) — timings feed the non-deterministic
        // report half (Prediction::constraint_gen_time), never the verdicts.
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
            if self.config.require_change {
                encoder.encode_require_change();
            }
        }
        {
            let _isolation = encode_obs.span("isolation");
            encoder.smt.set_clause_family(families.isolation);
            encoder.encode_isolation(self.config.isolation);
        }
        count_encoding_size(obs, &encoder.smt.solver_stats());
        encode_span.finish();
        let constraint_gen_time = gen_start.elapsed();
        encoder.smt.set_conflict_budget(self.config.conflict_budget);
        install_heartbeat_bridge(&mut encoder.smt, obs, self.config.heartbeat_every);

        let mut solving_time = Duration::ZERO;
        let mut candidates_examined = 0usize;

        loop {
            if candidates_examined >= self.config.max_exact_candidates {
                return PredictionOutcome::Unknown {
                    postmortem: Some(Box::new(encoder.smt.solver_postmortem())),
                };
            }
            let before = encoder.smt.solver_stats();
            let theory_before = encoder.smt.theory_stats();
            // detlint: allow(wall-clock) — solving_time is non-deterministic-half data.
            let solve_start = Instant::now();
            let solve_span = obs.span("solve");
            if self.config.preprocess {
                // Every blocking clause marks the formula dirty, so each
                // candidate re-runs the whole pipeline over the whole
                // formula (163 calls on the exact-cegar benchmark).
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
                    candidates_examined += 1;
                    obs.count("exact.candidates", 1);
                    let (predicted, boundaries, changed_reads) = extract(&encoder, observed);
                    // detlint: allow(wall-clock) — non-deterministic-half timing.
                    let check_start = Instant::now();
                    let serializable = serializability::check(&predicted).is_serializable();
                    solving_time += check_start.elapsed();
                    if !serializable {
                        return PredictionOutcome::Prediction(Box::new(Prediction {
                            predicted,
                            boundaries,
                            changed_reads,
                            isolation: self.config.isolation,
                            strategy: self.config.strategy,
                            stats: encoder.smt.stats(),
                            constraint_gen_time,
                            solving_time,
                            pco_cycle: None,
                        }));
                    }
                    // Block this candidate and continue searching. The
                    // blocking clauses are the exact strategy's
                    // unserializability condition, so tag them as such.
                    let blocking = self.blocking_clause(&mut encoder);
                    encoder.smt.set_clause_family(families.unserializability);
                    encoder.smt.assert_term(blocking);
                }
            }
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

    /// A clause that excludes the current model's combination of writer
    /// choices and boundary placements.
    fn blocking_clause(&self, encoder: &mut Encoder<'_>) -> TermId {
        let mut literals = Vec::new();
        let choices: Vec<(isopredict_history::SessionId, usize)> =
            encoder.choice.keys().copied().collect();
        for (session, pos) in choices {
            if let Some(writer) = encoder.model_choice(session, pos) {
                let eq = encoder.choice_eq(session, pos, writer);
                literals.push(encoder.smt.not(eq));
            }
        }
        let sessions: Vec<isopredict_history::SessionId> =
            encoder.boundary.keys().copied().collect();
        for session in sessions {
            let boundary = encoder.boundary[&session].clone();
            if let Some(index) = encoder.smt.model_fd(boundary.var) {
                let eq = encoder.smt.fd_eq(boundary.var, index);
                literals.push(encoder.smt.not(eq));
            }
        }
        encoder.smt.or(literals)
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
        // detlint: allow(wall-clock) — heartbeat rates are stream-only
        // telemetry (the non-deterministic half); verdicts never read them.
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
fn count_encoding_size(obs: &Obs, stats: &SolverStats) {
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
    use crate::config::PredictorConfig;
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
        let outcome = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal).predict(&observed);
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
            let outcome = predictor(strategy, IsolationLevel::Causal).predict(&observed);
            assert!(outcome.is_no_prediction(), "{strategy}: {outcome:?}");
        }
    }

    #[test]
    fn exact_and_approx_agree_on_the_deposit_withdraw_history() {
        // Figure 9: a larger history where the relaxed boundary admits a
        // prediction; the exact strategy (strict boundary) must agree with
        // Approx-Strict.
        let observed = deposit_withdraw_deposit();
        let relaxed = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal).predict(&observed);
        assert!(relaxed.is_prediction(), "{relaxed:?}");

        let approx_strict =
            predictor(Strategy::ApproxStrict, IsolationLevel::Causal).predict(&observed);
        let exact_strict =
            predictor(Strategy::ExactStrict, IsolationLevel::Causal).predict(&observed);
        assert_eq!(
            approx_strict.is_prediction(),
            exact_strict.is_prediction(),
            "approximate and exact strategies disagree"
        );
    }

    #[test]
    fn voter_like_histories_have_rc_predictions_but_no_causal_ones() {
        let observed = single_writer_history();
        let causal = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal).predict(&observed);
        assert!(causal.is_no_prediction());
        // A single read per reader is not enough for an rc anomaly either; the
        // paper's Voter transactions read several keys, which the workload
        // crate models. Here we simply check rc is at least as permissive.
        let rc =
            predictor(Strategy::ApproxRelaxed, IsolationLevel::ReadCommitted).predict(&observed);
        assert!(rc.is_no_prediction() || rc.is_prediction());
    }

    #[test]
    fn predictions_conform_to_the_requested_isolation_level() {
        let observed = deposit_withdraw_deposit();
        for isolation in IsolationLevel::ALL {
            let outcome = predictor(Strategy::ApproxRelaxed, isolation).predict(&observed);
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
        let causal = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal).predict(&observed);
        assert!(causal.is_prediction());
        let si = predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot).predict(&observed);
        assert!(si.is_no_prediction(), "{si:?}");
        let longer = deposit_withdraw_deposit();
        let si = predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot).predict(&longer);
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

        let outcome =
            predictor(Strategy::ApproxRelaxed, IsolationLevel::Snapshot).predict(&observed);
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
        let whole = predictor.predict(&observed);
        let restricted = predictor.predict_restricted(&observed, &keep);
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
            .predict_obs(&observed, root.obs());
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
                let on = predictor(Strategy::ApproxRelaxed, isolation).predict(&observed);
                let off = Predictor::new(PredictorConfig {
                    strategy: Strategy::ApproxRelaxed,
                    isolation,
                    preprocess: false,
                    ..PredictorConfig::default()
                })
                .predict(&observed);
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
        let _ =
            predictor(Strategy::ExactStrict, IsolationLevel::Causal).predict_obs(&observed, &obs);
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
    fn tiny_conflict_budget_reports_unknown() {
        let observed = deposit_withdraw_deposit();
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            conflict_budget: Some(1),
            ..PredictorConfig::default()
        });
        let outcome = predictor.predict(&observed);
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
        let outcome = exact.predict(&observed);
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
        let sat = predictor(Strategy::ApproxRelaxed, IsolationLevel::Causal).predict(&observed);
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
        let outcome = predictor.predict_obs(&observed, &registry.obs());
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
