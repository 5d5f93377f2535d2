//! Driving a workload against the store.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use isopredict_history::{History, Trace, TraceMeta};
use isopredict_store::{Divergence, Engine, RunStats, StoreMode};

use crate::assertions::AssertionViolation;
use crate::config::WorkloadConfig;
use crate::spec::{Benchmark, PlannedTxn, TxnResult};

/// In what order the sessions' transactions execute.
///
/// The store executes transactions serially (as MonkeyDB does); the schedule
/// decides the interleaving at transaction granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Round-robin over the sessions: s0/t0, s1/t0, s2/t0, s0/t1, …
    RoundRobin,
    /// A seeded random interleaving (still one transaction at a time).
    Shuffled {
        /// Seed for the interleaving.
        seed: u64,
    },
    /// An explicit list of `(session, transaction index)` pairs; only the
    /// listed transactions execute, in the given order. Used by validation to
    /// follow the predicted execution's happens-before order.
    Explicit(Vec<(usize, usize)>),
}

impl Schedule {
    /// Expands the schedule into a list of `(session, txn index)` steps.
    fn steps(&self, config: &WorkloadConfig) -> Vec<(usize, usize)> {
        match self {
            Schedule::RoundRobin => {
                let mut steps = Vec::new();
                for txn in 0..config.txns_per_session {
                    for session in 0..config.sessions {
                        steps.push((session, txn));
                    }
                }
                steps
            }
            Schedule::Shuffled { seed } => {
                let mut steps = Schedule::RoundRobin.steps(config);
                let mut rng = ChaCha8Rng::seed_from_u64(*seed ^ 0x5ced);
                steps.shuffle(&mut rng);
                // Restore per-session ordering: transaction i of a session
                // must run before transaction i+1 of the same session.
                let mut per_session: Vec<usize> = vec![0; config.sessions];
                steps
                    .into_iter()
                    .map(|(session, _)| {
                        let index = per_session[session];
                        per_session[session] += 1;
                        (session, index)
                    })
                    .collect()
            }
            Schedule::Explicit(steps) => steps.clone(),
        }
    }
}

/// Everything produced by one workload execution.
#[derive(Debug)]
pub struct RunOutput {
    /// The recorded execution history.
    pub history: History,
    /// The execution's provenance (benchmark, seed, workload shape, store
    /// mode, recorder version). [`RunOutput::trace`] attaches it, plus the
    /// committed plan indices, to the trace it builds, so corpus indexes are
    /// populated from the trace itself.
    pub provenance: TraceMeta,
    /// The transactions that committed, in execution order.
    pub committed: Vec<PlannedTxn>,
    /// The transactions that aborted, in execution order.
    pub aborted: Vec<PlannedTxn>,
    /// For each session, the plan indices of its transactions that committed,
    /// in session order. Together with the plan this lets a validation run
    /// map a committed transaction of the history back to the plan entry that
    /// produced it.
    pub committed_indices: Vec<Vec<usize>>,
    /// Assertion violations over the final state.
    pub violations: Vec<AssertionViolation>,
    /// Store counters.
    pub stats: RunStats,
    /// Divergences (only non-empty in [`StoreMode::Controlled`]).
    pub divergences: Vec<Divergence>,
}

impl RunOutput {
    /// The execution as a serializable [`Trace`]: the committed history plus
    /// the recorder-stamped provenance, with the committed plan indices a
    /// steered replay needs — ready to persist in a trace corpus. Built on
    /// demand so the runner's hot paths (validation replays, random
    /// exploration) never pay for a trace they discard.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let mut trace = Trace::from_history(&self.history);
        trace.meta = Some(TraceMeta {
            committed_plan_indices: Some(self.committed_indices.clone()),
            ..self.provenance.clone()
        });
        trace
    }
}

/// Runs `benchmark` under `config` against a fresh engine in `mode`,
/// interleaving sessions according to `schedule`.
#[must_use]
pub fn run(
    benchmark: Benchmark,
    config: &WorkloadConfig,
    mode: StoreMode,
    schedule: &Schedule,
) -> RunOutput {
    let engine = Engine::new(mode);
    run_on(&engine, benchmark, config, schedule)
}

/// Records an observed (serializable) execution of `benchmark`: the
/// recording every analysis of a (benchmark, config) cell starts from.
#[must_use]
pub fn record_observed(benchmark: Benchmark, config: &WorkloadConfig) -> RunOutput {
    run(
        benchmark,
        config,
        StoreMode::SerializableRecord,
        &Schedule::RoundRobin,
    )
}

/// Runs `benchmark` against an existing engine (whose mode the caller chose).
#[must_use]
pub fn run_on(
    engine: &Engine,
    benchmark: Benchmark,
    config: &WorkloadConfig,
    schedule: &Schedule,
) -> RunOutput {
    benchmark.setup(engine, config);
    let provenance = TraceMeta {
        benchmark: benchmark.name().to_string(),
        seed: config.seed,
        sessions: config.sessions,
        txns_per_session: config.txns_per_session,
        scale: config.scale,
        isolation: engine.mode_label(),
        store_version: isopredict_store::VERSION.to_string(),
        committed_plan_indices: None,
    };
    let plans = benchmark.plan(config);
    let clients: Vec<_> = (0..config.sessions)
        .map(|s| engine.client(format!("session-{s}")))
        .collect();

    let mut committed = Vec::new();
    let mut aborted = Vec::new();
    let mut committed_indices = vec![Vec::new(); config.sessions];
    for (session, txn_index) in schedule.steps(config) {
        let Some(planned) = plans.get(session).and_then(|p| p.get(txn_index)) else {
            continue;
        };
        match benchmark.execute(planned, &clients[session]) {
            TxnResult::Committed => {
                committed.push(planned.clone());
                committed_indices[session].push(txn_index);
            }
            TxnResult::Aborted => aborted.push(planned.clone()),
        }
    }

    let violations = benchmark.assertions(engine, config, &committed);
    RunOutput {
        history: engine.history(),
        provenance,
        committed,
        aborted,
        committed_indices,
        violations,
        stats: engine.stats(),
        divergences: engine.divergences(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_history::serializability;
    use isopredict_store::IsolationLevel;

    #[test]
    fn round_robin_schedule_interleaves_sessions() {
        let config = WorkloadConfig::small(0);
        let steps = Schedule::RoundRobin.steps(&config);
        assert_eq!(steps.len(), 12);
        assert_eq!(steps[0], (0, 0));
        assert_eq!(steps[1], (1, 0));
        assert_eq!(steps[3], (0, 1));
    }

    #[test]
    fn shuffled_schedule_preserves_per_session_order() {
        let config = WorkloadConfig::large(0);
        let steps = Schedule::Shuffled { seed: 9 }.steps(&config);
        assert_eq!(steps.len(), 24);
        for session in 0..config.sessions {
            let indices: Vec<usize> = steps
                .iter()
                .filter(|(s, _)| *s == session)
                .map(|&(_, i)| i)
                .collect();
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            assert_eq!(indices, sorted, "session {session} out of order");
            assert_eq!(indices.len(), config.txns_per_session);
        }
    }

    #[test]
    fn explicit_schedule_runs_only_the_listed_transactions() {
        let config = WorkloadConfig::small(0);
        let output = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::Explicit(vec![(0, 0), (1, 0)]),
        );
        assert_eq!(output.committed.len() + output.aborted.len(), 2);
    }

    #[test]
    fn run_outputs_carry_provenance_stamped_traces() {
        let config = WorkloadConfig::small(3);
        let output = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        let trace = output.trace();
        let meta = trace.meta.as_ref().expect("stamped at record time");
        assert_eq!(meta.benchmark, "Smallbank");
        assert_eq!(meta.seed, 3);
        assert_eq!(meta.sessions, config.sessions);
        assert_eq!(meta.txns_per_session, config.txns_per_session);
        assert_eq!(meta.scale, config.scale);
        assert_eq!(meta.isolation, "serializable-record");
        assert_eq!(meta.store_version, isopredict_store::VERSION);
        assert_eq!(
            meta.committed_plan_indices.as_ref(),
            Some(&output.committed_indices)
        );
        // The trace mirrors the committed history and is byte-deterministic.
        let rebuilt = trace.to_history().expect("recorder trace is valid");
        assert_eq!(
            rebuilt.committed_transactions().count(),
            output.history.committed_transactions().count()
        );
        let again = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        assert_eq!(trace.to_canonical_json(), again.trace().to_canonical_json());
    }

    #[test]
    fn observed_executions_are_serializable_for_every_benchmark() {
        for benchmark in Benchmark::all() {
            let config = WorkloadConfig::small(2);
            let output = run(
                benchmark,
                &config,
                StoreMode::SerializableRecord,
                &Schedule::RoundRobin,
            );
            assert!(
                serializability::check(&output.history).is_serializable(),
                "{benchmark}"
            );
            assert!(output.violations.is_empty(), "{benchmark}");
        }
    }

    #[test]
    fn weak_executions_conform_to_their_isolation_level() {
        // Every level, through the isolation seam: the weak-random execution
        // must pass its own level's conformance checker (for snapshot
        // isolation this exercises the declared-write-set chooser).
        for benchmark in [Benchmark::Smallbank, Benchmark::Voter] {
            for level in IsolationLevel::ALL {
                let config = WorkloadConfig::small(5);
                let weak_run = run(
                    benchmark,
                    &config,
                    StoreMode::WeakRandom { level, seed: 5 },
                    &Schedule::RoundRobin,
                );
                assert!(
                    level.is_conformant(&weak_run.history),
                    "{benchmark} {level}"
                );
            }
        }
    }
}
