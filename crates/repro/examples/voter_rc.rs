//! Voter under causal consistency vs read committed.
//!
//! The paper observes (Section 7.2, footnote 5) that Voter admits **no**
//! unserializable prediction under causal consistency — every observed
//! execution has a single writing transaction — while under read committed a
//! transaction may legally read both the initial state and the write, so
//! predictions exist. This example reproduces that asymmetry for ten seeds.
//!
//! Run with `cargo run --release --example voter_rc`.

use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};

fn main() {
    let mut causal_predictions = 0;
    let mut rc_predictions = 0;
    let seeds = 10u64;

    for seed in 0..seeds {
        let config = WorkloadConfig::small(seed);
        let observed = run(
            Benchmark::Voter,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        let writing = observed
            .history
            .committed_transactions()
            .filter(|t| !t.is_read_only())
            .count();

        let causal = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            ..PredictorConfig::default()
        })
        .predict(&observed.history, &Obs::off());
        let rc = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::ReadCommitted,
            ..PredictorConfig::default()
        })
        .predict(&observed.history, &Obs::off());

        if causal.is_prediction() {
            causal_predictions += 1;
        }
        if rc.is_prediction() {
            rc_predictions += 1;
        }
        println!(
            "seed {seed}: {writing} writing txn(s); causal prediction = {}, rc prediction = {}",
            causal.is_prediction(),
            rc.is_prediction()
        );
    }

    println!("\ncausal predictions: {causal_predictions}/{seeds} (the paper reports 0/10)");
    println!("rc predictions:     {rc_predictions}/{seeds} (the paper reports 10/10)");
}
