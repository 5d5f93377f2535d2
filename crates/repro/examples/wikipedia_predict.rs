//! Wikipedia predictions (the paper's Figure 7): scan seeds of the Wikipedia
//! workload, report which observed executions admit a causal unserializable
//! prediction, and print the prediction for the first seed that does.
//!
//! Wikipedia is read-heavy, so — as in Table 4 — only some seeds yield
//! predictions under causal consistency.
//!
//! Run with `cargo run --release --example wikipedia_predict`.

use isopredict::{
    report, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};

fn main() {
    let seeds = 10u64;
    let mut first_prediction = None;
    let mut prediction_count = 0;

    for seed in 0..seeds {
        let config = WorkloadConfig::small(seed);
        let observed = run(
            Benchmark::Wikipedia,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            ..PredictorConfig::default()
        });
        match predictor.predict(&observed.history, &Obs::off()) {
            PredictionOutcome::Prediction(prediction) => {
                prediction_count += 1;
                println!("seed {seed}: causal unserializable prediction found");
                if first_prediction.is_none() {
                    first_prediction = Some((observed.history, prediction));
                }
            }
            PredictionOutcome::NoPrediction { .. } => {
                println!("seed {seed}: no causal prediction (few writing transactions)");
            }
            PredictionOutcome::Unknown { .. } => println!("seed {seed}: solver budget exhausted"),
        }
    }

    println!("\n{prediction_count}/{seeds} seeds admit a causal prediction");
    if let Some((observed, prediction)) = first_prediction {
        println!("\nFirst prediction in detail:\n");
        println!("{}", report::text_report(&observed, &prediction));
    }
}
