//! Emits Graphviz renderings of observed/predicted execution pairs for the
//! paper's example figures (Figures 7, 8 and 10): for each benchmark, the
//! first seed with a successful causal prediction is rendered.
//!
//! Usage: `cargo run -p isopredict-bench --bin figures [-- --out DIR]`

use std::fs;
use std::path::PathBuf;

use isopredict::{
    report, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_bench::harness::record_observed;
use isopredict_history::dot::{render, Overlay};
use isopredict_workloads::{Benchmark, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("figures"));
    fs::create_dir_all(&out_dir).expect("create output directory");

    for benchmark in Benchmark::all() {
        let mut found = false;
        for seed in 0..10u64 {
            let config = WorkloadConfig::small(seed);
            let observed = record_observed(benchmark, &config);
            let predictor = Predictor::new(PredictorConfig {
                strategy: Strategy::ApproxRelaxed,
                isolation: IsolationLevel::Causal,
                ..PredictorConfig::default()
            });
            if let PredictionOutcome::Prediction(prediction) =
                predictor.predict(&observed.history, &Obs::off())
            {
                let name = benchmark.name().to_lowercase().replace('-', "");
                let observed_dot = render(
                    &observed.history,
                    &Overlay {
                        edges: Vec::new(),
                        caption: Some(format!("{benchmark} observed execution (seed {seed})")),
                    },
                );
                let predicted_dot = report::dot_report(&prediction);
                let observed_path = out_dir.join(format!("{name}_seed{seed}_observed.dot"));
                let predicted_path = out_dir.join(format!("{name}_seed{seed}_predicted.dot"));
                fs::write(&observed_path, observed_dot).expect("write observed figure");
                fs::write(&predicted_path, predicted_dot).expect("write predicted figure");
                println!(
                    "{benchmark}: wrote {} and {}",
                    observed_path.display(),
                    predicted_path.display()
                );
                println!("{}", report::text_report(&observed.history, &prediction));
                found = true;
                break;
            }
        }
        if !found {
            println!(
                "{benchmark}: no causal prediction found for seeds 0..10 (expected for Voter)"
            );
        }
    }
}
