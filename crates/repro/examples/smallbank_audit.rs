//! Smallbank audit: record an observed execution of the Smallbank workload,
//! predict an unserializable execution under causal consistency, and validate
//! it by replaying the workload against the controlled store (Section 5).
//!
//! Run with `cargo run --release --example smallbank_audit`.

use isopredict::{
    report, validate, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let config = WorkloadConfig::small(seed);

    // 1. Record an observed, serializable execution.
    let observed = run(
        Benchmark::Smallbank,
        &config,
        StoreMode::SerializableRecord,
        &Schedule::RoundRobin,
    );
    println!(
        "observed Smallbank execution (seed {seed}): {} committed transactions, {} reads, {} writes",
        observed.history.committed_transactions().count(),
        observed.history.num_reads(),
        observed.history.num_writes()
    );

    // 2. Predict.
    let predictor = Predictor::new(PredictorConfig {
        strategy: Strategy::ApproxRelaxed,
        isolation: IsolationLevel::Causal,
        ..PredictorConfig::default()
    });
    let prediction = match predictor.predict(&observed.history, &Obs::off()) {
        PredictionOutcome::Prediction(p) => p,
        PredictionOutcome::NoPrediction { reason } => {
            println!("no prediction for this seed ({reason:?}); try another seed");
            return;
        }
        PredictionOutcome::Unknown { .. } => {
            println!("solver budget exhausted");
            return;
        }
    };
    println!("\n{}", report::text_report(&observed.history, &prediction));

    // 3. Validate by replaying the workload with the store steering reads
    //    toward the predicted writers.
    let plan = validate::plan_validation(&prediction, &observed.committed_indices);
    let validating = run(
        Benchmark::Smallbank,
        &config,
        StoreMode::Controlled {
            level: IsolationLevel::Causal,
            script: plan.script.clone(),
        },
        &Schedule::Explicit(plan.schedule.clone()),
    );
    let outcome = validate::assess(&validating.history, &validating.divergences);
    println!(
        "validation: unserializable = {}, diverged = {}, assertion violations = {}",
        outcome.validated,
        outcome.diverged,
        validating.violations.len()
    );
    for violation in &validating.violations {
        println!("  assertion failed: {violation}");
    }
}
