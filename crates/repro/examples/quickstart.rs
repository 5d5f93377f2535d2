//! Quickstart: the paper's motivating example (Figures 1–3).
//!
//! Two clients concurrently deposit into the same account. The observed
//! execution is serializable (the second deposit sees the first); IsoPredict
//! predicts the causally consistent but unserializable execution in which
//! both deposits read the initial balance, losing one of the updates.
//!
//! Run with `cargo run --example quickstart`.

use isopredict::{
    report, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_history::{serializability, HistoryBuilder, TxnId};

fn main() {
    // Build the observed execution of Figure 1a / 2a by hand. (The other
    // examples record observed executions by running workloads against the
    // bundled store; see `smallbank_audit.rs`.)
    let mut builder = HistoryBuilder::new();
    let client1 = builder.session("client-1");
    let client2 = builder.session("client-2");

    // deposit(acct, 50): reads balance 0 from the initial state, writes 50.
    let t1 = builder.begin(client1);
    builder.read(t1, "acct", TxnId::INITIAL);
    builder.write(t1, "acct");
    builder.commit(t1);

    // deposit(acct, 60): reads balance 50 from t1, writes 110.
    let t2 = builder.begin(client2);
    builder.read(t2, "acct", t1);
    builder.write(t2, "acct");
    builder.commit(t2);

    let observed = builder.finish();
    println!(
        "observed execution: {} transactions, serializable = {}",
        observed.committed_transactions().count(),
        serializability::check(&observed).is_serializable()
    );

    // Predict an unserializable execution that is still causally consistent.
    let predictor = Predictor::new(PredictorConfig {
        strategy: Strategy::ApproxRelaxed,
        isolation: IsolationLevel::Causal,
        ..PredictorConfig::default()
    });

    match predictor.predict(&observed, &Obs::off()) {
        PredictionOutcome::Prediction(prediction) => {
            println!("\n{}", report::text_report(&observed, &prediction));
            println!("Graphviz rendering of the predicted execution:\n");
            println!("{}", report::dot_report(&prediction));
        }
        PredictionOutcome::NoPrediction { reason } => {
            println!("no unserializable execution can be predicted: {reason:?}");
        }
        PredictionOutcome::Unknown { .. } => println!("solver budget exhausted"),
    }
}
