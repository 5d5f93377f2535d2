//! Prediction boundaries and divergence (the paper's Figure 9).
//!
//! One session deposits; another withdraws (aborting on insufficient funds)
//! and deposits again. A relaxed-boundary prediction makes the withdrawal
//! read the initial balance — but replaying the application then takes the
//! "insufficient funds" branch and aborts, so the validating execution
//! *diverges* and may end up serializable. This example shows the strict and
//! relaxed boundaries side by side on that scenario.
//!
//! Run with `cargo run --example boundary_divergence`.

use isopredict::{report, IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_history::{HistoryBuilder, TxnId};

fn main() {
    // The observed execution of Figure 9a/9b: deposit 60; withdraw 50 (reads
    // 60, succeeds); deposit 5 (reads 10).
    let mut builder = HistoryBuilder::new();
    let s1 = builder.session("depositor");
    let s2 = builder.session("withdraw-then-deposit");

    let t1 = builder.begin(s1);
    builder.read(t1, "acct", TxnId::INITIAL);
    builder.write(t1, "acct");
    builder.commit(t1);

    let t2 = builder.begin(s2);
    builder.read(t2, "acct", t1);
    builder.write(t2, "acct");
    builder.commit(t2);

    let t3 = builder.begin(s2);
    builder.read(t3, "acct", t2);
    builder.write(t3, "acct");
    builder.commit(t3);

    let observed = builder.finish();

    for strategy in [Strategy::ApproxStrict, Strategy::ApproxRelaxed] {
        println!("=== {strategy} ===");
        let predictor = Predictor::new(PredictorConfig {
            strategy,
            isolation: IsolationLevel::Causal,
            ..PredictorConfig::default()
        });
        match predictor.predict(&observed, &Obs::off()) {
            isopredict::PredictionOutcome::Prediction(prediction) => {
                println!("{}", report::text_report(&observed, &prediction));
                println!(
                    "note: replaying the application may diverge here (the withdrawal \
                     aborts when it reads the initial balance), which is why the strict \
                     boundary refuses this prediction.\n"
                );
            }
            isopredict::PredictionOutcome::NoPrediction { reason } => {
                println!("no prediction ({reason:?}) — the strict boundary excludes the\n  events that could diverge, and what remains is serializable.\n");
            }
            isopredict::PredictionOutcome::Unknown { .. } => println!("budget exhausted\n"),
        }
    }
}
