//! Predicting and validating **write skew** under snapshot isolation — the
//! anomaly that separates SI from serializability, end to end through the
//! isolation seam.
//!
//! Two tellers share a two-account invariant: a withdrawal from either
//! account is allowed while the *combined* balance covers it. Under
//! snapshot isolation both withdrawals can read the *same old snapshot* and
//! debit their own accounts without ever conflicting on a write —
//! first-committer-wins never fires, so the execution is SI-legal, yet no
//! serial order explains the crossed stale reads.
//!
//! Run with: `cargo run --release --example write_skew_si`

use isopredict::{validate, IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_history::{serializability, si, History};
use isopredict_store::{Divergence, Engine, StoreMode, Value};

/// Runs the two-teller application: each session checks the combined balance
/// and withdraws 60 from its own account if the funds are there.
fn run_tellers(mode: StoreMode, order: &[usize]) -> (History, Vec<Divergence>) {
    let engine = Engine::new(mode);
    engine.set_initial("checking", Value::Int(100));
    engine.set_initial("savings", Value::Int(100));
    let clients = [engine.client("teller-1"), engine.client("teller-2")];
    let own_keys = ["checking", "savings"];
    for &session in order {
        let mut t = clients[session].begin();
        // Snapshot-isolation clients declare their write intent up front so
        // the store can enforce first-committer-wins.
        t.declare_writes([own_keys[session]]);
        let checking = t.get_int("checking", 0);
        let savings = t.get_int("savings", 0);
        if checking + savings >= 60 {
            let own = if session == 0 { checking } else { savings };
            t.put(own_keys[session], own - 60);
        }
        t.commit();
    }
    (engine.history(), engine.divergences())
}

fn main() {
    // 1. Record the observed, serializable execution: teller 1 withdraws,
    //    then teller 2 withdraws seeing the drained checking balance.
    let (observed, _) = run_tellers(StoreMode::SerializableRecord, &[0, 1]);
    assert!(serializability::check(&observed).is_serializable());
    println!("observed execution is serializable (teller 2 saw teller 1's withdrawal)");

    // 2. Predict under snapshot isolation.
    let predictor = Predictor::new(PredictorConfig {
        strategy: Strategy::ApproxRelaxed,
        isolation: IsolationLevel::Snapshot,
        ..PredictorConfig::default()
    });
    let outcome = predictor.predict(&observed, &Obs::off());
    let prediction = outcome
        .prediction()
        .expect("snapshot isolation admits the write-skew execution");
    println!(
        "predicted an unserializable SI execution ({} changed read{})",
        prediction.changed_reads.len(),
        if prediction.changed_reads.len() == 1 {
            ""
        } else {
            "s"
        },
    );
    for changed in &prediction.changed_reads {
        println!(
            "  session {} now reads {} from {} (was {})",
            changed.session.index(),
            changed.key,
            changed.predicted,
            changed.observed,
        );
    }
    assert!(si::is_si(&prediction.predicted), "prediction is SI-legal");
    assert!(
        !serializability::check(&prediction.predicted).is_serializable(),
        "prediction is unserializable"
    );

    // 3. Validate: replay the application with the store steered toward the
    //    predicted writers, preserving snapshot isolation.
    let committed = vec![vec![0], vec![0]];
    let plan = validate::plan_validation(prediction, &committed);
    let schedule: Vec<usize> = plan.schedule.iter().map(|&(session, _)| session).collect();
    let (validating, divergences) = run_tellers(
        StoreMode::Controlled {
            level: IsolationLevel::Snapshot,
            script: plan.script.clone(),
        },
        &schedule,
    );
    let assessment = validate::assess(&validating, &divergences);
    assert!(assessment.validated, "the replayed anomaly is real");
    assert!(si::is_si(&validating), "the replay preserved SI");
    println!(
        "validated: the steered replay is unserializable under snapshot isolation \
         (diverged: {}); both tellers withdrew against the same stale snapshot",
        assessment.diverged,
    );
}
