//! The trace corpus's contract with the campaign runner, end to end:
//!
//! 1. record → persist → load → analyze produces a **byte-identical**
//!    deterministic report half versus the record-phase path, for every
//!    isolation level in `IsolationLevel::ALL` (property-tested over seeds
//!    and benchmarks);
//! 2. a warm corpus skips the record phase entirely (`trace_source: corpus`
//!    on every cell, zero misses);
//! 3. an external trace imported through `Corpus::import` round-trips into
//!    the analyzer and yields a prediction.

use proptest::prelude::*;

use isopredict::{IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy};
use isopredict_corpus::{testutil::scratch_dir, Corpus, LoadedTrace};
use isopredict_history::TraceMeta;
use isopredict_orchestrator::{Campaign, CampaignOptions};
use isopredict_workloads::Benchmark;

fn campaign_for(benchmark: Benchmark, seed: u64) -> Campaign {
    // Two transactions per session keep debug-mode solves (snapshot
    // isolation's in particular) cheap; every isolation level of the seam is
    // exercised.
    Campaign::new()
        .benchmarks([benchmark])
        .seeds([seed])
        .strategies([Strategy::ApproxRelaxed])
        .isolations(IsolationLevel::ALL)
        .txns_per_session(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// record → persist → load → analyze ≡ the record-phase path, byte for
    /// byte on the deterministic report half, across all isolation levels.
    #[test]
    fn record_persist_load_analyze_is_byte_identical(
        seed in 0u64..4,
        pick in 0usize..3,
    ) {
        let benchmark = [Benchmark::Smallbank, Benchmark::Voter, Benchmark::Overdraft][pick];
        let campaign = campaign_for(benchmark, seed);
        let dir = scratch_dir("prop");
        let with_corpus = CampaignOptions {
            workers: 2,
            corpus: Some(dir.path().to_path_buf()),
            ..CampaignOptions::default()
        };
        let record_phase = CampaignOptions {
            workers: 2,
            ..CampaignOptions::default()
        };

        let recorded = campaign.run(&record_phase); // no corpus at all
        let cold = campaign.run(&with_corpus);      // records + persists
        let warm = campaign.run(&with_corpus);      // loads from disk

        prop_assert_eq!(cold.timing.corpus_hits, 0);
        prop_assert_eq!(warm.timing.corpus_misses, 0);
        prop_assert!(warm.provenance.iter().all(|p| p.trace_source == "corpus"));
        prop_assert!(cold.provenance.iter().all(|p| p.trace_source == "recorded"));

        let baseline = recorded.deterministic_json();
        prop_assert_eq!(
            &baseline, &cold.deterministic_json(),
            "record-phase path and cold-corpus path disagree"
        );
        prop_assert_eq!(
            &baseline, &warm.deterministic_json(),
            "record-phase path and warm-corpus path disagree"
        );
    }
}

#[test]
fn warm_campaigns_skip_recording_and_report_the_saving() {
    let campaign = campaign_for(Benchmark::Smallbank, 0);
    let dir = scratch_dir("warm");
    let options = CampaignOptions {
        workers: 1,
        corpus: Some(dir.path().to_path_buf()),
        ..CampaignOptions::default()
    };
    let cold = campaign.run(&options);
    assert_eq!(cold.timing.corpus_misses, 1);
    assert_eq!(cold.timing.record_saved_us, 0);

    let warm = campaign.run(&options);
    assert_eq!(warm.timing.corpus_hits, 1);
    assert_eq!(warm.timing.corpus_misses, 0);
    assert_eq!(warm.provenance.len(), 1);
    assert_eq!(warm.provenance[0].trace_source, "corpus");
    // The saving reported warm is exactly the cost the cold run paid (as
    // persisted in the manifest at record time).
    assert_eq!(warm.timing.record_saved_us, cold.provenance[0].record_us);
    // Same trace, same address.
    assert_eq!(warm.provenance[0].trace_hash, cold.provenance[0].trace_hash);
    assert_eq!(cold.deterministic_json(), warm.deterministic_json());
}

#[test]
fn imported_external_traces_flow_into_the_analyzer() {
    // An external system hands us a serializable observed execution — two
    // sessions depositing into one account, the second reading the first —
    // in plain trace JSON with none of our recorder's metadata.
    let external = r#"{
        "sessions": [
            {"name": "client-a", "transactions": [
                {"id": 7, "committed": true, "ops": [
                    {"op": "read", "key": "acct", "from": 0},
                    {"op": "write", "key": "acct"}
                ]}
            ]},
            {"name": "client-b", "transactions": [
                {"id": 9, "committed": true, "ops": [
                    {"op": "read", "key": "acct", "from": 7},
                    {"op": "write", "key": "acct"}
                ]}
            ]}
        ]
    }"#;

    let dir = scratch_dir("ingest");
    let corpus = Corpus::open(dir.path()).expect("open corpus");
    let receipt = corpus
        .import(external, |trace| TraceMeta {
            benchmark: "external-deposits".to_string(),
            seed: 0,
            sessions: trace.sessions.len(),
            txns_per_session: 1,
            scale: 0,
            isolation: "external".to_string(),
            store_version: "external".to_string(),
            committed_plan_indices: None,
        })
        .expect("import");

    // Round trip: load by content address, rebuild the history, analyze.
    let trace = corpus.load(&receipt.hash).expect("load imported trace");
    let loaded = LoadedTrace::new(trace).expect("imported trace is analyzable");
    let predictor = Predictor::new(PredictorConfig {
        strategy: Strategy::ApproxRelaxed,
        isolation: IsolationLevel::Causal,
        ..PredictorConfig::default()
    });
    let outcome = predictor.predict(&loaded.history, &Obs::off());
    // The classic racing-deposit anomaly: both transactions reading the
    // initial balance is causally consistent but unserializable, so the
    // predictor must find it in the imported history.
    let PredictionOutcome::Prediction(prediction) = outcome else {
        panic!("expected a prediction from the imported trace, got {outcome:?}");
    };
    assert!(!prediction.changed_reads.is_empty());
}
