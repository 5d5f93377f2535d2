//! The campaign runner's reproducibility contract: for a fixed campaign
//! specification, the deterministic half of the report is byte-identical no
//! matter how many workers execute it.

use isopredict::{IsolationLevel, Strategy};
use isopredict_orchestrator::{Campaign, CampaignOptions, ShardPolicy};
use isopredict_workloads::Benchmark;

fn campaign() -> Campaign {
    Campaign::new()
        .benchmarks([Benchmark::Smallbank, Benchmark::Voter])
        .seeds([0, 1])
        .strategies([Strategy::ApproxRelaxed])
        .isolations([IsolationLevel::Causal, IsolationLevel::ReadCommitted])
        .txns_per_session(2)
}

#[test]
fn campaign_reports_are_byte_identical_across_1_2_and_8_workers() {
    let campaign = campaign();
    let reports: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            campaign
                .run(&CampaignOptions {
                    workers,
                    conflict_budget: Some(2_000_000),
                    shard_policy: ShardPolicy::default(),
                    corpus: None,
                    ..CampaignOptions::default()
                })
                .deterministic_json()
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "1-worker and 2-worker campaigns disagree"
    );
    assert_eq!(
        reports[1], reports[2],
        "2-worker and 8-worker campaigns disagree"
    );
    // The report is not trivially empty.
    assert!(reports[0].contains("\"benchmark\": \"Smallbank\""));
    assert!(reports[0].contains("\"benchmark\": \"Voter\""));
}

/// The deterministic report halves of `campaign` with preprocessing on and
/// off.
fn halves_with_and_without_preprocessing(campaign: &Campaign) -> [String; 2] {
    [true, false].map(|preprocess| {
        campaign
            .run(&CampaignOptions {
                workers: 2,
                preprocess,
                ..CampaignOptions::default()
            })
            .deterministic_json()
    })
}

#[test]
fn deterministic_half_is_byte_identical_with_and_without_preprocessing() {
    // Preprocessing is equisatisfiable, so it may change which model the
    // solver finds but never a verdict: the deterministic report half
    // (verdict-level fields only) must not move when it is toggled.
    let halves = halves_with_and_without_preprocessing(&campaign());
    assert_eq!(
        halves[0], halves[1],
        "preprocessing changed the deterministic report half"
    );
    assert!(halves[0].contains("\"outcome\""));
}

#[test]
fn exact_strict_deterministic_half_is_byte_identical_with_and_without_preprocessing() {
    // The exact strategy's refinement path depends on the models the solver
    // finds, so this holds only because each refinement step excludes whole
    // classes of candidates and the reported size is the encoding's.
    let campaign = campaign().strategies([Strategy::ExactStrict]);
    let halves = halves_with_and_without_preprocessing(&campaign);
    assert_eq!(
        halves[0], halves[1],
        "preprocessing changed the Exact-Strict deterministic report half"
    );
    assert!(
        !halves[0].contains("\"outcome\": \"unknown\""),
        "{}",
        halves[0]
    );
}

#[test]
fn exact_strict_decides_wikipedia_rc_without_preprocessing() {
    // Blocking one solver model per serializable candidate used to exhaust
    // the 256-candidate cap here without preprocessing (`unknown`) while the
    // preprocessed run validated.
    let report = Campaign::new()
        .benchmarks([Benchmark::Wikipedia])
        .seeds([0, 1])
        .strategies([Strategy::ExactStrict])
        .isolations([IsolationLevel::ReadCommitted])
        .run(&CampaignOptions {
            workers: 2,
            preprocess: false,
            ..CampaignOptions::default()
        });
    assert_eq!(report.tasks.len(), 2);
    for task in &report.tasks {
        assert_eq!(task.outcome, "validated", "seed {}", task.seed);
    }
}

#[test]
fn shard_policies_agree_on_experiment_verdicts() {
    // Sharding must never change an experiment's outcome, only how the work
    // is decomposed: compare never-shard vs always-shard campaigns
    // field-by-field on the verdict columns.
    let campaign = campaign();
    let whole = campaign.run(&CampaignOptions {
        workers: 2,
        conflict_budget: Some(2_000_000),
        shard_policy: ShardPolicy::Never,
        corpus: None,
        ..CampaignOptions::default()
    });
    let sharded = campaign.run(&CampaignOptions {
        workers: 2,
        conflict_budget: Some(2_000_000),
        shard_policy: ShardPolicy::Always,
        corpus: None,
        ..CampaignOptions::default()
    });
    assert_eq!(whole.tasks.len(), sharded.tasks.len());
    for (a, b) in whole.tasks.iter().zip(&sharded.tasks) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.isolation, b.isolation);
        // Unknown verdicts depend on the solver budget split and may differ;
        // decisive verdicts must agree on whether a prediction exists.
        let decisive = |outcome: &str| outcome != "unknown";
        if decisive(&a.outcome) && decisive(&b.outcome) {
            let predicts = |outcome: &str| outcome == "validated" || outcome == "failed_validation";
            assert_eq!(
                predicts(&a.outcome),
                predicts(&b.outcome),
                "{}/{}/{}: whole={} sharded={}",
                a.benchmark,
                a.seed,
                a.isolation,
                a.outcome,
                b.outcome
            );
        }
    }
}
