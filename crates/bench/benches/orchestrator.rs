//! Benchmarks of the parallel prediction orchestrator: campaign latency at
//! several worker counts, and whole-history versus sharded analysis of a
//! key-disjoint history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_history::{History, HistoryBuilder, TxnId};
use isopredict_orchestrator::{merge_outcomes, Campaign, CampaignOptions, ShardPlan, ShardPolicy};
use isopredict_workloads::Benchmark;

fn campaign() -> Campaign {
    Campaign::new()
        .benchmarks([Benchmark::Smallbank, Benchmark::Voter])
        .seeds([0, 1])
        .strategies([Strategy::ApproxRelaxed])
        .isolations([IsolationLevel::ReadCommitted])
        .txns_per_session(3)
}

fn bench_campaign_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("orchestrator/campaign");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(20));
    let campaign = campaign();
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    criterion::black_box(campaign.run(&CampaignOptions {
                        workers,
                        conflict_budget: Some(2_000_000),
                        shard_policy: ShardPolicy::default(),
                        corpus: None,
                        ..CampaignOptions::default()
                    }))
                });
            },
        );
    }
    group.finish();
}

/// `pairs` key-disjoint racing-deposit components.
fn disjoint_history(pairs: usize) -> History {
    let mut b = HistoryBuilder::new();
    for p in 0..pairs {
        let key = format!("acct-{p}");
        let s1 = b.session(format!("s{p}a"));
        let s2 = b.session(format!("s{p}b"));
        let t1 = b.begin(s1);
        b.read(t1, &key, TxnId::INITIAL);
        b.write(t1, &key);
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, &key, t1);
        b.write(t2, &key);
        b.commit(t2);
    }
    b.finish()
}

fn bench_sharded_vs_whole(c: &mut Criterion) {
    let mut group = c.benchmark_group("orchestrator/sharding");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    let observed = disjoint_history(6);
    let predictor = Predictor::new(PredictorConfig {
        strategy: Strategy::ApproxRelaxed,
        isolation: IsolationLevel::Causal,
        ..PredictorConfig::default()
    });

    group.bench_with_input(
        BenchmarkId::from_parameter("whole-history"),
        &observed,
        |b, observed| {
            b.iter(|| criterion::black_box(predictor.predict(observed, &Obs::off())));
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("per-shard-merged"),
        &observed,
        |b, observed| {
            b.iter(|| {
                let plan = ShardPlan::new(observed, ShardPolicy::Always);
                let outcomes: Vec<_> = plan
                    .units
                    .iter()
                    .map(|unit| predictor.predict(&plan.history_for(observed, unit), &Obs::off()))
                    .collect();
                criterion::black_box(merge_outcomes(observed, &outcomes, plan.sharded))
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_campaign_workers, bench_sharded_vs_whole);
criterion_main!(benches);
