//! Benchmarks the constraint-generation + solving pipeline for the different
//! prediction strategies (the ablation behind Tables 4/5's strategy rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_bench::harness::record_observed;
use isopredict_workloads::{Benchmark, WorkloadConfig};

fn bench_strategies(c: &mut Criterion) {
    let config = WorkloadConfig::small(0);
    let observed = record_observed(Benchmark::Smallbank, &config).history;

    let mut group = c.benchmark_group("encoding/smallbank-small");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for strategy in [
        Strategy::ExactStrict,
        Strategy::ApproxStrict,
        Strategy::ApproxRelaxed,
    ] {
        group.bench_with_input(
            BenchmarkId::new("causal", strategy.name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let predictor = Predictor::new(PredictorConfig {
                        strategy,
                        isolation: IsolationLevel::Causal,
                        // Cap the exact strategy's enumeration so the ablation
                        // measures its per-candidate cost rather than running
                        // the full search on every sample.
                        max_exact_candidates: 8,
                        ..PredictorConfig::default()
                    });
                    criterion::black_box(predictor.predict(&observed, &Obs::off()));
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
