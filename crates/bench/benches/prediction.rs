//! End-to-end prediction latency per benchmark (the per-benchmark rows of
//! Tables 4 and 5, small workload, Approx-Relaxed under causal).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isopredict::{IsolationLevel, Obs, Predictor, PredictorConfig, Strategy};
use isopredict_bench::harness::record_observed;
use isopredict_workloads::{Benchmark, WorkloadConfig};

fn bench_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("prediction/approx-relaxed-causal");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    for benchmark in [Benchmark::Smallbank, Benchmark::Wikipedia] {
        let config = WorkloadConfig::small(0);
        let observed = record_observed(benchmark, &config).history;
        group.bench_with_input(
            BenchmarkId::from_parameter(benchmark.name()),
            &observed,
            |b, observed| {
                b.iter(|| {
                    let predictor = Predictor::new(PredictorConfig {
                        strategy: Strategy::ApproxRelaxed,
                        isolation: IsolationLevel::Causal,
                        ..PredictorConfig::default()
                    });
                    criterion::black_box(predictor.predict(observed, &Obs::off()));
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_benchmarks);
criterion_main!(benches);
