//! Regenerates Tables 4 and 5: IsoPredict's effectiveness and performance
//! under causal consistency (Table 4) and read committed (Table 5).
//!
//! The benchmark × strategy × seed matrix is executed by the orchestrator's
//! worker pool; results aggregate into the same rows regardless of worker
//! count.
//!
//! Usage:
//! `cargo run --release -p isopredict-bench --bin table4_5 -- [--isolation causal|rc|si] [--size small|large] [--seeds N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]`
//!
//! With `--corpus DIR`, observed executions already in the trace corpus are
//! loaded instead of re-recorded, and fresh recordings are persisted there.
//! `--metrics PATH` streams the run's telemetry (phase spans, solver
//! counters) as JSONL events to `PATH`.
//!
//! An unknown option or name, a malformed number, `--seeds 0` or a corpus
//! that cannot be opened prints the usage line and exits with status 2.

use std::process::ExitCode;

use isopredict::{IsolationLevel, Obs, Strategy};
use isopredict_bench::cli::TableArgs;
use isopredict_bench::harness::run_experiment;
use isopredict_bench::tables::PredictionRow;
use isopredict_obs::{metrics_registry, MetricsSection};
use isopredict_orchestrator::WorkerPool;
use isopredict_workloads::{Benchmark, WorkloadConfig};

const USAGE: &str = "usage: table4_5 [--isolation causal|rc|si] [--size small|large] [--seeds N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]";

fn main() -> ExitCode {
    let args = match TableArgs::parse(std::env::args().skip(1), false) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("table4_5: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let TableArgs {
        isolation,
        size,
        seeds,
        budget,
        workers,
        mut corpus,
        ..
    } = args;
    let pool = workers.map_or_else(WorkerPool::auto, WorkerPool::new);
    let registry = metrics_registry(&std::env::args().collect::<Vec<_>>());
    let obs = registry.as_ref().map_or_else(Obs::off, |r| r.obs());
    if let Some(corpus) = &mut corpus {
        corpus.set_obs(obs.clone());
    }

    // Levels beyond the paper's two tables label themselves, so a future
    // seam row gets a correct title without touching this binary.
    let table = if isolation == IsolationLevel::Causal {
        "Table 4".to_string()
    } else if isolation == IsolationLevel::ReadCommitted {
        "Table 5".to_string()
    } else {
        format!("{isolation} matrix (beyond the paper)")
    };
    println!(
        "{table}: prediction under {isolation} ({size} workload, {seeds} seeds, {} workers)",
        pool.workers()
    );
    println!("{}", PredictionRow::header());

    // One experiment per matrix cell, drained by the worker pool; rows then
    // aggregate over each (benchmark, strategy) slice of the results.
    let cells: Vec<(Benchmark, Strategy, u64)> = Benchmark::all()
        .into_iter()
        .flat_map(|benchmark| {
            Strategy::all()
                .into_iter()
                .flat_map(move |strategy| (0..seeds).map(move |seed| (benchmark, strategy, seed)))
        })
        .collect();
    let matrix_span = obs.span("table4_5");
    let results = pool.run(&cells, |_, &(benchmark, strategy, seed)| {
        let config = WorkloadConfig::sized(size, seed);
        let seed_label = seed.to_string();
        let cell_span = matrix_span.obs().span_with(
            "experiment",
            &[
                ("benchmark", benchmark.name()),
                ("strategy", strategy.name()),
                ("seed", &seed_label),
            ],
        );
        run_experiment(
            benchmark,
            &config,
            strategy,
            isolation,
            Some(budget),
            corpus.as_ref(),
            cell_span.obs(),
        )
    });
    let matrix_root = matrix_span.id();
    matrix_span.finish();
    if corpus.is_some() {
        // Count unique observed executions, not experiments: each (benchmark,
        // seed) trace serves every strategy.
        let loaded: std::collections::HashSet<(Benchmark, u64)> = cells
            .iter()
            .zip(&results)
            .filter(|(_, result)| result.trace_source == "corpus")
            .map(|(&(benchmark, _, seed), _)| (benchmark, seed))
            .collect();
        let observed: std::collections::HashSet<(Benchmark, u64)> = cells
            .iter()
            .map(|&(benchmark, _, seed)| (benchmark, seed))
            .collect();
        eprintln!(
            "corpus: {}/{} observed executions loaded (record phase skipped)",
            loaded.len(),
            observed.len()
        );
    }

    if let (Some(registry), Some(root)) = (&registry, matrix_root) {
        let metrics = MetricsSection::for_span(&registry.snapshot(), root);
        eprintln!(
            "metrics: {} span paths; {} solver conflicts, {} propagations",
            metrics.spans.len(),
            metrics.counter("solver.conflicts"),
            metrics.counter("solver.propagations"),
        );
        registry.flush();
    }

    let seeds = seeds as usize;
    for (block, benchmark) in Benchmark::all().into_iter().enumerate() {
        for (offset, strategy) in Strategy::all().into_iter().enumerate() {
            let start = (block * Strategy::all().len() + offset) * seeds;
            let row = PredictionRow::aggregate(benchmark, strategy, &results[start..start + seeds]);
            println!("{}", row.render());
        }
        println!();
    }
    ExitCode::SUCCESS
}
