//! Regenerates Tables 4 and 5: IsoPredict's effectiveness and performance
//! under causal consistency (Table 4) and read committed (Table 5).
//!
//! The benchmark × seed × strategy matrix runs as one orchestrator campaign
//! under the whole-history shard policy (each observed execution is recorded
//! once and serves every strategy); rows aggregate the report's experiments,
//! the same regardless of worker count.
//!
//! Usage:
//! `cargo run --release -p isopredict-bench --bin table4_5 -- [--isolation causal|rc|si] [--size small|large] [--seeds N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]`
//!
//! With `--corpus DIR`, observed executions already in the trace corpus are
//! loaded instead of re-recorded, and fresh recordings are persisted there.
//! `--metrics PATH` streams the run's telemetry (the campaign's phase, unit
//! and solver spans and counters) as JSONL events to `PATH`.
//!
//! An unknown option or name, a malformed number, `--seeds 0` or a corpus
//! that cannot be opened prints the usage line and exits with status 2; a
//! metrics stream that cannot be created exits 2 before any work runs.

use std::process::ExitCode;

use isopredict::{IsolationLevel, Obs, Strategy};
use isopredict_bench::cli::TableArgs;
use isopredict_bench::tables::PredictionRow;
use isopredict_obs::cli::{help_requested, MetricsTarget};
use isopredict_orchestrator::Campaign;
use isopredict_workloads::Benchmark;

const USAGE: &str = "usage: table4_5 [--isolation causal|rc|si] [--size small|large] [--seeds N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]";

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match TableArgs::parse(std::env::args().skip(1), false) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("table4_5: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = match args.metrics.as_ref().map(MetricsTarget::open).transpose() {
        Ok(registry) => registry,
        Err(error) => {
            eprintln!("table4_5: {error}");
            return ExitCode::from(2);
        }
    };
    let options = args.campaign_options();
    let obs = registry.as_ref().map_or_else(Obs::off, |r| r.obs());
    let TableArgs {
        isolation,
        size,
        seeds,
        ..
    } = args;

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
        options.workers
    );
    println!("{}", PredictionRow::header());

    let report = Campaign::new()
        .benchmarks(Benchmark::all())
        .seeds(0..seeds)
        .strategies(Strategy::all())
        .isolations([isolation])
        .size(size)
        .run_observed(&options, &obs);
    if options.corpus.is_some() {
        let timing = &report.timing;
        eprintln!(
            "corpus: {}/{} observed executions loaded (record phase skipped)",
            timing.corpus_hits,
            timing.corpus_hits + timing.corpus_misses
        );
    }
    if let Some(registry) = &registry {
        if let Some(metrics) = &report.metrics {
            eprintln!(
                "metrics: {} span paths; {} solver conflicts, {} propagations",
                metrics.spans.len(),
                metrics.counter("solver.conflicts"),
                metrics.counter("solver.propagations"),
            );
        }
        registry.flush();
    }

    for benchmark in Benchmark::all() {
        for strategy in Strategy::all() {
            println!(
                "{}",
                PredictionRow::aggregate(benchmark, strategy, &report).render()
            );
        }
        println!();
    }
    ExitCode::SUCCESS
}
