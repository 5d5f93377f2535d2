//! Regenerates Tables 6 and 7: comparison between MonkeyDB-style random
//! exploration, IsoPredict, and (for read committed) a "regular execution"
//! baseline that models a single-node MySQL server.
//!
//! Per-seed work (random exploration batches and the IsoPredict pipeline)
//! runs on the orchestrator's worker pool; counters aggregate identically
//! regardless of worker count.
//!
//! Usage:
//! `cargo run --release -p isopredict-bench --bin table6_7 -- [--isolation causal|rc|si] [--size small|large] [--seeds N] [--runs-per-seed N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]`
//!
//! `--corpus DIR` applies to the IsoPredict pipeline's observed executions
//! (the MonkeyDB-style random exploration is inherently re-executed).
//! `--metrics PATH` streams the run's telemetry (exploration and pipeline
//! spans, solver counters) as JSONL events to `PATH`.
//!
//! An unknown option or name, a malformed number, `--seeds 0` or a corpus
//! that cannot be opened prints the usage line and exits with status 2.

use std::process::ExitCode;

use isopredict::{IsolationLevel, Obs, Strategy};
use isopredict_bench::cli::TableArgs;
use isopredict_bench::harness::{run_experiment, ExperimentOutcome};
use isopredict_bench::tables::ComparisonRow;
use isopredict_history::serializability;
use isopredict_obs::metrics_registry;
use isopredict_orchestrator::WorkerPool;
use isopredict_workloads::{run, Benchmark, Schedule, WorkloadConfig};

const USAGE: &str = "usage: table6_7 [--isolation causal|rc|si] [--size small|large] [--seeds N] [--runs-per-seed N] [--budget N] [--workers N] [--corpus DIR] [--metrics PATH | --metrics-stdout]";

/// Per-(benchmark, seed) tallies produced by one pool task.
#[derive(Default)]
struct SeedTally {
    runs: u64,
    monkey_fail: u64,
    monkey_unser: u64,
    regular_fail: u64,
    validated: u64,
}

fn main() -> ExitCode {
    let args = match TableArgs::parse(std::env::args().skip(1), true) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("table6_7: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let TableArgs {
        isolation,
        size,
        seeds,
        runs_per_seed,
        budget,
        workers,
        mut corpus,
    } = args;
    let pool = workers.map_or_else(WorkerPool::auto, WorkerPool::new);
    let registry = metrics_registry(&std::env::args().collect::<Vec<_>>());
    let obs = registry.as_ref().map_or_else(Obs::off, |r| r.obs());
    if let Some(corpus) = &mut corpus {
        corpus.set_obs(obs.clone());
    }

    // The paper uses the best-performing strategy per isolation level:
    // Approx-Relaxed under causal (Table 6), Approx-Strict under rc
    // (Table 7). Levels beyond the paper default to Approx-Relaxed, whose
    // relaxed boundary keeps whole transactions (and hence snapshot
    // isolation's write conflicts) in play, and label themselves so a
    // future seam row gets a correct title without touching this binary.
    let strategy = if isolation == IsolationLevel::ReadCommitted {
        Strategy::ApproxStrict
    } else {
        Strategy::ApproxRelaxed
    };
    let table = if isolation == IsolationLevel::Causal {
        "Table 6".to_string()
    } else if isolation == IsolationLevel::ReadCommitted {
        "Table 7".to_string()
    } else {
        format!("{isolation} comparison (beyond the paper)")
    };
    println!(
        "{table}: MonkeyDB vs IsoPredict ({strategy}) under {isolation} ({size} workload, {seeds} seeds × {runs_per_seed} runs, {} workers)",
        pool.workers()
    );
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>7}",
        "Program", "MK-Fail", "MK-Uns", "Iso-Uns", "SQL-Fail"
    );

    let cells: Vec<(Benchmark, u64)> = Benchmark::all()
        .into_iter()
        .flat_map(|benchmark| (0..seeds).map(move |seed| (benchmark, seed)))
        .collect();
    let matrix_span = obs.span("table6_7");
    let tallies = pool.run(&cells, |_, &(benchmark, seed)| {
        let config = WorkloadConfig::sized(size, seed);
        let seed_label = seed.to_string();
        let cell_span = matrix_span.obs().span_with(
            "cell",
            &[("benchmark", benchmark.name()), ("seed", &seed_label)],
        );
        let mut tally = SeedTally::default();
        let exploration_span = cell_span.obs().span("exploration");
        for run_index in 0..runs_per_seed {
            tally.runs += 1;
            let monkey = run(
                benchmark,
                &config,
                isopredict_store::StoreMode::WeakRandom {
                    level: isolation,
                    seed: seed * 1000 + run_index,
                },
                &Schedule::RoundRobin,
            );
            if !monkey.violations.is_empty() {
                tally.monkey_fail += 1;
            }
            if !serializability::check(&monkey.history).is_serializable() {
                tally.monkey_unser += 1;
            }
            if isolation == IsolationLevel::ReadCommitted {
                let regular = run(
                    benchmark,
                    &config,
                    isopredict_store::StoreMode::RealisticRc,
                    &Schedule::Shuffled {
                        seed: seed * 1000 + run_index,
                    },
                );
                if !regular.violations.is_empty() {
                    tally.regular_fail += 1;
                }
            }
        }
        exploration_span.finish();
        let result = run_experiment(
            benchmark,
            &config,
            strategy,
            isolation,
            Some(budget),
            corpus.as_ref(),
            cell_span.obs(),
        );
        if result.outcome == ExperimentOutcome::Validated {
            tally.validated += 1;
        }
        tally
    });
    matrix_span.finish();
    if let Some(registry) = &registry {
        registry.flush();
    }

    for (block, benchmark) in Benchmark::all().into_iter().enumerate() {
        let slice = &tallies[block * seeds as usize..(block + 1) * seeds as usize];
        let total: u64 = slice.iter().map(|t| t.runs).sum();
        let monkey_fail: u64 = slice.iter().map(|t| t.monkey_fail).sum();
        let monkey_unser: u64 = slice.iter().map(|t| t.monkey_unser).sum();
        let regular_fail: u64 = slice.iter().map(|t| t.regular_fail).sum();
        let validated: u64 = slice.iter().map(|t| t.validated).sum();

        let row = ComparisonRow {
            benchmark,
            isolation,
            monkeydb_fail: monkey_fail as f64 / total as f64,
            monkeydb_unser: monkey_unser as f64 / total as f64,
            isopredict_unser: validated as f64 / seeds as f64,
            regular_fail: (isolation == IsolationLevel::ReadCommitted)
                .then(|| regular_fail as f64 / total as f64),
        };
        println!("{}", row.render());
    }
    ExitCode::SUCCESS
}
