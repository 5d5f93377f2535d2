//! Runs an analysis campaign from the command line and writes the JSON
//! report.
//!
//! Usage:
//! `cargo run --release -p isopredict-orchestrator --bin campaign -- \
//!     [--paper] [--benchmarks smallbank,voter,tpcc,wikipedia,overdraft] [--seeds N] \
//!     [--strategies exact-strict,approx-strict,approx-relaxed] \
//!     [--isolation causal,rc,si] [--size small|large] [--budget N] \
//!     [--workers N] [--shard auto|never|always] [--corpus DIR] \
//!     [--no-preprocess] [--heartbeat-every N] \
//!     [--out PATH] [--det-out PATH] [--metrics PATH | --metrics-stdout]`
//!
//! With `--corpus DIR`, observed cells already in the corpus are loaded
//! instead of re-recorded (`trace_source: corpus` in the report) and fresh
//! recordings are persisted for next time. `--det-out` writes only the
//! deterministic report half (tasks + summary), which is byte-identical
//! across runs, worker counts, and cold/warm corpora — and whether or not
//! telemetry is collected. `--metrics PATH` streams the run's JSONL event
//! stream (spans, solver counters) to `PATH` and embeds the aggregated
//! `metrics` section in the report; `--metrics-stdout` streams to stdout.
//!
//! An unknown option or name, a malformed number or an empty matrix prints
//! the usage line and exits with status 2.

use std::process::ExitCode;

use isopredict::{IsolationLevel, Obs, Strategy};
use isopredict_obs::metrics_registry;
use isopredict_orchestrator::{Campaign, CampaignOptions, ShardPolicy};
use isopredict_workloads::{Benchmark, WorkloadSize};

const USAGE: &str = "usage: campaign [--paper] [--benchmarks LIST] [--seeds N] \
[--strategies exact-strict,approx-strict,approx-relaxed] [--isolation causal,rc,si] \
[--size small|large] [--budget N] [--workers N] [--shard auto|never|always] [--corpus DIR] \
[--no-preprocess] [--heartbeat-every N] [--out PATH] [--det-out PATH] \
[--metrics PATH | --metrics-stdout]";

/// The parsed command line (`--metrics`/`--metrics-stdout` are validated
/// here and read by `metrics_registry`).
#[derive(Debug)]
struct Args {
    campaign: Campaign,
    options: CampaignOptions,
    out: Option<String>,
    det_out: Option<String>,
}

/// Parses the arguments after the program name. Every option must be
/// known, every value well-formed and every name one the matrix knows, so
/// a typo cannot silently fall back to a default. `--paper` selects the
/// paper's matrix before any other option narrows it, wherever it appears.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.into_iter().collect();
    let mut campaign = if args.iter().any(|a| a == "--paper") {
        Campaign::paper_matrix()
    } else {
        Campaign::new()
    };
    let mut options = CampaignOptions::default();
    let (mut out, mut det_out) = (None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--paper" | "--metrics-stdout" => {}
            "--no-preprocess" => options.preprocess = false,
            "--metrics" => {
                value()?;
            }
            "--benchmarks" => {
                campaign = campaign.benchmarks(list(&value()?, parse_name::<Benchmark>)?)
            }
            "--seeds" => campaign = campaign.seeds(0..number(flag, &value()?)?),
            "--strategies" => campaign = campaign.strategies(list(&value()?, parse_strategy)?),
            "--isolation" => {
                campaign = campaign.isolations(list(&value()?, parse_name::<IsolationLevel>)?)
            }
            "--size" => {
                campaign = campaign.size(match value()?.as_str() {
                    "small" => WorkloadSize::Small,
                    "large" => WorkloadSize::Large,
                    other => return Err(format!("unknown size `{other}`")),
                });
            }
            "--budget" => options.conflict_budget = Some(number(flag, &value()?)?),
            "--workers" => options.workers = number(flag, &value()?)?,
            "--shard" => {
                options.shard_policy = match value()?.as_str() {
                    "auto" => ShardPolicy::default(),
                    "never" => ShardPolicy::Never,
                    "always" => ShardPolicy::Always,
                    other => return Err(format!("unknown shard policy `{other}`")),
                };
            }
            "--corpus" => options.corpus = Some(value()?.into()),
            // Solver heartbeat interval in conflicts (0 disables). Heartbeats
            // feed the obs stream and `unknown` post-mortems, never the
            // deterministic report half.
            "--heartbeat-every" => options.heartbeat_every = number(flag, &value()?)?,
            "--out" => out = Some(value()?),
            "--det-out" => det_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if campaign.experiments() == 0 {
        return Err("the campaign matrix is empty".to_string());
    }
    Ok(Args {
        campaign,
        options,
        out,
        det_out,
    })
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
}

fn list<T>(value: &str, parse: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value.split(',').map(parse).collect()
}

/// A benchmark or isolation level by name, through its `FromStr`.
fn parse_name<T: std::str::FromStr<Err: std::fmt::Display>>(name: &str) -> Result<T, String> {
    name.parse().map_err(|error: T::Err| error.to_string())
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "exact-strict" => Ok(Strategy::ExactStrict),
        "approx-strict" => Ok(Strategy::ApproxStrict),
        "approx-relaxed" => Ok(Strategy::ApproxRelaxed),
        other => Err(format!("unknown strategy `{other}`")),
    }
}

fn main() -> ExitCode {
    let Args {
        campaign,
        options,
        out,
        det_out,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("campaign: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "campaign: {} experiments on {} workers",
        campaign.experiments(),
        options.workers
    );
    let registry = metrics_registry(&std::env::args().collect::<Vec<_>>());
    let obs = registry.as_ref().map_or_else(Obs::off, |r| r.obs());
    let report = campaign.run_observed(&options, &obs);
    if let Some(registry) = &registry {
        registry.flush();
    }

    println!(
        "{:<11} {:>5} {:<15} {:<15} {:>6} {:>6} {:<8} {:<18} {:>9}",
        "Program", "Seed", "Strategy", "Isolation", "Comps", "Units", "Via", "Outcome", "Literals"
    );
    for task in &report.tasks {
        println!(
            "{:<11} {:>5} {:<15} {:<15} {:>6} {:>6} {:<8} {:<18} {:>9}",
            task.benchmark,
            task.seed,
            task.strategy,
            task.isolation,
            task.components,
            task.units,
            task.predicting_unit_label.as_deref().unwrap_or("-"),
            task.outcome,
            task.literals,
        );
    }
    println!();
    println!(
        "outcomes: {} validated, {} failed validation, {} no prediction, {} unknown ({} experiments, {} analysis units, {} sharded)",
        report.summary.validated,
        report.summary.failed_validation,
        report.summary.no_prediction,
        report.summary.unknown,
        report.summary.experiments,
        report.summary.analysis_units,
        report.summary.sharded,
    );
    println!(
        "timing: {:.2}s wall on {} workers ({:.2}s cpu, {:.2} units/s, {:.2}x speedup estimate)",
        report.timing.wall_us as f64 / 1e6,
        report.timing.workers,
        report.timing.cpu_us as f64 / 1e6,
        report.timing.units_per_sec,
        report.timing.speedup_estimate,
    );
    if options.corpus.is_some() {
        println!(
            "corpus: {} hit(s), {} miss(es); record phase skipped for hits, saving {:.2}s",
            report.timing.corpus_hits,
            report.timing.corpus_misses,
            report.timing.record_saved_us as f64 / 1e6,
        );
    }
    if let Some(metrics) = &report.metrics {
        println!(
            "metrics: {:.1}% of campaign wall attributed to {} span paths; {} solver conflicts, {} propagations",
            metrics.attributed_wall_fraction * 100.0,
            metrics.spans.len(),
            metrics.counter("solver.conflicts"),
            metrics.counter("solver.propagations"),
        );
    }

    if !report.postmortems.is_empty() {
        println!(
            "postmortems: {} budget-exhausted analysis unit(s) recorded; render with `sat_explain <report.json>`",
            report.postmortems.len(),
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).expect("write report");
        eprintln!("report written to {path}");
    }
    if let Some(path) = det_out {
        std::fs::write(&path, report.deterministic_json()).expect("write deterministic report");
        eprintln!("deterministic report half written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn accepted_flags_set_the_campaign() {
        let args = parse(&[
            "--benchmarks",
            "smallbank,voter",
            "--seeds",
            "3",
            "--isolation",
            "rc",
            "--strategies",
            "approx-relaxed",
            "--budget",
            "5000",
            "--workers",
            "2",
            "--shard",
            "never",
            "--no-preprocess",
            "--metrics-stdout",
            "--det-out",
            "det.json",
        ])
        .expect("valid arguments");
        assert_eq!(args.campaign.experiments(), 2 * 3);
        assert_eq!(args.options.conflict_budget, Some(5000));
        assert_eq!(args.options.workers, 2);
        assert_eq!(args.options.shard_policy, ShardPolicy::Never);
        assert!(!args.options.preprocess);
        assert_eq!(args.det_out.as_deref(), Some("det.json"));
        assert_eq!(args.out, None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let error = parse(&["--seeds", "1", "--budgte", "10"]).unwrap_err();
        assert!(error.contains("--budgte"), "{error}");
        assert!(parse(&["stray"]).is_err());
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for flag in ["--budget", "--seeds", "--workers", "--heartbeat-every"] {
            let error = parse(&[flag, "ten"]).unwrap_err();
            assert!(error.contains(flag) && error.contains("ten"), "{error}");
            assert!(parse(&[flag]).is_err(), "{flag} without a value");
        }
        assert!(parse(&["--budget", "-5"]).is_err());
        assert!(parse(&["--seeds", "0"]).unwrap_err().contains("empty"));
    }

    #[test]
    fn unknown_names_are_rejected() {
        for (flag, value) in [
            ("--benchmarks", "smallbank,nope"),
            ("--strategies", "exact"),
            ("--isolation", "serializable-ish"),
            ("--size", "huge"),
            ("--shard", "foo"),
        ] {
            let error = parse(&[flag, value]).unwrap_err();
            assert!(error.contains("nope") || error.contains(value), "{error}");
        }
    }
}
