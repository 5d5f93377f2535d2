//! Runs an analysis campaign from the command line and writes the JSON
//! report.
//!
//! Usage:
//! `cargo run --release -p isopredict-orchestrator --bin campaign -- \
//!     [--paper] [--benchmarks smallbank,voter,tpcc,wikipedia,overdraft] [--seeds N] \
//!     [--strategies exact-strict,approx-strict,approx-relaxed] \
//!     [--isolation causal,rc,si] [--size small|large] [--budget N] \
//!     [--workers N] [--shard auto|never|always] [--corpus DIR] \
//!     [--no-preprocess] [--out PATH] [--det-out PATH] [--metrics PATH | --metrics-stdout]`
//!
//! With `--corpus DIR`, observed cells already in the corpus are loaded
//! instead of re-recorded (`trace_source: corpus` in the report) and fresh
//! recordings are persisted for next time. `--det-out` writes only the
//! deterministic report half (tasks + summary), which is byte-identical
//! across runs, worker counts, and cold/warm corpora — and whether or not
//! telemetry is collected. `--metrics PATH` streams the run's JSONL event
//! stream (spans, solver counters) to `PATH` and embeds the aggregated
//! `metrics` section in the report; `--metrics-stdout` streams to stdout.
//! With telemetry on, the stream also carries a solver heartbeat every
//! 10,000 conflicts.
//!
//! An unknown option or name, a malformed number, an empty matrix, a
//! corpus that cannot be opened or an `--out`/`--det-out` file that cannot
//! be created prints the usage line and exits with status 2; a metrics
//! stream that cannot be created exits 2 before any work runs.

use std::fs::File;
use std::io::Write;
use std::process::ExitCode;

use isopredict::{IsolationLevel, Obs, Strategy};
use isopredict_corpus::Corpus;
use isopredict_obs::cli::{help_requested, number, MetricsTarget};
use isopredict_orchestrator::{Campaign, CampaignOptions, ShardPolicy};
use isopredict_workloads::{Benchmark, WorkloadSize};

const USAGE: &str = "usage: campaign [--paper] [--benchmarks LIST] [--seeds N] \
[--strategies exact-strict,approx-strict,approx-relaxed] [--isolation causal,rc,si] \
[--size small|large] [--budget N] [--workers N] [--shard auto|never|always] [--corpus DIR] \
[--no-preprocess] [--out PATH] [--det-out PATH] [--metrics PATH | --metrics-stdout]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    campaign: Campaign,
    options: CampaignOptions,
    out: Option<ReportFile>,
    det_out: Option<ReportFile>,
    metrics: Option<MetricsTarget>,
}

/// A report destination, created while parsing so that a path that cannot
/// be written is a usage error before any work runs.
#[derive(Debug)]
struct ReportFile {
    path: String,
    file: File,
}

impl ReportFile {
    fn create(path: String) -> Result<ReportFile, String> {
        let file = File::create(&path).map_err(|error| format!("cannot create {path}: {error}"))?;
        Ok(ReportFile { path, file })
    }

    fn write(mut self, contents: &str, what: &str) {
        self.file
            .write_all(contents.as_bytes())
            .unwrap_or_else(|error| panic!("write {what} to {}: {error}", self.path));
        eprintln!("{what} written to {}", self.path);
    }
}

/// Parses the arguments after the program name. Every option must be
/// known, every value well-formed and every name one the matrix knows, so
/// a typo cannot silently fall back to a default. `--paper` selects the
/// paper's matrix before any other option narrows it, wherever it appears.
/// `--corpus` is opened (and created if missing) and the `--out`/`--det-out`
/// files are created here, so a bad path is a usage error rather than a
/// failure mid-run or after it.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.into_iter().collect();
    let mut campaign = if args.iter().any(|a| a == "--paper") {
        Campaign::paper_matrix()
    } else {
        Campaign::new()
    };
    let mut options = CampaignOptions::default();
    let (mut out, mut det_out, mut metrics) = (None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--paper" => {}
            "--no-preprocess" => options.preprocess = false,
            "--metrics" => metrics = Some(MetricsTarget::File(value()?)),
            "--metrics-stdout" => metrics = Some(MetricsTarget::Stdout),
            "--benchmarks" => {
                campaign = campaign.benchmarks(list(&value()?, parse_name::<Benchmark>)?)
            }
            "--seeds" => campaign = campaign.seeds(0..number(flag, &value()?)?),
            "--strategies" => {
                campaign = campaign.strategies(list(&value()?, parse_name::<Strategy>)?)
            }
            "--isolation" => {
                campaign = campaign.isolations(list(&value()?, parse_name::<IsolationLevel>)?)
            }
            "--size" => campaign = campaign.size(parse_name::<WorkloadSize>(&value()?)?),
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
            "--corpus" => {
                let dir = value()?;
                Corpus::open(&dir)
                    .map_err(|error| format!("cannot open corpus at {dir}: {error}"))?;
                options.corpus = Some(dir.into());
            }
            "--out" => out = Some(ReportFile::create(value()?)?),
            "--det-out" => det_out = Some(ReportFile::create(value()?)?),
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
        metrics,
    })
}

fn list<T>(value: &str, parse: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value.split(',').map(parse).collect()
}

/// A benchmark, strategy, isolation level or size by name, through its
/// `FromStr`.
fn parse_name<T: std::str::FromStr<Err: std::fmt::Display>>(name: &str) -> Result<T, String> {
    name.parse().map_err(|error: T::Err| error.to_string())
}

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Args {
        campaign,
        options,
        out,
        det_out,
        metrics,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("campaign: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = match metrics.as_ref().map(MetricsTarget::open).transpose() {
        Ok(registry) => registry,
        Err(error) => {
            eprintln!("campaign: {error}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "campaign: {} experiments on {} workers",
        campaign.experiments(),
        options.workers
    );
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
        "timing: {:.2}s wall on {} workers ({:.2}s cpu)",
        report.timing.wall_us as f64 / 1e6,
        report.timing.workers,
        report.timing.cpu_us as f64 / 1e6,
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

    if let Some(out) = out {
        out.write(&report.to_json(), "report");
    }
    if let Some(det_out) = det_out {
        det_out.write(&report.deterministic_json(), "deterministic report half");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    /// A regular temporary file and a path below it, where nothing can be
    /// created.
    fn below_a_file(name: &str) -> (std::path::PathBuf, String) {
        let file = std::env::temp_dir().join(format!("campaign-{name}-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("write temp file");
        let below = file.join(name).to_str().expect("utf-8 path").to_string();
        (file, below)
    }

    #[test]
    fn accepted_flags_set_the_campaign() {
        let det_out = std::env::temp_dir().join(format!("campaign-det-{}", std::process::id()));
        let det_out = det_out.to_str().expect("utf-8 path");
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
            det_out,
        ])
        .expect("valid arguments");
        std::fs::remove_file(det_out).expect("--det-out is created while parsing");
        assert_eq!(args.campaign.experiments(), 2 * 3);
        assert_eq!(args.options.conflict_budget, Some(5000));
        assert_eq!(args.options.workers, 2);
        assert_eq!(args.options.shard_policy, ShardPolicy::Never);
        assert!(!args.options.preprocess);
        assert_eq!(args.det_out.map(|f| f.path).as_deref(), Some(det_out));
        assert!(args.out.is_none());
        assert_eq!(args.metrics, Some(MetricsTarget::Stdout));
        let args = parse(&["--metrics", "m.jsonl"]).expect("valid arguments");
        assert_eq!(args.metrics, Some(MetricsTarget::File("m.jsonl".into())));
        assert_eq!(parse(&[]).expect("no arguments").metrics, None);
        assert!(parse(&["--metrics", "--seeds", "1"]).is_err());
    }

    #[test]
    fn uncreatable_report_files_are_rejected() {
        for flag in ["--out", "--det-out"] {
            let (file, below) = below_a_file(&flag[2..]);
            let error = parse(&[flag, &below]).unwrap_err();
            std::fs::remove_file(&file).expect("remove temp file");
            assert!(
                error.contains("cannot create") && error.contains(&below),
                "{error}"
            );
        }
    }

    #[test]
    fn unopenable_corpus_is_rejected() {
        let (file, dir) = below_a_file("corpus");
        let error = parse(&["--corpus", &dir]).unwrap_err();
        std::fs::remove_file(&file).expect("remove temp file");
        assert!(error.contains("cannot open corpus"), "{error}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let error = parse(&["--seeds", "1", "--budgte", "10"]).unwrap_err();
        assert!(error.contains("--budgte"), "{error}");
        assert!(parse(&["stray"]).is_err());
        // The heartbeat interval is fixed, not an option.
        assert!(parse(&["--heartbeat-every", "10"]).is_err());
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for flag in ["--budget", "--seeds", "--workers"] {
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
