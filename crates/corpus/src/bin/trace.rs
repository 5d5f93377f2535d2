//! Command-line front end for the trace corpus.
//!
//! Usage:
//! `cargo run --release -p isopredict-corpus --bin trace -- <command> --corpus DIR [...]`
//!
//! Commands:
//! * `record  --corpus DIR [--benchmarks smallbank,voter,...] [--seeds N] [--size small|large] [--metrics PATH | --metrics-stdout]`
//!   — record observed executions and persist them (cached cells are
//!   skipped). `--metrics PATH` streams per-cell `record` spans, labelled
//!   with the cell's source, as JSONL events to `PATH`.
//! * `ls      --corpus DIR` — list indexed traces.
//! * `show    --corpus DIR HASH` — print a trace (hash may be abbreviated).
//! * `import  --corpus DIR FILE [--benchmark NAME] [--seed N] [--isolation LABEL]`
//!   — ingest external trace JSON; malformed traces are rejected with the
//!   specific defect.
//! * `verify  --corpus DIR` — integrity-check every indexed object.
//! * `gc      --corpus DIR` — remove unreferenced objects.
//!
//! An unknown command or option, a missing or surplus argument, an unknown
//! benchmark or size, a malformed number or `--seeds 0` prints the usage
//! line and exits with status 2; a metrics stream that cannot be created
//! exits 2 before any work runs. Failures of the command itself (a corpus
//! that cannot be opened, a rejected import, a failed verification) exit
//! with status 1.

#![warn(clippy::iter_over_hash_type)]

use std::process::ExitCode;

use isopredict_corpus::hash::sha256;
use isopredict_corpus::{observe_cell, Corpus, CorpusError};
use isopredict_history::TraceMeta;
use isopredict_obs::cli::{help_requested, number, MetricsTarget};
use isopredict_obs::Obs;
use isopredict_workloads::{Benchmark, WorkloadConfig, WorkloadSize};

const USAGE: &str = "usage: trace <command> --corpus DIR [--metrics PATH | --metrics-stdout]
  record --corpus DIR [--benchmarks LIST] [--seeds N] [--size small|large]
  ls     --corpus DIR
  show   --corpus DIR HASH
  import --corpus DIR FILE [--benchmark NAME] [--seed N] [--isolation LABEL]
  verify --corpus DIR
  gc     --corpus DIR";

/// A parsed subcommand with its own arguments.
#[derive(Debug, PartialEq)]
enum Command {
    Record {
        benchmarks: Vec<Benchmark>,
        seeds: u64,
        size: WorkloadSize,
    },
    Ls,
    Show {
        hash: String,
    },
    Import {
        file: String,
        benchmark: Option<String>,
        seed: Option<u64>,
        isolation: Option<String>,
    },
    Verify,
    Gc,
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    command: Command,
    corpus: String,
    metrics: Option<MetricsTarget>,
}

/// Parses the arguments after the program name. Every option must be known
/// to the command, every value well-formed and every name one the workloads
/// know, so a typo cannot silently fall back to a default.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut iter = args.into_iter();
    let name = iter.next().ok_or("a command is required")?;
    let mut command = match name.as_str() {
        "record" => Command::Record {
            benchmarks: Benchmark::extended().to_vec(),
            seeds: 3,
            size: WorkloadSize::Small,
        },
        "ls" => Command::Ls,
        "show" => Command::Show {
            hash: String::new(),
        },
        "import" => Command::Import {
            file: String::new(),
            benchmark: None,
            seed: None,
            isolation: None,
        },
        "verify" => Command::Verify,
        "gc" => Command::Gc,
        other => return Err(format!("unknown command `{other}`")),
    };
    let (mut corpus, mut metrics) = (None, None);
    let mut positional: Option<String> = None;
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match (flag.as_str(), &mut command) {
            ("--metrics", _) => metrics = Some(MetricsTarget::File(value()?)),
            ("--metrics-stdout", _) => metrics = Some(MetricsTarget::Stdout),
            ("--corpus", _) => corpus = Some(value()?),
            ("--benchmarks", Command::Record { benchmarks, .. }) => {
                *benchmarks = value()?
                    .split(',')
                    .map(|name| name.parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, String>>()?;
            }
            ("--seeds", Command::Record { seeds, .. }) => *seeds = number(&flag, &value()?)?,
            ("--size", Command::Record { size, .. }) => {
                *size = value()?.parse().map_err(|e| format!("{e}"))?;
            }
            ("--benchmark", Command::Import { benchmark, .. }) => *benchmark = Some(value()?),
            ("--seed", Command::Import { seed, .. }) => *seed = Some(number(&flag, &value()?)?),
            ("--isolation", Command::Import { isolation, .. }) => *isolation = Some(value()?),
            (other, Command::Show { .. } | Command::Import { .. })
                if !other.starts_with("--") && positional.is_none() =>
            {
                positional = Some(flag.clone());
            }
            (other, _) => return Err(format!("unknown argument `{other}` for `{name}`")),
        }
    }
    let corpus = corpus.ok_or("--corpus DIR is required")?;
    match &mut command {
        Command::Record { seeds: 0, .. } => return Err("--seeds must be at least 1".to_string()),
        Command::Show { hash } => {
            *hash = positional.ok_or("show: a hash (or unique prefix) is required")?;
        }
        Command::Import { file, .. } => {
            *file = positional.ok_or("import: a trace JSON file is required")?;
        }
        _ => {}
    }
    Ok(Args {
        command,
        corpus,
        metrics,
    })
}

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let argv: Vec<String> = std::env::args().collect();
    let Args {
        command,
        corpus,
        metrics,
    } = match parse_args(argv.iter().skip(1).cloned()) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("trace: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = match metrics.as_ref().map(MetricsTarget::open).transpose() {
        Ok(registry) => registry,
        Err(error) => {
            eprintln!("trace: {error}");
            return ExitCode::from(2);
        }
    };
    let obs = registry.as_ref().map_or_else(Obs::off, |r| r.obs());
    let corpus = match Corpus::open(&corpus) {
        Ok(opened) => opened,
        Err(error) => {
            eprintln!("trace: cannot open corpus at {corpus}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let name = argv[1].as_str();
    let result = match command {
        Command::Record {
            benchmarks,
            seeds,
            size,
        } => record(&corpus, &benchmarks, seeds, size, &obs),
        Command::Ls => ls(&corpus),
        Command::Show { hash } => show(&corpus, &hash),
        Command::Import {
            file,
            benchmark,
            seed,
            isolation,
        } => import(&corpus, &file, benchmark, seed, isolation),
        Command::Verify => verify(&corpus),
        Command::Gc => gc(&corpus),
    };
    if let Some(registry) = &registry {
        registry.flush();
    }
    match result {
        Ok(code) => code,
        Err(error) => {
            eprintln!("trace {name}: {error}");
            ExitCode::FAILURE
        }
    }
}

fn record(
    corpus: &Corpus,
    benchmarks: &[Benchmark],
    seeds: u64,
    size: WorkloadSize,
    obs: &Obs,
) -> Result<ExitCode, CorpusError> {
    println!(
        "{:<11} {:>5} {:<8} {:>6} {:>9}  Hash",
        "Program", "Seed", "Source", "Txns", "Record"
    );
    for &benchmark in benchmarks {
        for seed in 0..seeds {
            let seed_label = seed.to_string();
            let cell_span = obs.span_with(
                "record",
                &[("benchmark", benchmark.name()), ("seed", &seed_label)],
            );
            let observed =
                observe_cell(benchmark, &WorkloadConfig::sized(size, seed), Some(corpus))?;
            cell_span.label("source", observed.source.name());
            println!(
                "{:<11} {:>5} {:<8} {:>6} {:>8.1}ms  {}",
                benchmark.name(),
                seed,
                observed.source.name(),
                observed.loaded.history.committed_transactions().count(),
                observed.record_us as f64 / 1e3,
                &observed.hash()[..12],
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn ls(corpus: &Corpus) -> Result<ExitCode, CorpusError> {
    println!(
        "{:<14} {:<11} {:>5} {:>8} {:>6} {:>6} {:>6}  Recorded under",
        "Hash", "Program", "Seed", "Shape", "Txns", "Reads", "Writes"
    );
    for entry in corpus.entries() {
        println!(
            "{:<14} {:<11} {:>5} {:>8} {:>6} {:>6} {:>6}  {} (v{})",
            &entry.hash[..12],
            entry.key.benchmark,
            entry.key.seed,
            format!("{}s×{}t", entry.key.sessions, entry.key.txns_per_session),
            entry.txns,
            entry.reads,
            entry.writes,
            entry.key.isolation,
            entry.key.store_version,
        );
    }
    println!("{} trace(s)", corpus.len());
    Ok(ExitCode::SUCCESS)
}

fn show(corpus: &Corpus, prefix: &str) -> Result<ExitCode, CorpusError> {
    let hash = corpus.resolve(prefix)?;
    let trace = corpus.load(&hash)?;
    println!("{}", trace.to_json());
    Ok(ExitCode::SUCCESS)
}

fn import(
    corpus: &Corpus,
    file: &str,
    benchmark: Option<String>,
    seed: Option<u64>,
    isolation: Option<String>,
) -> Result<ExitCode, CorpusError> {
    let json = std::fs::read_to_string(file).map_err(|error| CorpusError::Io {
        path: file.to_string(),
        error: error.to_string(),
    })?;
    // Identity defaults that cannot collide across distinct imports: the
    // benchmark falls back to the file stem and the seed to the trace's own
    // content hash, so only byte-identical traces share a key (and those
    // dedupe as `cached`, which is correct).
    let benchmark = benchmark.unwrap_or_else(|| {
        std::path::Path::new(file)
            .file_stem()
            .map(|stem| stem.to_string_lossy().into_owned())
            .unwrap_or_else(|| "external".to_string())
    });
    let isolation = isolation.unwrap_or_else(|| "external".to_string());
    let result = corpus.import(&json, |trace| TraceMeta {
        benchmark,
        seed: seed.unwrap_or_else(|| {
            let digest = sha256(trace.to_canonical_json().as_bytes());
            u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
        }),
        sessions: trace.sessions.len(),
        txns_per_session: trace
            .sessions
            .iter()
            .map(|session| session.transactions.len())
            .max()
            .unwrap_or(0),
        scale: 0,
        isolation,
        store_version: "external".to_string(),
        committed_plan_indices: None,
    });
    let receipt = match result {
        Ok(receipt) => receipt,
        Err(error @ CorpusError::KeyConflict { .. }) => {
            eprintln!(
                "trace import: {error}\n\
                 hint: another import already owns this identity; pass a \
                 distinct --benchmark and/or --seed for this trace"
            );
            return Ok(ExitCode::FAILURE);
        }
        Err(error) => return Err(error),
    };
    println!(
        "{} {}",
        receipt.hash,
        if receipt.fresh { "imported" } else { "cached" }
    );
    Ok(ExitCode::SUCCESS)
}

fn verify(corpus: &Corpus) -> Result<ExitCode, CorpusError> {
    let report = corpus.verify()?;
    for problem in &report.problems {
        eprintln!("{problem}");
    }
    println!(
        "{} entr{} checked, {} problem(s)",
        report.checked,
        if report.checked == 1 { "y" } else { "ies" },
        report.problems.len()
    );
    Ok(if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn gc(corpus: &Corpus) -> Result<ExitCode, CorpusError> {
    let report = corpus.gc()?;
    println!("{} object(s) removed, {} kept", report.removed, report.kept);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn accepted_arguments_set_the_command() {
        let args = parse(&[
            "record",
            "--corpus",
            "c",
            "--benchmarks",
            "smallbank,tpc-c",
            "--seeds",
            "2",
            "--size",
            "large",
            "--metrics-stdout",
        ])
        .expect("valid arguments");
        assert_eq!(args.corpus, "c");
        assert_eq!(args.metrics, Some(MetricsTarget::Stdout));
        assert_eq!(
            args.command,
            Command::Record {
                benchmarks: vec![Benchmark::Smallbank, Benchmark::Tpcc],
                seeds: 2,
                size: WorkloadSize::Large,
            }
        );
        let defaults = parse(&["record", "--corpus", "c"]).expect("valid arguments");
        assert_eq!(defaults.metrics, None);
        assert_eq!(
            defaults.command,
            Command::Record {
                benchmarks: Benchmark::extended().to_vec(),
                seeds: 3,
                size: WorkloadSize::Small,
            }
        );
        let import = parse(&["import", "--corpus", "c", "t.json", "--seed", "7"]).unwrap();
        assert_eq!(
            import.command,
            Command::Import {
                file: "t.json".to_string(),
                benchmark: None,
                seed: Some(7),
                isolation: None,
            }
        );
        assert_eq!(
            parse(&["ls", "--corpus", "c", "--metrics", "m.jsonl"])
                .unwrap()
                .metrics,
            Some(MetricsTarget::File("m.jsonl".to_string()))
        );
        let show = parse(&["show", "abc123", "--corpus", "c"]).unwrap();
        assert_eq!(
            show.command,
            Command::Show {
                hash: "abc123".to_string()
            }
        );
        for command in ["ls", "verify", "gc"] {
            assert!(parse(&[command, "--corpus", "c"]).is_ok(), "{command}");
        }
    }

    #[test]
    fn bad_names_and_numbers_are_rejected() {
        let error = parse(&["record", "--corpus", "c", "--benchmarks", "bogus"]).unwrap_err();
        assert!(error.contains("bogus"), "{error}");
        let error = parse(&["record", "--corpus", "c", "--size", "huge"]).unwrap_err();
        assert!(error.contains("huge"), "{error}");
        let error = parse(&["record", "--corpus", "c", "--seeds", "ten"]).unwrap_err();
        assert!(
            error.contains("--seeds") && error.contains("ten"),
            "{error}"
        );
        let error = parse(&["import", "--corpus", "c", "f", "--seed", "ten"]).unwrap_err();
        assert!(error.contains("--seed") && error.contains("ten"), "{error}");
        assert!(parse(&["record", "--corpus", "c", "--seeds", "-1"]).is_err());
        assert!(parse(&["record", "--corpus", "c", "--seeds", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn unknown_or_missing_arguments_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["recrod", "--corpus", "c"])
            .unwrap_err()
            .contains("recrod"));
        assert!(parse(&["ls"]).unwrap_err().contains("--corpus"));
        assert!(parse(&["ls", "--corpus"]).is_err());
        // Options belong to their command.
        assert!(parse(&["ls", "--corpus", "c", "--seeds", "2"])
            .unwrap_err()
            .contains("--seeds"));
        assert!(parse(&["record", "--corpus", "c", "--seed", "2"]).is_err());
        assert!(parse(&["record", "--corpus", "c", "stray"]).is_err());
        assert!(parse(&["show", "--corpus", "c"])
            .unwrap_err()
            .contains("hash"));
        assert!(parse(&["show", "--corpus", "c", "a", "b"]).is_err());
        assert!(parse(&["import", "--corpus", "c"])
            .unwrap_err()
            .contains("file"));
        assert!(parse(&["record", "--corpus", "c", "--metrics"]).is_err());
    }
}
