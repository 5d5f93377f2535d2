//! Command-line arguments shared by the table binaries (`table4_5`,
//! `table6_7`).
//!
//! Every option must be known, every value well-formed and every name one
//! the matrix knows, so a typo cannot silently fall back to a default; the
//! binaries print their usage line and exit with status 2 on an error.

use isopredict::IsolationLevel;
use isopredict_corpus::Corpus;
use isopredict_workloads::WorkloadSize;

/// The parsed command line of a table binary (`--metrics PATH` and
/// `--metrics-stdout` are validated here and read by
/// `isopredict_obs::metrics_registry`).
#[derive(Debug)]
pub struct TableArgs {
    /// `--isolation causal|rc|si` (default causal).
    pub isolation: IsolationLevel,
    /// `--size small|large` (default small).
    pub size: WorkloadSize,
    /// `--seeds N` (default 10, at least 1).
    pub seeds: u64,
    /// `--runs-per-seed N` (default 10), for binaries that accept it.
    pub runs_per_seed: u64,
    /// `--budget N` conflicts per solver call (default 2,000,000).
    pub budget: u64,
    /// `--workers N`; `None` sizes the pool to the host.
    pub workers: Option<usize>,
    /// `--corpus DIR`, opened (and created if missing) while parsing.
    pub corpus: Option<Corpus>,
}

impl TableArgs {
    /// Parses the arguments after the program name. `--runs-per-seed` is
    /// accepted only when `runs_per_seed` is true.
    ///
    /// # Errors
    ///
    /// A message naming the offending option or value: an unknown option,
    /// an option without its value, an unknown isolation level or size, a
    /// malformed number, `--seeds 0`, or a corpus that cannot be opened.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        runs_per_seed: bool,
    ) -> Result<TableArgs, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut parsed = TableArgs {
            isolation: IsolationLevel::Causal,
            size: WorkloadSize::Small,
            seeds: 10,
            runs_per_seed: 10,
            budget: 2_000_000,
            workers: None,
            corpus: None,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--metrics-stdout" => {}
                "--metrics" => {
                    value()?;
                }
                "--isolation" => {
                    parsed.isolation = value()?.parse().map_err(|e| format!("{e}"))?;
                }
                "--size" => {
                    parsed.size = match value()?.as_str() {
                        "small" => WorkloadSize::Small,
                        "large" => WorkloadSize::Large,
                        other => return Err(format!("unknown size `{other}`")),
                    };
                }
                "--seeds" => parsed.seeds = number(flag, &value()?)?,
                "--runs-per-seed" if runs_per_seed => {
                    parsed.runs_per_seed = number(flag, &value()?)?;
                }
                "--budget" => parsed.budget = number(flag, &value()?)?,
                "--workers" => parsed.workers = Some(number(flag, &value()?)?),
                "--corpus" => {
                    let dir = value()?;
                    let corpus = Corpus::open(&dir)
                        .map_err(|error| format!("cannot open corpus at {dir}: {error}"))?;
                    parsed.corpus = Some(corpus);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if parsed.seeds == 0 {
            return Err("--seeds must be at least 1".to_string());
        }
        Ok(parsed)
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], runs_per_seed: bool) -> Result<TableArgs, String> {
        TableArgs::parse(args.iter().map(ToString::to_string), runs_per_seed)
    }

    #[test]
    fn accepted_flags_set_the_table() {
        let args = parse(
            &[
                "--isolation",
                "rc",
                "--size",
                "large",
                "--seeds",
                "3",
                "--runs-per-seed",
                "4",
                "--budget",
                "5000",
                "--workers",
                "2",
                "--metrics-stdout",
            ],
            true,
        )
        .expect("valid arguments");
        assert_eq!(args.isolation, IsolationLevel::ReadCommitted);
        assert_eq!(args.size, WorkloadSize::Large);
        assert_eq!((args.seeds, args.runs_per_seed), (3, 4));
        assert_eq!((args.budget, args.workers), (5000, Some(2)));
        assert!(args.corpus.is_none());

        let defaults = parse(&[], false).expect("no arguments");
        assert_eq!(defaults.isolation, IsolationLevel::Causal);
        assert_eq!((defaults.seeds, defaults.budget), (10, 2_000_000));
    }

    #[test]
    fn bad_names_numbers_and_flags_are_rejected() {
        let error = parse(&["--isolation", "serializable-ish"], false).unwrap_err();
        assert!(error.contains("serializable-ish"), "{error}");
        assert!(parse(&["--size", "huge"], false)
            .unwrap_err()
            .contains("huge"));
        for flag in ["--seeds", "--budget", "--workers"] {
            let error = parse(&[flag, "ten"], false).unwrap_err();
            assert!(error.contains(flag) && error.contains("ten"), "{error}");
            assert!(parse(&[flag], false).is_err(), "{flag} without a value");
        }
        assert!(parse(&["--seeds", "0"], false).is_err());
        // Only table6_7 takes --runs-per-seed.
        assert!(parse(&["--runs-per-seed", "3"], false)
            .unwrap_err()
            .contains("--runs-per-seed"));
        assert!(parse(&["--budgte", "10"], false)
            .unwrap_err()
            .contains("--budgte"));
    }

    #[test]
    fn unopenable_corpus_is_rejected() {
        // A directory cannot be created below a regular file.
        let file = std::env::temp_dir().join(format!("table-args-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("write temp file");
        let dir = file.join("corpus");
        let error = parse(&["--corpus", dir.to_str().expect("utf-8 path")], false).unwrap_err();
        std::fs::remove_file(&file).expect("remove temp file");
        assert!(error.contains("cannot open corpus"), "{error}");
    }
}
