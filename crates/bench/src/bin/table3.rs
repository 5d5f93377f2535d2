//! Regenerates Table 3: workload characteristics (average KV accesses and
//! committed transactions over ten observed executions).
//!
//! Usage: `cargo run -p isopredict-bench --bin table3 [-- --seeds N]`
//!
//! An unknown option, a malformed number or `--seeds 0` prints the usage
//! line and exits with status 2.

use std::process::ExitCode;

use isopredict_bench::tables::CharacteristicsRow;
use isopredict_obs::cli::{help_requested, number};
use isopredict_workloads::{
    record_observed, Benchmark, WorkloadCharacteristics, WorkloadConfig, WorkloadSize,
};

const USAGE: &str = "usage: table3 [--seeds N]";

/// Parses the arguments after the program name: only `--seeds N` (default
/// 10, at least 1).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<u64, String> {
    let mut seeds = 10;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seeds" => {
                let value = args.next().ok_or("--seeds requires a value")?;
                seeds = number(&flag, &value)?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    Ok(seeds)
}

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let seeds = match parse_args(std::env::args().skip(1)) {
        Ok(seeds) => seeds,
        Err(error) => {
            eprintln!("table3: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("Table 3: average events and committed transactions over {seeds} trials");
    println!(
        "{:<10} {:<6} {:>8} {:>8} {:>8} {:>8}",
        "Program", "Size", "Reads", "Writes", "Txns", "(RO)"
    );
    for size in [WorkloadSize::Small, WorkloadSize::Large] {
        for benchmark in Benchmark::all() {
            let samples: Vec<WorkloadCharacteristics> = (0..seeds)
                .map(|seed| {
                    let config = WorkloadConfig::sized(size, seed);
                    let output = record_observed(benchmark, &config);
                    WorkloadCharacteristics::of(&output.history)
                })
                .collect();
            let row = CharacteristicsRow {
                benchmark,
                size,
                characteristics: WorkloadCharacteristics::average(&samples),
            };
            println!("{}", row.render());
        }
        println!();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<u64, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn seeds_is_the_only_option() {
        assert_eq!(parse(&[]), Ok(10));
        assert_eq!(parse(&["--seeds", "3"]), Ok(3));
        for args in [&["--bogus"][..], &["--workers", "2"], &["stray"]] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(args[0]), "{error}");
        }
    }

    #[test]
    fn malformed_or_zero_seeds_are_rejected() {
        let error = parse(&["--seeds", "abc"]).unwrap_err();
        assert!(
            error.contains("--seeds") && error.contains("abc"),
            "{error}"
        );
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
    }
}
