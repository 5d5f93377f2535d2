//! Emits Graphviz renderings of observed/predicted execution pairs for the
//! paper's example figures (Figures 7, 8 and 10): for each benchmark, the
//! first seed with a successful causal prediction is rendered.
//!
//! Usage: `cargo run -p isopredict-bench --bin figures [-- --out DIR]`
//!
//! An unknown option or `--out` without a directory prints the usage line
//! and exits with status 2.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use isopredict::{
    report, IsolationLevel, Obs, PredictionOutcome, Predictor, PredictorConfig, Strategy,
};
use isopredict_history::dot::{render, Overlay};
use isopredict_obs::cli::help_requested;
use isopredict_workloads::{record_observed, Benchmark, WorkloadConfig};

const USAGE: &str = "usage: figures [--out DIR]";

/// Parses the arguments after the program name: only `--out DIR` (default
/// `figures`).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<PathBuf, String> {
    let mut out_dir = PathBuf::from("figures");
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => {
                out_dir = args
                    .next()
                    .filter(|dir| !dir.starts_with("--"))
                    .ok_or("--out requires a directory")?
                    .into();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out_dir)
}

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let out_dir = match parse_args(std::env::args().skip(1)) {
        Ok(out_dir) => out_dir,
        Err(error) => {
            eprintln!("figures: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    fs::create_dir_all(&out_dir).expect("create output directory");

    for benchmark in Benchmark::all() {
        let mut found = false;
        for seed in 0..10u64 {
            let config = WorkloadConfig::small(seed);
            let observed = record_observed(benchmark, &config);
            let predictor = Predictor::new(PredictorConfig {
                strategy: Strategy::ApproxRelaxed,
                isolation: IsolationLevel::Causal,
                ..PredictorConfig::default()
            });
            if let PredictionOutcome::Prediction(prediction) =
                predictor.predict(&observed.history, &Obs::off())
            {
                let name = benchmark.name().to_lowercase().replace('-', "");
                let observed_dot = render(
                    &observed.history,
                    &Overlay {
                        edges: Vec::new(),
                        caption: Some(format!("{benchmark} observed execution (seed {seed})")),
                    },
                );
                let predicted_dot = report::dot_report(&prediction);
                let observed_path = out_dir.join(format!("{name}_seed{seed}_observed.dot"));
                let predicted_path = out_dir.join(format!("{name}_seed{seed}_predicted.dot"));
                fs::write(&observed_path, observed_dot).expect("write observed figure");
                fs::write(&predicted_path, predicted_dot).expect("write predicted figure");
                println!(
                    "{benchmark}: wrote {} and {}",
                    observed_path.display(),
                    predicted_path.display()
                );
                println!("{}", report::text_report(&observed.history, &prediction));
                found = true;
                break;
            }
        }
        if !found {
            println!(
                "{benchmark}: no causal prediction found for seeds 0..10 (expected for Voter)"
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PathBuf, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn out_is_the_only_option() {
        assert_eq!(parse(&[]), Ok(PathBuf::from("figures")));
        assert_eq!(parse(&["--out", "dir"]), Ok(PathBuf::from("dir")));
        for args in [&["--bogus"][..], &["--seeds", "2"], &["stray"]] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(args[0]), "{error}");
        }
    }

    #[test]
    fn out_requires_a_directory() {
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--out", "--bogus"]).is_err());
    }
}
