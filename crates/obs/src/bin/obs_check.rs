//! Validates a JSONL metrics event stream against the schema.
//!
//! Usage: `obs_check <events.jsonl> [--allow-open-spans]`
//!
//! Checks every line parses as an event, the header is present with a
//! supported schema version, sequence numbers strictly increase, and span
//! start/end events pair up with known parents. By default every started
//! span must also have finished (a complete run); `--allow-open-spans`
//! relaxes that for streams cut mid-run.
//!
//! Exits 0 and prints a one-line summary on success; exits 1 with the first
//! defect (and its line number) otherwise. An unknown option, a missing or
//! surplus file argument prints the usage line and exits with status 2.

use std::process::ExitCode;

use isopredict_obs::cli::help_requested;
use isopredict_obs::validate_stream;

const USAGE: &str = "usage: obs_check <events.jsonl> [--allow-open-spans]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    path: String,
    allow_open: bool,
}

/// Parses the arguments after the program name: exactly one stream file
/// and no option but `--allow-open-spans`, so a misspelt flag or a stray
/// argument is not silently dropped.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut path = None;
    let mut allow_open = false;
    for arg in args {
        match arg.as_str() {
            "--allow-open-spans" => allow_open = true,
            option if option.starts_with("--") => {
                return Err(format!("unknown option `{option}`"));
            }
            _ if path.is_none() => path = Some(arg),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let path = path.ok_or("no event stream file")?;
    Ok(Args { path, allow_open })
}

fn main() -> ExitCode {
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Args { path, allow_open } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("obs_check: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("obs_check: cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    match validate_stream(&text) {
        Ok(summary) => {
            if summary.spans_finished < summary.spans_started && !allow_open {
                eprintln!(
                    "obs_check: {}: {} span(s) never finished (pass --allow-open-spans for streams cut mid-run)",
                    path,
                    summary.spans_started - summary.spans_finished
                );
                return ExitCode::FAILURE;
            }
            println!(
                "obs_check: {path}: {} events OK, schema v{} ({} spans, {} counter updates, {} heartbeats)",
                summary.events,
                summary.schema,
                summary.spans_finished,
                summary.counter_updates,
                summary.heartbeats
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("obs_check: {path}: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn accepts_a_file_and_the_open_spans_flag() {
        let args = parse(&["--allow-open-spans", "s.jsonl"]).expect("valid arguments");
        assert_eq!(args.path, "s.jsonl");
        assert!(args.allow_open);
        assert!(!parse(&["s.jsonl"]).expect("a file alone").allow_open);
    }

    #[test]
    fn rejects_unknown_options_and_extra_or_missing_files() {
        let error = parse(&["s.jsonl", "--alow-open-spans"]).unwrap_err();
        assert!(error.contains("--alow-open-spans"), "{error}");
        let error = parse(&["s.jsonl", "extra"]).unwrap_err();
        assert!(error.contains("extra"), "{error}");
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--allow-open-spans"]).is_err());
    }
}
