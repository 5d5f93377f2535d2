//! Static analysis of a DIMACS CNF instance.
//!
//! Usage:
//! `cargo run --release -p isopredict-sat --bin sat_analyze -- [--check] FILE...`
//!
//! For each file, prints the structural profile of the formula (size
//! histogram, pure literals, binary-implication equivalence classes), runs
//! the preprocessing pipeline, and prints the simplification delta and the
//! profile of the simplified formula.
//!
//! With `--check`, runs a self-test instead of the report: the instance is
//! solved twice, with preprocessing on and off, the two verdicts must agree,
//! and any model must satisfy every original clause. Exit status is nonzero
//! on a parse error or a failed check, which makes the flag suitable for CI
//! over golden fixtures. An unknown `--` option or a missing file prints the
//! usage line and exits with status 2.

#![warn(clippy::iter_over_hash_type)]

use std::process::ExitCode;

use isopredict_sat::{parse_dimacs, Lit, SolveOutcome, Solver, SolverConfig};

const USAGE: &str = "usage: sat_analyze [--check] FILE...";

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    check: bool,
    files: Vec<String>,
}

/// Parses the arguments after the program name. Rejects any `--` option
/// other than `--check`, so a misspelt flag cannot silently fall back to
/// report mode, and requires at least one file.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        check: false,
        files: Vec::new(),
    };
    for arg in args {
        if arg == "--check" {
            parsed.check = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown option {arg}"));
        } else {
            parsed.files.push(arg);
        }
    }
    if parsed.files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args { check, files } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("sat_analyze: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("{path}: {error}");
                failed = true;
                continue;
            }
        };
        let (num_vars, clauses) = match parse_dimacs(&text) {
            Ok(parsed) => parsed,
            Err(error) => {
                eprintln!("{path}: {error}");
                failed = true;
                continue;
            }
        };
        if check {
            failed |= !run_check(path, num_vars, &clauses);
        } else {
            report(path, num_vars, &clauses);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Builds a solver over the parsed instance, with or without preprocessing.
fn load(num_vars: usize, clauses: &[Vec<Lit>], preprocess: bool) -> Solver {
    let mut config = SolverConfig::default();
    config.preprocess.enabled = preprocess;
    let mut solver = Solver::with_config(config);
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in clauses {
        solver.add_clause(clause.iter().copied());
    }
    solver
}

/// The human-readable report: profile, simplification delta, profile again.
fn report(path: &str, num_vars: usize, clauses: &[Vec<Lit>]) {
    let mut solver = load(num_vars, clauses, true);
    println!("{path}");
    println!("  before:\n    {}", indent(&solver.profile()));
    let summary = solver.preprocess();
    println!("  preprocess: {summary}");
    println!("  after:\n    {}", indent(&solver.profile()));
}

/// Re-indents a multi-line `Display` value for nesting under a heading.
fn indent(value: &impl std::fmt::Display) -> String {
    value.to_string().trim_end().replace('\n', "\n    ")
}

/// The `--check` mode: preprocessing must preserve the verdict and produce
/// models that satisfy the original clauses.
fn run_check(path: &str, num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    let mut plain = load(num_vars, clauses, false);
    let mut preprocessed = load(num_vars, clauses, true);
    let plain_outcome = plain.solve();
    let pp_outcome = preprocessed.solve();
    if plain_outcome != pp_outcome {
        eprintln!(
            "{path}: FAIL: verdict changed by preprocessing ({plain_outcome:?} vs {pp_outcome:?})"
        );
        return false;
    }
    for (label, solver) in [("plain", &plain), ("preprocessed", &preprocessed)] {
        if let Some(model) = solver.model() {
            for (index, clause) in clauses.iter().enumerate() {
                let satisfied = clause
                    .iter()
                    .any(|&lit| model.value(lit.var()) != lit.is_negative());
                if !satisfied {
                    eprintln!("{path}: FAIL: {label} model violates original clause {index}");
                    return false;
                }
            }
        }
    }
    let verdict = match pp_outcome {
        SolveOutcome::Sat => "sat",
        SolveOutcome::Unsat => "unsat",
        SolveOutcome::Unknown => "unknown",
    };
    println!(
        "{path}: ok ({verdict}, {} vars, {} clauses, pp agrees, models valid)",
        num_vars,
        clauses.len()
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_check_and_files() {
        assert_eq!(
            parse(&["--check", "a.cnf", "b.cnf"]),
            Ok(Args {
                check: true,
                files: vec!["a.cnf".to_string(), "b.cnf".to_string()],
            })
        );
        assert_eq!(
            parse(&["a.cnf"]),
            Ok(Args {
                check: false,
                files: vec!["a.cnf".to_string()],
            })
        );
    }

    #[test]
    fn rejects_unknown_option() {
        let error = parse(&["--chek", "a.cnf"]).unwrap_err();
        assert!(error.contains("--chek"), "{error}");
    }

    #[test]
    fn rejects_missing_files() {
        assert!(parse(&["--check"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
