//! Renders the flight-recorder post-mortems embedded in a campaign report.
//!
//! Usage:
//! `cargo run --release -p isopredict-orchestrator --bin sat_explain -- REPORT.json...`
//!
//! For every analysis unit that ended `unknown` (solver budget exhausted),
//! the campaign report's non-deterministic half carries a
//! [`PostmortemRecord`]: the solver's final per-axiom-family conflict
//! attribution plus the retained ring of progress heartbeats. This tool
//! turns those records into a human-readable account of *where the budget
//! went* — which axiom family dominated the conflicts, how the search was
//! trending when the budget ran out — so a timeout is a diagnosis, not a
//! shrug.
//!
//! Exit status is nonzero on unreadable or unparsable input; a report with
//! zero post-mortems renders a note and exits zero (every unit finishing
//! within budget is the good case). An option (the tool takes none) or no
//! file prints the usage line and exits with status 2.

use std::process::ExitCode;

use isopredict_orchestrator::{HeartbeatRecord, PostmortemRecord};
use serde::{Content, Deserialize};

const USAGE: &str = "usage: sat_explain REPORT.json...";

/// Parses the arguments after the program name: one or more report files
/// and no `--` options, so a misspelt flag is not silently dropped.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Vec<String>, String> {
    let files: Vec<String> = args.into_iter().collect();
    if let Some(option) = files.iter().find(|arg| arg.starts_with("--")) {
        return Err(format!("unknown option {option}"));
    }
    if files.is_empty() {
        return Err("no report files".to_string());
    }
    Ok(files)
}

fn main() -> ExitCode {
    let files = match parse_args(std::env::args().skip(1)) {
        Ok(files) => files,
        Err(error) => {
            eprintln!("sat_explain: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for path in &files {
        match load_postmortems(path) {
            Ok(postmortems) if postmortems.is_empty() => {
                println!("{path}: no post-mortems (every analysis unit finished within budget)");
            }
            Ok(postmortems) => {
                println!(
                    "{path}: {} budget-exhausted analysis unit(s)",
                    postmortems.len()
                );
                for postmortem in &postmortems {
                    render(postmortem);
                }
            }
            Err(error) => {
                eprintln!("{path}: {error}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads a campaign report and extracts its `postmortems` array.
fn load_postmortems(path: &str) -> Result<Vec<PostmortemRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|error| error.to_string())?;
    let raw: Content = serde_json::from_str(&text).map_err(|error| error.to_string())?;
    if raw.as_map().is_none() {
        return Err("not a campaign report (expected a JSON object)".to_string());
    }
    let postmortems = raw.get("postmortems");
    if matches!(postmortems, Content::Null) {
        // Deterministic report halves and pre-flight-recorder reports have
        // no `postmortems` field at all; treat both as "none recorded".
        return Ok(Vec::new());
    }
    Vec::<PostmortemRecord>::from_content(postmortems)
        .map_err(|error| format!("malformed `postmortems` section: {error:?}"))
}

/// Pretty-prints one post-mortem: header, dominant family, the per-family
/// attribution table, and the retained heartbeat trajectory.
fn render(pm: &PostmortemRecord) {
    println!();
    println!(
        "  {} seed {} · {} @ {} · unit {}",
        pm.benchmark, pm.seed, pm.strategy, pm.isolation, pm.unit
    );
    match pm.budget {
        Some(budget) => println!(
            "    budget {budget} conflicts exhausted: {} spent in the final call, {} over the solver lifetime ({} restarts, {} propagations)",
            pm.conflicts_in_call, pm.conflicts, pm.restarts, pm.propagations
        ),
        None => println!(
            "    no budget recorded; {} conflicts in the final call, {} over the solver lifetime",
            pm.conflicts_in_call, pm.conflicts
        ),
    }
    match (&pm.dominant_family, pm.conflicts) {
        (Some(name), total) if total > 0 => {
            let involved = pm
                .families
                .iter()
                .position(|f| f == name)
                .and_then(|i| pm.conflicts_involving.get(i).copied())
                .unwrap_or(0);
            println!(
                "    dominant axiom family: {name} — involved in {:.1}% of conflicts",
                involved as f64 * 100.0 / total as f64
            );
        }
        _ => println!("    dominant axiom family: none (no conflicts attributed)"),
    }

    println!(
        "    {:<24} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "family", "clauses", "conflicts", "involved", "propagations", "learnt-anc"
    );
    for (i, family) in pm.families.iter().enumerate() {
        let row = [
            pm.clauses_by_family.get(i).copied().unwrap_or(0),
            pm.conflicts_by_family.get(i).copied().unwrap_or(0),
            pm.conflicts_involving.get(i).copied().unwrap_or(0),
            pm.propagations_by_family.get(i).copied().unwrap_or(0),
            pm.learned_ancestry.get(i).copied().unwrap_or(0),
        ];
        if row.iter().all(|&n| n == 0) {
            continue; // reserved families a run never exercised
        }
        println!(
            "    {:<24} {:>8} {:>10} {:>10} {:>12} {:>10}",
            family, row[0], row[1], row[2], row[3], row[4]
        );
    }

    if pm.heartbeats.is_empty() {
        println!("    heartbeats: none retained (the solve was shorter than the 10,000-conflict interval)");
        return;
    }
    println!(
        "    heartbeat trajectory ({} retained, oldest first):",
        pm.heartbeats.len()
    );
    println!(
        "      {:>6} {:>10} {:>10} {:>8} {:>8} {:>12} {:<24}",
        "seq", "conflicts", "decisions", "trail", "learnt", "root-fixed", "busiest family"
    );
    for hb in &pm.heartbeats {
        println!(
            "      {:>6} {:>10} {:>10} {:>8} {:>8} {:>7}/{:<4} {:<24}",
            hb.seq,
            hb.conflicts,
            hb.decisions,
            hb.trail_depth,
            hb.learnt_clauses,
            hb.vars_assigned_at_root,
            hb.total_vars,
            busiest_family(pm, hb),
        );
    }
}

/// The family charged with the most conflicts at one heartbeat, preferring
/// encoder-tagged axiom families over the reserved bookkeeping ones.
fn busiest_family<'a>(pm: &'a PostmortemRecord, hb: &HeartbeatRecord) -> &'a str {
    let pick = |skip_reserved: bool| {
        hb.conflicts_by_family
            .iter()
            .enumerate()
            .take(pm.families.len())
            .filter(|&(i, &n)| n > 0 && (!skip_reserved || i >= 3))
            .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
            .map(|(i, _)| pm.families[i].as_str())
    };
    pick(true).or_else(|| pick(false)).unwrap_or("-")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<String>, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn accepts_report_files() {
        assert_eq!(
            parse(&["a.json", "b.json"]).expect("files"),
            ["a.json", "b.json"]
        );
    }

    #[test]
    fn rejects_options_and_missing_files() {
        let error = parse(&["--bogus", "r.json"]).unwrap_err();
        assert!(error.contains("--bogus"), "{error}");
        assert!(parse(&[]).is_err());
    }
}
