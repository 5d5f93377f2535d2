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

use std::io::Write;
use std::process::ExitCode;

use isopredict_obs::cli::help_requested;
use isopredict_orchestrator::PostmortemRecord;
use isopredict_smt::busiest_family;
use serde::Deserialize;

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
    if help_requested(std::env::args().skip(1)) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
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
                let mut stdout = std::io::stdout().lock();
                for postmortem in &postmortems {
                    render(postmortem, &mut stdout).expect("write to stdout");
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

/// The part of a campaign report this tool reads. Deterministic report
/// halves have no `postmortems` field; they read as "none recorded".
#[derive(Deserialize)]
struct Report {
    postmortems: Option<Vec<PostmortemRecord>>,
}

/// Reads a campaign report and extracts its `postmortems` array.
fn load_postmortems(path: &str) -> Result<Vec<PostmortemRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|error| error.to_string())?;
    let report: Report = serde_json::from_str(&text)
        .map_err(|error| format!("not a campaign report with post-mortems: {error}"))?;
    Ok(report.postmortems.unwrap_or_default())
}

/// Writes one post-mortem: header, dominant family, the per-family
/// attribution table, and the retained heartbeat trajectory.
fn render(pm: &PostmortemRecord, out: &mut impl Write) -> std::io::Result<()> {
    let solver = &pm.solver;
    let (stats, attribution) = (&solver.stats, &solver.attribution);
    writeln!(out)?;
    writeln!(
        out,
        "  {} seed {} · {} @ {} · unit {}",
        pm.benchmark, pm.seed, pm.strategy, pm.isolation, pm.unit
    )?;
    match solver.budget {
        Some(budget) => writeln!(
            out,
            "    budget {budget} conflicts exhausted: {} spent in the final call, {} over the solver lifetime ({} restarts, {} propagations)",
            solver.conflicts_in_call, stats.conflicts, stats.restarts, stats.propagations
        )?,
        None => writeln!(
            out,
            "    no budget recorded; {} conflicts in the final call, {} over the solver lifetime",
            solver.conflicts_in_call, stats.conflicts
        )?,
    }
    match (attribution.dominant_family(), stats.conflicts) {
        (Some((name, involved)), total) if total > 0 => writeln!(
            out,
            "    dominant axiom family: {name} — involved in {:.1}% of conflicts",
            involved as f64 * 100.0 / total as f64
        )?,
        _ => writeln!(
            out,
            "    dominant axiom family: none (no conflicts attributed)"
        )?,
    }

    writeln!(
        out,
        "    {:<24} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "family", "clauses", "conflicts", "involved", "propagations", "learnt-anc"
    )?;
    for (i, family) in attribution.families.iter().enumerate() {
        let row = [
            &attribution.clauses_by_family,
            &attribution.conflicts_by_family,
            &attribution.conflicts_involving,
            &attribution.propagations_by_family,
            &attribution.learned_ancestry,
        ]
        .map(|counts| counts.get(i).copied().unwrap_or(0));
        if row.iter().all(|&n| n == 0) {
            continue; // reserved families a run never exercised
        }
        writeln!(
            out,
            "    {:<24} {:>8} {:>10} {:>10} {:>12} {:>10}",
            family, row[0], row[1], row[2], row[3], row[4]
        )?;
    }

    if solver.heartbeats.is_empty() {
        return writeln!(
            out,
            "    heartbeats: none retained (the solve was shorter than the 10,000-conflict interval)"
        );
    }
    writeln!(
        out,
        "    heartbeat trajectory ({} retained, oldest first):",
        solver.heartbeats.len()
    )?;
    writeln!(
        out,
        "      {:>6} {:>10} {:>10} {:>8} {:>8} {:>12} busiest family",
        "seq", "conflicts", "decisions", "trail", "learnt", "root-fixed"
    )?;
    for hb in &solver.heartbeats {
        let busiest = busiest_family(&hb.conflicts_by_family)
            .and_then(|i| attribution.families.get(i))
            .map_or("-", String::as_str);
        writeln!(
            out,
            "      {:>6} {:>10} {:>10} {:>8} {:>8} {:>7}/{:<4} {}",
            hb.seq,
            hb.conflicts,
            hb.decisions,
            hb.trail_depth,
            hb.learnt_clauses,
            hb.vars_assigned_at_root,
            hb.total_vars,
            busiest,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_smt::{FamilyAttribution, Heartbeat, SolverPostmortem, SolverStats};

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

    fn heartbeat(seq: u64, conflicts_by_family: Vec<u64>) -> Heartbeat {
        Heartbeat {
            seq,
            conflicts: conflicts_by_family.iter().sum(),
            decisions: 300 * seq,
            propagations: 9_000 * seq,
            restarts: seq,
            trail_depth: 40 + seq,
            learnt_clauses: 25 * seq,
            vars_assigned_at_root: 7,
            total_vars: 120,
            conflicts_by_family,
        }
    }

    #[test]
    fn render_pins_the_full_text() {
        let families = [
            "default",
            "learned",
            "theory",
            "feasibility",
            "unserializability",
        ];
        let record = PostmortemRecord {
            benchmark: "Voter".into(),
            seed: 3,
            strategy: "Approx-Relaxed".into(),
            isolation: "causal".into(),
            unit: "shard-1".into(),
            solver: SolverPostmortem {
                budget: Some(200),
                conflicts_in_call: 150,
                stats: SolverStats {
                    conflicts: 200,
                    restarts: 4,
                    propagations: 36_000,
                    ..SolverStats::default()
                },
                attribution: FamilyAttribution {
                    families: families.map(String::from).to_vec(),
                    clauses_by_family: vec![5, 0, 0, 60, 90],
                    conflicts_by_family: vec![0, 20, 120, 10, 50],
                    conflicts_involving: vec![0, 150, 130, 30, 70],
                    propagations_by_family: vec![0, 800, 0, 2_000, 9_000],
                    learned_ancestry: vec![0, 150, 130, 30, 70],
                },
                heartbeats: vec![
                    // Only reserved families have conflicts yet.
                    heartbeat(1, vec![0, 10, 40, 0, 0]),
                    heartbeat(2, vec![0, 15, 80, 5, 30]),
                ],
            },
        };
        let mut out = Vec::new();
        render(&record, &mut out).expect("render into memory");
        // Columns are padded to their width, except the last: no line ends
        // in a space.
        let expected = concat!(
            "\n",
            "  Voter seed 3 · Approx-Relaxed @ causal · unit shard-1\n",
            "    budget 200 conflicts exhausted: 150 spent in the final call, 200 over the solver lifetime (4 restarts, 36000 propagations)\n",
            "    dominant axiom family: unserializability — involved in 35.0% of conflicts\n",
            "    family                    clauses  conflicts   involved propagations learnt-anc\n",
            "    default                         5          0          0            0          0\n",
            "    learned                         0         20        150          800        150\n",
            "    theory                          0        120        130            0        130\n",
            "    feasibility                    60         10         30         2000         30\n",
            "    unserializability              90         50         70         9000         70\n",
            "    heartbeat trajectory (2 retained, oldest first):\n",
            "         seq  conflicts  decisions    trail   learnt   root-fixed busiest family\n",
            "           1         50        300       41       25       7/120  theory\n",
            "           2        130        600       42       50       7/120  unserializability\n",
        );
        assert_eq!(String::from_utf8(out).expect("utf-8"), expected);
    }

    #[test]
    fn rejects_options_and_missing_files() {
        let error = parse(&["--bogus", "r.json"]).unwrap_err();
        assert!(error.contains("--bogus"), "{error}");
        assert!(parse(&[]).is_err());
    }
}
