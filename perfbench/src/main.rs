//! Measurement half of the repository benchmark.
//!
//! Runs one workload — a list of experiment cells (benchmark × seed ×
//! strategy × isolation) — through the public orchestrator API, one
//! single-threaded `Campaign` call per cell, and prints one JSON line of raw
//! measurements for `run.py` to check and summarize:
//!
//! * `sets`: repeated passes over all cells, each timed from outside per
//!   cell, with the record phase the campaign report times itself. An
//!   untraced pass uses `Campaign::run`; a traced pass uses
//!   `Campaign::run_observed` with a fresh `Registry`, and reports the
//!   per-layer self times derived from the span forest the program already
//!   emits, plus its counter totals;
//! * `peak_rss_mb`: the process's peak resident memory.
//!
//! ```text
//! perfbench --cells smallbank:causal:approx-relaxed:0,1,2 --budget 2000000 \
//!     --seed 1 --seconds 40 --trace 0
//! ```

use std::process::ExitCode;
use std::time::Instant;

use isopredict::{IsolationLevel, Strategy};
use isopredict_obs::{CounterValue, Registry, Snapshot};
use isopredict_orchestrator::{Campaign, CampaignOptions};
use isopredict_workloads::Benchmark;
use serde::Serialize;

/// One experiment of the workload.
#[derive(Debug, Clone, Copy)]
struct Cell {
    benchmark: Benchmark,
    seed: u64,
    strategy: Strategy,
    isolation: IsolationLevel,
}

#[derive(Serialize)]
struct Output {
    workers: usize,
    sets: Vec<SetResult>,
    peak_rss_mb: f64,
}

#[derive(Serialize)]
struct SetResult {
    traced: bool,
    cells: Vec<CellResult>,
    /// Per-layer self time (traced passes only).
    layers: Vec<LayerTime>,
    /// Counter totals over the pass (traced passes only).
    counters: Vec<CounterValue>,
}

#[derive(Serialize)]
struct CellResult {
    benchmark: String,
    seed: u64,
    strategy: String,
    isolation: String,
    outcome: String,
    sharded: bool,
    units: usize,
    verdict_s: f64,
    /// The record phase (serializable run, canonical history rebuild,
    /// `ShardPlan::new`) as `CampaignTiming::record_us` reports it.
    record_s: f64,
}

#[derive(Serialize)]
struct LayerTime {
    name: String,
    seconds: f64,
    spans: u64,
}

/// Layer names in output order; every span's self time lands in exactly one.
const LAYERS: [&str; 11] = [
    "record",
    "connectivity",
    "encode",
    "encode.feasibility",
    "encode.isolation",
    "encode.unserializability",
    "preprocess",
    "cdcl",
    "unit",
    "validate",
    "other",
];

/// Maps a span's name path to the layer its self time belongs to. The
/// campaign taxonomy is `campaign/record/cell/connectivity`,
/// `campaign/predict/<unit>/{encode/<family>,solve/preprocess}` and
/// `campaign/validate/experiment`. An analysis unit's own time (history
/// restriction, model extraction, the exact strategy's candidate checks) is
/// `unit`; everything else is orchestration.
fn layer_of(path: &[&str]) -> &'static str {
    match path {
        [.., "record", "cell"] => "record",
        [.., "cell", "connectivity"] => "connectivity",
        [.., "predict", _, "encode"] => "encode",
        [.., "encode", "feasibility"] => "encode.feasibility",
        [.., "encode", "isolation"] => "encode.isolation",
        [.., "encode", "unserializability"] => "encode.unserializability",
        [.., "solve", "preprocess"] => "preprocess",
        [.., "solve"] => "cdcl",
        [.., "predict", _] => "unit",
        [.., "validate", "experiment"] => "validate",
        _ => "other",
    }
}

/// Self time (span minus its children) and span count per layer.
fn layer_times(snapshot: &Snapshot) -> Vec<LayerTime> {
    let spans = &snapshot.spans;
    let mut children_us = vec![0u64; spans.len()];
    for record in spans {
        if let (Some(parent), Some(dur)) = (record.parent, record.dur_us) {
            children_us[parent as usize] += dur;
        }
    }
    let mut layers: Vec<LayerTime> = LAYERS
        .iter()
        .map(|name| LayerTime {
            name: (*name).to_string(),
            seconds: 0.0,
            spans: 0,
        })
        .collect();
    for record in spans {
        let Some(dur) = record.dur_us else { continue };
        let path = record.path(spans);
        let parts: Vec<&str> = path.split('/').collect();
        let name = layer_of(&parts);
        let layer = layers
            .iter_mut()
            .find(|layer| layer.name == name)
            .expect("layer_of returns a listed layer");
        layer.seconds += dur.saturating_sub(children_us[record.id as usize]) as f64 / 1e6;
        layer.spans += 1;
    }
    layers
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Strategy::all()
        .into_iter()
        .find(|strategy| strategy.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown strategy `{name}`"))
}

/// Parses `benchmark:isolation:strategy:seed,seed,...` groups joined by `;`.
fn parse_cells(spec: &str) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for group in spec.split(';').filter(|g| !g.is_empty()) {
        let fields: Vec<&str> = group.split(':').collect();
        let [benchmark, isolation, strategy, seeds] = fields[..] else {
            return Err(format!(
                "cell group `{group}` is not benchmark:isolation:strategy:seeds"
            ));
        };
        let benchmark: Benchmark = benchmark.parse().map_err(|e| format!("{e}"))?;
        let isolation: IsolationLevel = isolation.parse().map_err(|e| format!("{e}"))?;
        let strategy = parse_strategy(strategy)?;
        for seed in seeds.split(',') {
            let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
            cells.push(Cell {
                benchmark,
                seed,
                strategy,
                isolation,
            });
        }
    }
    if cells.is_empty() {
        return Err("no cells given".to_string());
    }
    Ok(cells)
}

struct Args {
    cells: Vec<Cell>,
    budget: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    Ok(Args {
        cells: parse_cells(value("--cells")?)?,
        budget: number("--budget")?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: number("--trace")? == 1,
    })
}

/// SplitMix64: the pass order's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cells in a seeded order (Fisher–Yates), so each run visits the same
/// experiments in a different sequence.
fn shuffled(cells: &[Cell], rng: &mut u64) -> Vec<Cell> {
    let mut order = cells.to_vec();
    for i in (1..order.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One pass over every cell, each through its own `Campaign` call.
fn run_set(cells: &[Cell], options: &CampaignOptions, traced: bool) -> SetResult {
    let registry = Registry::new();
    let obs = registry.obs();
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let campaign = Campaign::new()
            .benchmarks([cell.benchmark])
            .seeds([cell.seed])
            .strategies([cell.strategy])
            .isolations([cell.isolation]);
        let cell_start = Instant::now();
        let report = if traced {
            campaign.run_observed(options, &obs)
        } else {
            campaign.run(options)
        };
        let verdict_s = cell_start.elapsed().as_secs_f64();
        let task = &report.tasks[0];
        results.push(CellResult {
            benchmark: task.benchmark.clone(),
            seed: task.seed,
            strategy: task.strategy.clone(),
            isolation: task.isolation.clone(),
            outcome: task.outcome.clone(),
            sharded: task.sharded,
            units: task.units,
            verdict_s,
            record_s: report.timing.record_us as f64 / 1e6,
        });
    }
    let (layers, counters) = if traced {
        let snapshot = registry.snapshot();
        let counters = snapshot
            .counters
            .iter()
            .map(|(name, value)| CounterValue {
                name: name.clone(),
                value: *value,
            })
            .collect();
        (layer_times(&snapshot), counters)
    } else {
        (Vec::new(), Vec::new())
    };
    SetResult {
        traced,
        cells: results,
        layers,
        counters,
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let options = CampaignOptions {
        workers: 1,
        conflict_budget: Some(args.budget),
        ..CampaignOptions::default()
    };

    // Untraced runs measure passes while the next one, judged by the last,
    // still fits in the time. Traced runs alternate traced and untraced
    // passes and need at least two traced passes (for the counter
    // determinism check) and one untraced pass (for the tracing overhead).
    let mut rng = args.seed;
    let mut sets = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let traced = args.trace && sets.len() % 2 == 0;
        let order = shuffled(&args.cells, &mut rng);
        sets.push(run_set(&order, &options, traced));
        let traced_sets = sets.iter().filter(|s| s.traced).count();
        let enough = !args.trace || (traced_sets >= 2 && sets.len() > traced_sets);
        let elapsed = start.elapsed().as_secs_f64();
        if enough && elapsed + pass_start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    let output = Output {
        workers: options.workers,
        sets,
        peak_rss_mb: peak_rss_mb(),
    };
    println!(
        "{}",
        serde_json::to_string(&output).expect("measurements serialize")
    );
    ExitCode::SUCCESS
}
