#!/usr/bin/env python3
"""Repository benchmark: time to verdict of whole analysis campaigns.

Builds the `perfbench` runner from source, runs one workload of
`workloads.json` through it, checks every verdict, and prints a table of
metrics followed by one JSON result line:

    python3 perfbench/run.py --workload rc-sweep --seed 1 --seconds 40 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
passes; `--trace 1` reports the per-layer metrics from traced passes (and
the tracing overhead against interleaved untraced ones). `--seed` only shuffles
the order in which a pass visits the workload's experiments; the experiments
themselves come from the workload's seed lists, shifted by `--seed-offset`.
Off the default seed lists there is no expected-verdict table, so the check
falls back to steered-replay validation alone. `--workload all` runs every
workload in both modes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The runner's catch-all layer for spans outside the campaign taxonomy; the
# other layers' share of the traced wall is `attributed_wall_fraction`.
UNATTRIBUTED = "other"
MIN_ATTRIBUTED = 0.95
# Counters copied from a traced pass, reported as counts.
COUNTERS = ["solver.conflicts", "solver.decisions", "solver.propagations",
            "solver.restarts", "solver.deleted_clauses",
            "solver.theory_conflicts", "pp.rounds", "pp.probes",
            "pp.eliminated", "pp.resolvents", "pp.subsumed",
            "encode.variables", "encode.clauses", "encode.literals",
            "exact.candidates"]
FAILED_OUTCOMES = ("unknown", "failed_validation")
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def release_profile():
    """`--config` flags reproducing the root workspace's release profile."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as handle:
        profile = tomllib.load(handle).get("profile", {}).get("release", {})
    flags = []
    for key, value in sorted(profile.items()):
        if isinstance(value, dict):
            continue
        rendered = str(value).lower() if isinstance(value, bool) else json.dumps(value)
        flags += ["--config", f"profile.release.{key}={rendered}"]
    return flags


def build():
    if not os.path.exists(os.path.join(ROOT, "crates", "orchestrator", "Cargo.toml")):
        fail("the program's sources are missing; run from a checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")] + release_profile()
    built = subprocess.run(command, env={**os.environ, "CARGO_TARGET_DIR": target},
                           stdout=sys.stderr, check=False)
    if built.returncode != 0:
        fail("building the runner failed")
    return os.path.join(target, "release", "perfbench")


def cell_groups(workload, offset):
    return ";".join(
        f"{c['benchmark']}:{c['isolation']}:{c['strategy']}:"
        + ",".join(str(seed + offset) for seed in c["seeds"])
        for c in workload["cells"])


def measure(binary, spec, workload, args, trace):
    command = [binary, "--cells", cell_groups(workload, args.seed_offset),
               "--budget", str(spec["budget"]), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        ran = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_LIMIT_S} s")
    if ran.returncode != 0:
        fail(f"runner exited with code {ran.returncode}")
    return json.loads(ran.stdout.strip().splitlines()[-1])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check_verdicts(sets, workload, offset, problems):
    """Counts failed experiments; records wrong outputs in `problems`."""
    expected = {}
    if offset == 0:
        for row in workload["expected"]:
            expected[(row["benchmark"], row["seed"], row["strategy"], row["isolation"])] = row
    seen = {}
    attempted = failed = 0
    for result_set in sets:
        for cell in result_set["cells"]:
            attempted += 1
            key = (cell["benchmark"], cell["seed"], cell["strategy"], cell["isolation"])
            name = "/".join(str(part) for part in key)
            verdict = (cell["outcome"], cell["sharded"], cell["units"])
            if seen.setdefault(key, verdict) != verdict:
                problems.append(f"{name}: verdict changed between passes")
            bad = cell["outcome"] in FAILED_OUTCOMES
            if cell["outcome"] == "failed_validation":
                problems.append(f"{name}: prediction failed steered-replay validation")
            if expected:
                row = expected.get(key)
                if row is None:
                    problems.append(f"{name}: not in the expected-verdict table")
                    bad = True
                elif verdict != (row["outcome"], row["sharded"], row["units"]):
                    bad = True
                    if cell["outcome"] != "unknown":
                        problems.append(f"{name}: got {verdict}, expected "
                                        f"{(row['outcome'], row['sharded'], row['units'])}")
            failed += bad
    return attempted, failed


def wall(result_set):
    """First cell to last verdict of one pass."""
    return sum(c["verdict_s"] for c in result_set["cells"])


def setup_time(sets):
    """The record phase of a pass, as the campaign reports it, summed over the
    pass's experiments; the median over `sets`."""
    return statistics.median(sum(c["record_s"] for c in s["cells"]) for s in sets)


def experiment_times(sets):
    """Each experiment's time to verdict: its mean over `sets`."""
    times = {}
    for result_set in sets:
        for cell in result_set["cells"]:
            key = (cell["benchmark"], cell["seed"], cell["strategy"], cell["isolation"])
            times.setdefault(key, []).append(cell["verdict_s"])
    return [statistics.fmean(samples) for samples in times.values()]


def end_to_end(data, attempted, failed):
    untraced = [s for s in data["sets"] if not s["traced"]]
    verdicts = experiment_times(untraced)
    return {
        "wall_s": statistics.median(map(wall, untraced)),
        "verdict_s_p50": statistics.median(verdicts),
        "verdict_s_p90": p90(verdicts),
        "verdict_ok_ratio": 1 - failed / attempted,
        "setup_s": setup_time(untraced),
        "peak_rss_mb": data["peak_rss_mb"],
    }


def per_layer(data, workload, problems, notes):
    traced = [s for s in data["sets"] if s["traced"]]
    untraced = [s for s in data["sets"] if not s["traced"]]
    layers = [{layer["name"]: layer for layer in s["layers"]} for s in traced]
    counters = [{c["name"]: c["value"] for c in s["counters"]} for s in traced]
    calls = [{name: layer["spans"] for name, layer in pass_layers.items()} for pass_layers in layers]
    if any(c != counters[0] for c in counters) or any(c != calls[0] for c in calls):
        problems.append("work counters differ between traced passes of the same workload")
    def seconds(*names):
        return statistics.median(sum(pass_layers[n]["seconds"] for n in names)
                                 for pass_layers in layers)

    traced_wall = statistics.median(map(wall, traced))
    metrics = {
        "cdcl.s": seconds("cdcl"),
        "solve.calls": calls[0]["cdcl"],
        "preprocess.s": seconds("preprocess"),
        "preprocess.calls": calls[0]["preprocess"],
        "encode.s": seconds("encode", "encode.feasibility", "encode.isolation",
                            "encode.unserializability"),
        "encode.feasibility_s": seconds("encode.feasibility"),
        "encode.isolation_s": seconds("encode.isolation"),
        "encode.unserializability_s": seconds("encode.unserializability"),
        "unit.s": seconds("unit"),
        "shard.units": calls[0]["unit"],
        "validate.s": seconds("validate"),
        "record.s": seconds("record"),
        "connectivity.s": seconds("connectivity"),
    }
    for name in COUNTERS:
        metrics[name] = counters[0].get(name, 0)
    conflicts = metrics["solver.conflicts"]
    metrics["conflicts_per_s"] = conflicts / metrics["cdcl.s"] if metrics["cdcl.s"] else 0.0
    metrics["theory_conflict_share"] = (metrics["solver.theory_conflicts"] / conflicts
                                        if conflicts else 0.0)
    metrics["trace_overhead"] = traced_wall / statistics.median(map(wall, untraced)) - 1
    metrics["attributed_wall_fraction"] = statistics.median(
        sum(layer["seconds"] for n, layer in pass_layers.items() if n != UNATTRIBUTED)
        / wall(s)
        for pass_layers, s in zip(layers, traced))
    if metrics["attributed_wall_fraction"] < MIN_ATTRIBUTED:
        problems.append(f"named layers explain only {metrics['attributed_wall_fraction']:.1%} "
                        f"of traced wall (at least {MIN_ATTRIBUTED:.0%} required)")
    stress = workload["stress"]
    share = sum(metrics[name] for name in stress["metrics"]) / traced_wall
    if share < stress["min_share"]:
        notes.append(f"stress: {' + '.join(stress['metrics'])} is {share:.1%} of traced wall, "
                     f"below the {stress['min_share']:.0%} this workload was chosen for")
    return metrics


def metadata(data):
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=False)
        commit = rev.stdout.strip() or commit
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "workers": data["workers"], "profile": "release"}


def run_workload(binary, spec, benchmark, name, args, trace):
    workload = spec["workloads"][name]
    data = measure(binary, spec, workload, args, trace)
    problems, notes = [], []
    attempted, failed = check_verdicts(data["sets"], workload, args.seed_offset, problems)
    if trace:
        metrics = per_layer(data, workload, problems, notes)
        declared = benchmark["per_layer"]
    else:
        metrics = end_to_end(data, attempted, failed)
        declared = benchmark["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        fail("computed metrics do not match BENCHMARK.json")
    passes = len(data["sets"])
    print(f"meta: workload={name} trace={trace} seed={args.seed} seed_offset={args.seed_offset} "
          f"passes={passes} " + " ".join(f"{k}={v}" for k, v in metadata(data).items()))
    print(f"verdicts: {attempted - failed}/{attempted} as expected, failed_ratio={failed / attempted:.4f}")
    for metric in declared:
        print(f"  {metric['name']:<28} {metrics[metric['name']]:>16.6g} {metric['unit']}")
    for line in notes + problems:
        print(line)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-offset", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed_offset < 0 or args.seconds < 1:
        fail("--seed and --seed-offset must be non-negative, --seconds positive")
    spec = load_json(os.path.join(HERE, "workloads.json"))
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(name not in spec["workloads"] for name in names):
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(spec['workloads'])} or all")
    binary = build()
    if args.workload != "all":
        result = run_workload(binary, spec, benchmark, args.workload, args, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in (0, 1):
                one = run_workload(binary, spec, benchmark, name, args, trace)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
