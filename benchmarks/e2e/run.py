"""End-to-end benchmark of the SciLens platform — the command of BENCHMARK.json.

One workload, as the benchmark driver calls it (last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload ingest_stream --seed 13 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, ``--trace 1``
the per-layer metrics of a traced run of the same inputs (``--trace-out FILE``
also dumps its spans).  Without ``--workload`` every workload runs, each in
its own subprocess, untraced then traced, and every metric is printed by name
with its unit; ``--sets N`` repeats the untraced runs N times and reports each
metric's median, quartiles and spread, ``--out FILE`` saves the numbers, and
``compare A.json B.json`` checks two such files against each metric's bound.
``--selftest`` checks the harness itself at a tiny scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs the platform from source")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import counters, layer_metrics  # noqa: E402
from sqlite_yardstick import run_yardstick  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Bench, build, platform_s  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
#: Set-up is repeated this often in an untraced run; ``setup_s`` is the median.
SETUPS = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Counts that must repeat exactly for one seed: everything the open-loop
#: reader does not drive and that holds no wall-clock timestamp.
REPEATABLE = (
    "streaming.produce.calls", "streaming.extract.events", "web.scrape.calls",
    "rdbms.upsert.calls", "rdbms.get.calls", "rdbms.query.calls", "cdc.publish.records",
    "cdc.apply.rows", "fts.index.docs", "fts.flush.calls", "fts.search.calls", "fts.segments",
    "warehouse.append_deltas.rows", "warehouse.compact.calls", "warehouse.blocks",
    "warehouse.scan.calls", "warehouse.aggregate.calls", "dfs.write.calls", "dfs.read.calls",
    "core.evaluate.calls",
)


# ------------------------------------------------------------- one workload

def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, trace_out: Path | None = None
) -> dict[str, Any]:
    """Run one workload in this process; returns the driver's result object."""
    work_dir = ROOT / ".bench_e2e" / f"{workload}-{os.getpid()}"
    attempted = failed = 0
    bench = None
    try:
        if trace:
            # The untraced run of the same inputs, for the tracing overhead.
            bench, _ = build(workload, seed, seconds, work_dir / "untraced", setups=1)
            untraced_s = platform_s(bench.run())
            attempted, failed = bench.attempted, bench.failed
            bench.close()
            del bench
            gc.collect()
            bench, setup_s = build(workload, seed, seconds, work_dir / "traced", setups=1)
            tracer = Tracer()
            before = counters(bench)
            bench.trace(tracer)
        else:
            bench, setup_s = build(workload, seed, seconds, work_dir, setups=SETUPS)
        samples = bench.run()
        values = bench.measured(setup_s, samples)
        if trace:
            values.update(layer_metrics(bench, tracer, before, platform_s(samples), untraced_s))
            values.update(yardstick(bench, work_dir))
            for problem in tracer.check():
                bench.op(False, f"span tree: {problem}")
            if trace_out is not None:
                trace_out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        attempted += bench.attempted
        failed += bench.failed
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": names[name]["unit"]} for name in names
        },
    }


def yardstick(bench: Bench, work_dir: Path) -> dict[str, float]:
    """SQLite on the rows the platform holds and the queries it was asked."""
    database = bench.platform.database
    searches = [argument for kind, argument in bench.analytics_queries if kind == "search"]
    ranges = [
        (low.isoformat(), high.isoformat())
        for kind, (low, high) in (q for q in bench.analytics_queries if q[0] == "aggregate")
    ]
    metrics, per_outlet = run_yardstick(
        work_dir / "yardstick.sqlite",
        {name: database.table(name).rows() for name in ("articles", "posts", "reactions")},
        sorted(bench.platform.outlet_ratings),
        searches,
        ranges,
    )
    ours = bench.platform.warehouse_analytics().articles_per_outlet()
    bench.op(per_outlet == ours, "sqlite yardstick disagrees on articles per outlet")
    return metrics


# ------------------------------------------------------------------ the suite

def run_in_subprocess(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(seed: int, seconds: float, sets: int) -> dict[str, Any]:
    """Every workload, ``sets`` untraced runs and one traced run each."""
    out: dict[str, Any] = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_in_subprocess(workload, seed, seconds, 0) for _ in range(sets)]
        traced = run_in_subprocess(workload, seed, seconds, 1)
        out["workloads"][workload] = {
            "attempted": sum(run["attempted"] for run in runs) + traced["attempted"],
            "failed": sum(run["failed"] for run in runs) + traced["failed"],
            "end_to_end": {
                name: [run["metrics"][name]["value"] for run in runs] for name in END_TO_END
            },
            "per_layer": {name: traced["metrics"][name]["value"] for name in PER_LAYER},
        }
    return out


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and inter-quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def print_suite(suite: dict[str, Any]) -> None:
    for workload, result in suite["workloads"].items():
        print(f"\n== {workload}: {result['attempted']} ops attempted, {result['failed']} failed")
        for name, values in result["end_to_end"].items():
            stats = summary(values)
            line = f"  {name:<34}{stats['median']:>14.4f} {END_TO_END[name]['unit']:<6}"
            if len(values) > 1:
                line += (
                    f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}"
                    f"  spread {stats['spread']:.1%} of bound {END_TO_END[name]['bound']:.0%}"
                )
            print(line)
        for name, value in result["per_layer"].items():
            print(f"  {name:<34}{value:>14.4f} {PER_LAYER[name]['unit']}")


def compare(path_a: Path, path_b: Path) -> int:
    """Regression check of suite B against suite A; returns the exit code."""
    suite_a = json.loads(path_a.read_text(encoding="utf-8"))
    suite_b = json.loads(path_b.read_text(encoding="utf-8"))
    regressed = 0
    for workload in WORKLOADS:
        print(f"\n== {workload}")
        for name, metric in END_TO_END.items():
            runs_a = suite_a["workloads"][workload]["end_to_end"][name]
            runs_b = suite_b["workloads"][workload]["end_to_end"][name]
            a, b = summary(runs_a), summary(runs_b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b["median"] - a["median"]) / a["median"]
            clear_win = (
                max(runs_b) < min(runs_a) if metric["better"] == "lower"
                else min(runs_b) > max(runs_a)
            )
            if worse_by > metric["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            elif max(a["spread"], b["spread"]) > metric["bound"] and not clear_win:
                # The runs scatter more widely than the bound: no verdict.
                verdict = "unresolved"
            else:
                verdict = "improved" if clear_win else "unchanged"
            print(
                f"  {name:<30}{a['median']:>12.4f} -> {b['median']:>12.4f} {metric['unit']:<6}"
                f" worse by {worse_by:+.1%} (bound {metric['bound']:.0%},"
                f" spreads {a['spread']:.1%}/{b['spread']:.1%})  {verdict}"
            )
    return 1 if regressed else 0


# -------------------------------------------------------------------- selftest

def selftest() -> int:
    """The harness checks itself at a tiny scale (a few seconds)."""
    problems: list[str] = []
    names = [*WORKLOADS, *END_TO_END, *PER_LAYER]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    if list(WORKLOADS) != [w["name"] for w in SPEC["workloads"]]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    # Every workload traced (which also runs it untraced, for the overhead),
    # ingest_stream a second time for the repeat check and once untraced.
    repeats: list[dict[str, Any]] = []
    for workload, trace in [*((w, True) for w in WORKLOADS), ("ingest_stream", True), ("ingest_stream", False)]:
        result = run_workload(workload, seed=13, seconds=1.5, trace=trace)
        if set(result["metrics"]) != set(PER_LAYER if trace else END_TO_END):
            problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
        if result["failed"]:
            # includes a malformed span tree (see run_workload)
            problems.append(f"{workload} trace={trace}: {result['failed']} operations failed")
        if workload == "ingest_stream" and trace:
            repeats.append(result["metrics"])
    for name in REPEATABLE:
        first, second = (metrics[name]["value"] for metrics in repeats)
        if first != second:
            problems.append(f"{name} did not repeat for one seed: {first} != {second}")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


# ------------------------------------------------------------------------ main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="*", help="compare A.json B.json")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="dump the traced run's spans as JSON")
    parser.add_argument("--sets", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, help="save the suite's numbers as JSON")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.command:
        if args.command[0] != "compare" or len(args.command) != 3:
            parser.error("the only command is: compare A.json B.json")
        return compare(Path(args.command[1]), Path(args.command[2]))
    if args.selftest:
        return selftest()
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out)
        print(json.dumps(result))
        return 0
    suite = run_suite(args.seed, args.seconds, args.sets)
    if args.out is not None:
        args.out.write_text(json.dumps(suite, indent=1), encoding="utf-8")
    print_suite(suite)
    return 1 if any(w["failed"] for w in suite["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
