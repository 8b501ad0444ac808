"""Merge per-suite ``BENCH_TIMINGS_JSON`` files into one trajectory artifact.

Every benchmark suite writes its gate timings as::

    {"suite": "<name>", "written_at": "...", "gates": {gate: {baseline_s, optimized_s, speedup}}}

CI runs this script over the directory of downloaded per-job artifacts to
produce a single merged file, and — when a committed trajectory seed such as
``BENCH_warehouse.json`` (schema: ``gate -> {baseline_s, optimized_s,
speedup}``) is given — prints the speedup trajectory of every seed gate
against that seed, so a perf regression is visible right in the job log, and
exits non-zero if any committed seed gate is absent from the merged output
(a deleted or silently-skipped benchmark must fail the trajectory job).
Seed gates are looked up in every untagged suite (each gate is recorded under
the suite of the ``bench_*.py`` file that measures it); suites namespaced by
``$BENCH_SUITE_TAG`` (``<suite>@<tag>``) are second runs of the same gates
and never stand in for the untagged one.

Usage::

    python benchmarks/merge_timings.py <timings-dir> <merged-output.json> \
        [--seed BENCH_warehouse.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path


def load_suites(directory: Path) -> dict[str, dict[str, dict[str, float]]]:
    """``{suite: {gate: timings}}`` from every ``*.json`` under ``directory``.

    Accepts both shapes the benchmark conftest writes: single-suite
    (``{"suite": ..., "gates": {...}}``) and multi-suite
    (``{"suites": {suite: gates}}``).
    """
    suites: dict[str, dict[str, dict[str, float]]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        suite = payload.get("suite")
        gates = payload.get("gates")
        if isinstance(suite, str) and isinstance(gates, dict):
            suites.setdefault(suite, {}).update(gates)
        elif isinstance(payload.get("suites"), dict):
            for name, suite_gates in payload["suites"].items():
                if isinstance(suite_gates, dict):
                    suites.setdefault(name, {}).update(suite_gates)
        else:
            print(f"skipping {path}: not a gate-timings file", file=sys.stderr)
    return suites


def print_trajectory(seed: dict[str, dict[str, float]], current: dict[str, dict[str, float]]) -> None:
    """Seed-vs-current speedup table for the gates present in either."""
    print(f"{'gate':<36}{'seed speedup':>14}{'current':>10}")
    for gate in sorted(seed.keys() | current.keys()):
        then = seed.get(gate, {}).get("speedup")
        now = current.get(gate, {}).get("speedup")
        print(
            f"{gate:<36}"
            f"{'-' if then is None else format(then, '>13.2f') + 'x':>14}"
            f"{'-' if now is None else format(now, '>9.2f') + 'x':>10}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("timings_dir", type=Path, help="directory of per-suite timing JSONs")
    parser.add_argument("output", type=Path, help="merged artifact to write")
    parser.add_argument(
        "--seed", type=Path, default=None,
        help="committed trajectory seed (gate -> {baseline_s, optimized_s, speedup})",
    )
    args = parser.parse_args(argv)

    suites = load_suites(args.timings_dir)
    if not suites:
        print(f"no timing files found under {args.timings_dir}", file=sys.stderr)
        return 1
    merged = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "suites": suites,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    total = sum(len(gates) for gates in suites.values())
    print(f"merged {total} gate timing(s) from {len(suites)} suite(s) into {args.output}")

    if args.seed is not None and args.seed.exists():
        seed = json.loads(args.seed.read_text(encoding="utf-8"))
        current = {
            gate: timings
            for suite, gates in suites.items() if "@" not in suite
            for gate, timings in gates.items()
        }
        print(f"\nperf trajectory vs {args.seed}:")
        print_trajectory(seed, current)
        # Every committed gate must keep reporting: a gate that vanished from
        # the merged artifact means a benchmark was deleted, deselected or
        # silently skipped — fail the trajectory job rather than letting the
        # perf history go dark one gate at a time.
        missing = sorted(seed.keys() - current.keys())
        if missing:
            print(
                f"ERROR: committed seed gate(s) absent from merged timings: "
                f"{', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
