#!/usr/bin/env python3
"""Compare two result sets of ``run.py``, or show one set's spread.

``compare.py A.json B.json`` prints one row per workload and end-to-end
metric: both medians, both sets' quartiles, the metric's bound from
``BENCHMARK.json`` and a verdict —

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is, and the sets are resolved;
* ``unresolved``  it is, but a set's own spread (quartile distance over
                  median) is wider than the bound and the two sets' runs
                  overlap, so the difference cannot be told from noise.

``compare.py --spread A.json`` prints, per workload and metric, the
distance between the first and third quartile of A's runs as a share of
their median — the number the benchmark contract bounds.  Exit status 1
if any row is ``worse`` (or, with ``--spread``, wider than its bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_values(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, one per untraced run in the file."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, second, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: list[float]) -> float:
    first, mid, third = quartiles(values)
    return (third - first) / mid if mid else 0.0


def worsening(better: str, before: float, after: float) -> float:
    """By what share of ``before`` did the metric get worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(spec: dict, a: dict, b: dict) -> int:
    print(
        f"{'workload':<20} {'metric':<28} {'median A':>12} {'median B':>12} "
        f"{'quartiles A':>25} {'quartiles B':>25} {'bound':>6} verdict"
    )
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            worse = worsening(metric["better"], qa[1], qb[1]) > metric["bound"]
            overlap = min(a[key]) <= max(b[key]) and min(b[key]) <= max(a[key])
            noisy = max(spread(a[key]), spread(b[key])) > metric["bound"]
            verdict = "ok" if not worse else "unresolved" if noisy and overlap else "worse"
            failures += verdict == "worse"
            print(
                f"{workload:<20} {metric['name']:<28} {qa[1]:>12.6g} {qb[1]:>12.6g} "
                f"{f'{qa[0]:.5g}..{qa[2]:.5g}':>25} {f'{qb[0]:.5g}..{qb[2]:.5g}':>25} "
                f"{metric['bound']:>6} {verdict}"
            )
    return 1 if failures else 0


def show_spread(spec: dict, a: dict) -> int:
    print(f"{'workload':<20} {'metric':<28} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = a.get((workload, metric["name"]))
            if not values:
                continue
            share = spread(values)
            # setup_s is bounded on its median only, not on its spread.
            wide = share > metric["bound"] and metric["name"] != "setup_s"
            note = "WIDE" if wide else "tight" if share <= metric["bound"] / 3 else ""
            failures += wide
            print(
                f"{workload:<20} {metric['name']:<28} {len(values):>4} "
                f"{statistics.median(values):>12.6g} {share:>8.4f} {metric['bound']:>6} {note}"
            )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.spread or args.b is None:
        return show_spread(spec, load_values(args.a))
    return compare(spec, load_values(args.a), load_values(args.b))


if __name__ == "__main__":
    sys.exit(main())
