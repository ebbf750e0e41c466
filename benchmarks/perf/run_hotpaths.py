#!/usr/bin/env python
"""Regenerate the committed ``BENCH_hotpaths.json`` baseline.

Runs the full hot-path benchmark suites (see :mod:`repro.bench.suites`)
and writes the result document to the repository root.  Intended to be
run on a quiet machine; the committed file is what ``repro bench
--check`` and the CI perf-smoke job compare against.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_hotpaths.py \
        [--quick] [--out BENCH_hotpaths.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_table, results_to_json, run_suites  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small inputs, few repeats"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_hotpaths.json"),
        help="output path (default: BENCH_hotpaths.json at the repo root)",
    )
    args = parser.parse_args(argv)

    results = run_suites(
        quick=args.quick,
        progress=lambda name: print(f"running suite: {name}", flush=True),
    )

    doc = results_to_json(results, quick=args.quick)
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(format_table(results))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
