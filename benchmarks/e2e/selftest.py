#!/usr/bin/env python3
"""Self-test of the benchmark harness (``run.py --quick``).

Runs every workload at tiny sizes, untraced and traced, then checks the
harness against ``BENCHMARK.json`` and the benchmark contract: names and
counts within limits, every workload reporting every metric declared
for it, well-formed span files whose self times fit inside the iteration
walls, and the walk accounting for the traced wall.  It lives outside
``tests/`` and is not named ``test_*``/``bench_*`` on purpose: tier-1
collection is unchanged.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
METRIC_LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) n=(\d+)$")
#: Share of a traced iteration's wall its child spans must account for.
MIN_SPAN_COVERAGE = 0.9


class Checks:
    def __init__(self) -> None:
        self.count = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        self.count += 1
        if not ok:
            self.problems.append(problem)


def check_spec(checks: Checks, spec: dict) -> None:
    """``BENCHMARK.json`` against the contract's own limits."""
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    checks.expect(len(raw) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    checks.expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys are {sorted(spec)}",
    )
    checks.expect(2 <= len(spec["workloads"]) <= 8, "need 2..8 workloads")
    checks.expect(1 <= len(spec["end_to_end"]) <= 16, "need 1..16 end-to-end metrics")
    checks.expect(1 <= len(spec["per_layer"]) <= 128, "need 1..128 layer metrics")
    checks.expect(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds must be a whole number in 1..60",
    )
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    for name in names:
        checks.expect(bool(NAME.match(name)), f"bad name {name!r}")
    checks.expect(len(set(names)) == len(names), "a name is used twice")
    for workload in spec["workloads"]:
        checks.expect(set(workload) == {"name", "why"}, f"workload keys: {workload}")
        checks.expect(
            len(workload["why"]) <= 200 and "\n" not in workload["why"],
            f"{workload['name']}: why must be one line of at most 200 characters",
        )
    for metric in spec["end_to_end"]:
        checks.expect(
            set(metric) == {"name", "unit", "better", "bound"}, f"metric keys: {metric}"
        )
        checks.expect(0 <= metric["bound"] <= 0.25, f"{metric['name']}: bound over 0.25")
    for metric in spec["per_layer"]:
        checks.expect(set(metric) == {"name", "unit", "better"}, f"metric keys: {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        checks.expect(bool(UNIT.match(metric["unit"])), f"bad unit {metric['unit']!r}")
        checks.expect(metric["better"] in ("lower", "higher"), f"bad better: {metric}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    checks.expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s (unit s, lower is better) must be an end-to-end metric",
    )
    checks.expect(
        all(m["bound"] <= setup[0]["bound"] for m in spec["end_to_end"]),
        "setup_s should carry the largest bound",
    )
    for path in spec["paths"]:
        checks.expect((ROOT / path).is_dir(), f"path {path} is not a directory")
    checks.expect(
        any((ROOT / part).is_file() for part in spec["command"][1:]),
        "the command names no file under the repository",
    )


def check_runs(checks: Checks, spec: dict, results: dict, log: str) -> None:
    """Every workload reported every metric declared for it, and printed it."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]  # layers imports repro
    from layers import applies

    printed: dict[tuple[str, str], str] = {}
    for line in log.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed[(match.group(1), match.group(2))] = match.group(4)
    runs = {(run["workload"], run["trace"]): run for run in results["runs"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run = runs.get((workload, trace))
            checks.expect(run is not None, f"{workload} trace={trace}: no result")
            if run is None:
                continue
            result = run["result"]
            checks.expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{workload} trace={trace}: result keys {sorted(result)}",
            )
            checks.expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace={trace}: {result['failed']} of "
                f"{result['attempted']} operations failed",
            )
            metrics = result["metrics"]
            checks.expect(
                list(metrics) == [m["name"] for m in declared],
                f"{workload} trace={trace}: metrics differ from BENCHMARK.json",
            )
            for metric in declared:
                name = metric["name"]
                value = metrics.get(name, {})
                checks.expect(
                    value.get("unit") == metric["unit"]
                    and printed.get((workload, name)) == metric["unit"],
                    f"{workload} {name}: unit printed/reported differs from BENCHMARK.json",
                )
                if trace == 0:
                    checks.expect(
                        value.get("value", 0) > 0, f"{workload} {name}: must never be 0"
                    )
                else:
                    sampled = run["samples"].get(name, 0) > 0
                    checks.expect(
                        sampled == applies(name, workload),
                        f"{workload} {name}: declared for it and sampled disagree",
                    )
            for key in ("cpu_count", "python", "platform", "git_commit", "loadavg_1m", "seed", "sizes", "samples"):
                checks.expect(key in run, f"{workload} trace={trace}: provenance lacks {key}")
            if trace == 1 and "span_coverage" in run["sizes"]:
                checks.expect(
                    run["sizes"]["span_coverage"] >= MIN_SPAN_COVERAGE,
                    f"{workload}: spans cover only {run['sizes']['span_coverage']:.2f} "
                    "of the traced iteration wall",
                )


def check_span_files(checks: Checks, spec: dict) -> None:
    sys.path.insert(0, str(HERE))
    from spans import check_spans

    for workload in (w["name"] for w in spec["workloads"]):
        path = HERE / "out" / f"{workload}.spans.jsonl"
        checks.expect(path.exists(), f"{workload}: no spans file")
        if not path.exists():
            continue
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        checks.expect(bool(rows), f"{workload}: empty spans file")
        for problem in check_spans(rows):
            checks.expect(False, f"{workload}: {problem}")


def check(results_path: Path, log: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = Checks()
    check_spec(checks, spec)
    check_runs(checks, spec, json.loads(results_path.read_text()), log)
    check_span_files(checks, spec)
    for problem in checks.problems:
        print(f"selftest FAILED: {problem}")
    print(f"selftest: {checks.count} checks, {len(checks.problems)} failed")
    return 1 if checks.problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import run

    sys.exit(run.main(["--quick"]))
