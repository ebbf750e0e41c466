"""Extra interpreter calls AdaptiveSH makes per Map input record.

Wall-clock ratios on the bypass workload move by several percent run
to run; the number of function calls a job makes does not move at all.
This tool runs one job twice on the serial executor under ``cProfile``
— the original program, then its AdaptiveSH transformation — and
prints, per function, ``(calls_adaptive - calls_original) / record``:

    python3 tools/bypass_calls.py sort
    python3 tools/bypass_calls.py sort --num-lines 60000 --seed 100
    python3 tools/bypass_calls.py sort --max-extra-calls 16   # CI gate
    python3 tools/bypass_calls.py query_suggestion --max-extra-calls 90

A "call" is what ``cProfile`` counts: every Python frame and every
profiled builtin/method call (``list.append``, ``len``, ...).  On Sort
— one output per Map call, nothing to share (paper Section 7.1) — every
extra call is overhead, and the total is the budget
``tests/test_bypass_budget.py`` holds (it imports :func:`extra_calls`,
so there is one implementation).  On ``query_suggestion`` — the Fig. 9
workload, where nearly every record is shared — the same total is what
encoding, decoding and ``Shared`` cost in frames, and has a budget of
its own there (it read 120.20 while every task asked the Partitioner
about each of its keys afresh, 77.78 with one partition memo per
partitioner and process).  It is a count, not a speed-up: calls differ in cost,
and work inside one call is invisible to it.

The total is a difference, so a saving moves it by what it saves
AdaptiveSH *minus* what it saves Original.  A call removed from a path
that runs once per record a variant handles shrinks both sides, each
by its own record count.  On ``query_suggestion`` Original writes about
14 Map output records per input record and AdaptiveSH far fewer, so a
per-map-output-record call taken out of the collect loop or the segment
writer raises the total: dropping one ``len(records)`` per collected
record moved it from 126.13 to 139.92, and the table already shows
``write_varint`` at -13.80 calls per record on Original's side.  The
same holds per reduce group: Original makes about six metered Reduce
and Combine calls per input record there, AdaptiveSH about one, so
metering user code once per batch of calls instead of once per call
took Original from 292.20 to 261.24 calls per record and alone would
have lifted the total from +75.54 to +103.90 (4,000 lines, seed 100).
Read a rise here against the two columns before reading it as new
overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import re
import sys
from typing import Any, Callable

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))

from repro.core.transform import enable_anti_combining  # noqa: E402
from repro.datagen import generate_query_log, generate_random_text  # noqa: E402
from repro.mr import counters as C  # noqa: E402
from repro.mr.config import JobConf  # noqa: E402
from repro.mr.engine import LocalJobRunner  # noqa: E402
from repro.mr.executor import SerialExecutor  # noqa: E402
from repro.mr.split import split_records  # noqa: E402
from repro.workloads.query_suggestion import query_suggestion_job  # noqa: E402
from repro.workloads.sort import sort_job  # noqa: E402
from repro.workloads.wordcount import wordcount_job  # noqa: E402

#: job name -> (job factory, input generator ``(num_lines, seed)``).
JOBS: dict[str, tuple[Callable[[], JobConf], Callable[[int, int], list]]] = {
    "sort": (
        lambda: sort_job(num_reducers=4),
        lambda n, seed: generate_random_text(n, seed=seed),
    ),
    "wordcount": (
        lambda: wordcount_job(num_reducers=4),
        lambda n, seed: generate_random_text(n, seed=seed),
    ),
    "query_suggestion": (
        lambda: query_suggestion_job(num_reducers=4),
        lambda n, seed: generate_query_log(n, seed=seed),
    ),
}


def _label(func: tuple[str, int, str]) -> str:
    filename, line, name = func
    if filename == "~":  # a builtin: cProfile has no file for it
        return re.sub(r" at 0x[0-9a-f]+", "", name)
    parts = pathlib.PurePath(filename).parts
    if "repro" in parts:
        filename = "/".join(parts[parts.index("repro"):])
    else:
        filename = parts[-1]
    return f"{filename}:{line}({name})"


def count_calls(fn: Callable[[], Any]) -> tuple[Any, dict[str, int]]:
    """Run ``fn`` under cProfile; return its result and calls by function."""
    profile = cProfile.Profile()
    result = profile.runcall(fn)
    stats = pstats.Stats(profile)
    calls: dict[str, int] = {}
    for func, (_, ncalls, _, _, _) in stats.stats.items():
        label = _label(func)
        calls[label] = calls.get(label, 0) + ncalls
    return result, calls


def extra_calls(
    job_name: str, num_lines: int, seed: int = 100, num_splits: int = 4
) -> tuple[float, dict[str, float]]:
    """``(total, per function)`` extra calls per Map input record that
    the AdaptiveSH job makes over the original, largest first."""
    make_job, generate = JOBS[job_name]
    splits = split_records(generate(num_lines, seed), num_splits=num_splits)
    original = make_job()
    runs = []
    for job in (original, enable_anti_combining(original)):
        runner = LocalJobRunner(executor=SerialExecutor())
        # Once unprofiled: the process-wide memos (key hashes, encoded
        # pairs) are then equally warm for both jobs.
        runner.run(job, splits)
        runs.append(count_calls(lambda: runner.run(job, splits)))
    (result, base), (anti_result, anti) = runs
    # The e2e oracle's witness: sorted record encodings, so records that
    # do not order (dict values, mixed keys) compare like any others.
    if result.canonical_output() != anti_result.canonical_output():
        raise SystemExit(f"{job_name}: AdaptiveSH output differs")
    records = result.counters.get_int(C.MAP_INPUT_RECORDS)
    delta = {
        label: (anti.get(label, 0) - base.get(label, 0)) / records
        for label in set(base) | set(anti)
    }
    delta = {label: d for label, d in delta.items() if d}
    ordered = dict(sorted(delta.items(), key=lambda item: (-item[1], item[0])))
    total = (sum(anti.values()) - sum(base.values())) / records
    return total, ordered


def format_table(total: float, delta: dict[str, float]) -> str:
    lines = [f"{'calls/record':>12}  function"]
    # Per-task and per-job work shows up as a few thousandths of a
    # call per record; the table is about the per-record lines.
    for label, per_record in delta.items():
        if abs(per_record) >= 0.01:
            lines.append(f"{per_record:>+12.2f}  {label}")
    lines.append(f"{total:>+12.2f}  total (AdaptiveSH - Original) / record")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--num-lines", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument(
        "--max-extra-calls",
        type=float,
        default=None,
        help="exit 1 if the total exceeds this many calls per record",
    )
    args = parser.parse_args(argv)
    total, delta = extra_calls(args.job, args.num_lines, args.seed)
    print(format_table(total, delta))
    if args.max_extra_calls is not None and total > args.max_extra_calls:
        print(
            f"over budget: {total:.2f} > {args.max_extra_calls:g} "
            "extra calls per record",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
