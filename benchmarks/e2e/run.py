#!/usr/bin/env python3
"""The repo's end-to-end benchmark: seven workloads, per-layer attribution.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints, as its last line, the result
  object the benchmark contract asks for.  ``--trace 0`` is the untraced
  run through the real entry points and reports the end-to-end metrics;
  ``--trace 1`` is the layer walk and reports the per-layer metrics.
* ``run.py --seed N`` (no ``--workload``) runs every workload, untraced
  then traced, each in its own subprocess and strictly one after
  another, and writes ``out/results-*.json``.  ``--repeat-check`` does
  that twice and compares the two sets; ``--quick`` is the self-test.

Metric names, units and bounds live in the repository's
``BENCHMARK.json``; this file only computes values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: Timed iterations per untraced run (at least), traced iterations per
#: traced run (at least), and set-ups per run (median reported).
MIN_ITERATIONS = 5
MIN_TRACED_ITERATIONS = 2
SETUP_REPEATS = 5
QUICK_SECONDS = 0.2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Report:
    """Metric values of one run, printed as ``workload metric value unit``."""

    def __init__(self, workload: str, declared: list[dict]):
        self.workload = workload
        self.units = {metric["name"]: metric["unit"] for metric in declared}
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.unresolved: set[str] = set()
        self.notes: list[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        if name not in self.units:
            raise KeyError(f"{name!r} is not declared in BENCHMARK.json")
        self.values[name] = float(value)
        self.samples[name] = samples

    def note(self, text: str) -> None:
        """An informational line: printed, not part of the result object."""
        self.notes.append(text)

    def print_lines(self) -> None:
        for text in self.notes:
            print(f"# {self.workload}: {text}")
        for name, value in self.values.items():
            shown = "unresolved" if name in self.unresolved else f"{value:.6g}"
            print(f"{self.workload} {name} {shown} {self.units[name]} n={self.samples[name]}")

    def metrics_object(self) -> dict[str, dict]:
        missing = sorted(set(self.units) - set(self.values))
        if missing:
            raise KeyError(f"{self.workload} did not report {missing}")
        return {
            name: {"value": self.values[name], "unit": self.units[name]}
            for name in self.units
        }


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "loadavg_1m": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def check_clean_exit(ops: Any, workload: str, shm_before: set[str]) -> None:
    """A leftover shared-memory block or a live child is a failed operation."""
    import multiprocessing

    leftover = sorted(shm_names() - shm_before)
    ops.check(not leftover, f"{workload}: left blocks in /dev/shm: {leftover}")
    children = multiprocessing.active_children()
    ops.check(not children, f"{workload}: child processes still alive: {children}")
    killed = reap_descendants()
    ops.check(not killed, f"{workload}: descendants had to be killed: {killed}")


def become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process, not to init.

    ``multiprocessing`` starts a resource-tracker process next to the
    first shared-memory block a process makes, and nobody waits for it:
    the trackers of the pool workers outlive ``ParallelExecutor.close()``
    and this process's own outlives the interpreter, each by the moment
    it takes to notice its pipe closed.  As their sub-reaper this process
    can wait for them (``reap_descendants``) before it exits.
    """
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        return ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # not Linux
        return False


def child_pids() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone meanwhile
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_seconds: float = 10.0) -> list[int]:
    """Wait until no child of this process is left; call when all work is done.

    Closes this process's resource tracker first (its pipe is what keeps
    it alive), then waits for every child, which as a sub-reaper includes
    every orphaned descendant.  Whatever has not ended by itself within
    the grace period is killed and returned.
    """
    import signal

    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes the pipe, waits
    except (ImportError, AttributeError, OSError):
        pass
    killed: list[int] = []
    deadline = time.monotonic() + grace_seconds
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.005)
            continue
        for pid in child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            killed.append(pid)
        deadline = time.monotonic() + 1.0


def own_peak_rss_mb() -> float:
    """Peak RSS of this process and of the children it has reaped, MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# -- job workloads -----------------------------------------------------------


def keep_going(done: int, minimum: int, began: float, seconds: float) -> bool:
    """Another iteration?  Yes below the minimum, then only if it still fits."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / done <= seconds


def measure_setup(factory: Any, seed: int, repeats: int, import_s: float) -> tuple[Any, float]:
    """Set the workload up ``repeats`` times; keep the last, time them all.

    Returns the workload and ``setup_s``: the import of ``repro`` plus
    the median set-up, in reference-host seconds like the timed metrics
    (nothing else runs during set-up, the service's server included, so
    the probes read the host).
    """
    from workloads import host_probe, host_speed

    seconds = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = factory()
        before = host_probe()
        began = time.perf_counter()
        workload.setup(seed)
        elapsed = time.perf_counter() - began
        speed = host_speed(before, host_probe())
        if not seconds:
            import_s /= speed  # the import ran just before the first probe
        seconds.append(elapsed / speed)
    return workload, import_s + median(seconds)


def run_jobs_untraced(args: Any, report: Report, ops: Any, import_s: float) -> dict:
    import workloads as W

    repeats = 1 if args.quick else SETUP_REPEATS
    min_iterations = 2 if args.quick else MIN_ITERATIONS
    workload, setup_s = measure_setup(
        lambda: W.make_workload(args.workload, args.quick), args.seed, repeats, import_s
    )
    try:
        # Warm-up: fills the memo caches, and its exact counters are
        # what every timed iteration must reproduce.
        baseline = W.run_iteration(workload, ops, None)
        iterations = []
        began = time.perf_counter()
        while keep_going(len(iterations), min_iterations, began, args.seconds):
            iterations.append(
                W.run_iteration(workload, ops, baseline, reference_legs=False)
            )
        summary = workload.input_summary()
        timed = [variant.name for variant in workload.variants if variant.timed]
    finally:
        workload.close()

    # Timed metrics are in reference-host seconds (workloads.host_probe);
    # the raw wall and the host's speed are printed beside them.
    count = len(iterations)
    wall_s = median(sum(it[name].reference_wall_s for name in timed) for it in iterations)
    raw_wall_s = median(sum(it[name].wall_s for name in timed) for it in iterations)
    speeds = [outcome.host_speed for it in iterations for outcome in it.values()]
    # The two jobs of one iteration run back to back, so their raw
    # ratio already cancels the drift; the median of the paired ratios
    # is steadier than the ratio of the two medians.
    slowdown = median(
        it[W.ADAPTIVE].wall_s / it[W.ORIGINAL].wall_s for it in iterations
    )
    adaptive_jobs = [
        seconds / it[W.ADAPTIVE].host_speed
        for it in iterations
        for seconds in it[W.ADAPTIVE].job_walls_s
    ]
    original, adaptive = baseline[W.ORIGINAL], baseline[W.ADAPTIVE]
    records = sum(baseline[name].map_input_records for name in timed)
    jobs = sum(len(baseline[name].job_walls_s) for name in timed)

    report.put("setup_s", setup_s, repeats)
    report.put("wall_s", wall_s, count)
    report.put("records_per_s", records / wall_s, count)
    report.put("jobs_per_s", jobs / wall_s, count)
    report.put("job_latency_p50_ms", median(adaptive_jobs) * 1000.0, len(adaptive_jobs))
    report.put("adaptive_vs_original_wall_x", slowdown, count)
    report.put("transfer_reduction_x", original.map_output_bytes / adaptive.map_output_bytes)
    report.put("map_output_bytes", adaptive.map_output_bytes)
    report.note(f"raw wall_s {raw_wall_s:.6g} s, host_speed_x {median(speeds):.4g}")
    summary.update(
        records_per_iteration=records, jobs_per_iteration=jobs, iterations=count
    )
    return summary


def run_jobs_traced(args: Any, report: Report, ops: Any) -> dict:
    import layers as L
    import workloads as W
    from spans import SpanRecorder

    min_iterations = 1 if args.quick else MIN_TRACED_ITERATIONS
    workload = W.make_workload(args.workload, args.quick)
    workload.setup(args.seed)
    rec = SpanRecorder()
    run = L.LayerRun(workload, rec, ops, OUT / f"scratch-{os.getpid()}")
    try:
        W.run_iteration(workload, ops, None)  # warm-up, untraced
        began = time.perf_counter()
        while keep_going(len(run.samples), min_iterations, began, args.seconds):
            run.iteration(len(run.samples))
        values = run.metrics()
        summary = workload.input_summary()
    finally:
        workload.close()
        rec.write(OUT / f"{args.workload}.spans.jsonl")
    for name, value in values.items():
        report.put(name, value, len(run.samples))
    if workload.name == "qs_pool2" and values["mr.executor.pool_speedup_x"] == 0.0:
        report.unresolved.add("mr.executor.pool_speedup_x")
    summary.update(
        traced_iterations=len(run.samples), span_coverage=run.span_coverage()
    )
    return summary


# -- the service workload -------------------------------------------------------


def run_service(args: Any, report: Report, ops: Any, import_s: float) -> dict:
    import service as S
    from spans import SpanRecorder

    scratch = OUT / f"scratch-{os.getpid()}"
    repeats = 1 if args.quick or args.trace else SETUP_REPEATS
    workload, setup_s = measure_setup(
        lambda: S.ServiceWorkload(args.quick, ROOT, scratch), args.seed, repeats, import_s
    )
    rec = SpanRecorder() if args.trace else None
    clean = False
    try:
        # Warm-up: the server imports its experiment drivers on the
        # first job; one untimed batch per client pays for that.
        workload.run(0.0, ops, None, min_batches=1)
        logs, window = workload.run(
            args.seconds, ops, rec, min_batches=workload.sizes["min_batches"]
        )
        jobs = sorted((job for log in logs for job in log.jobs), key=lambda j: j.finished_at)
        ops.check(bool(jobs), "service: no job completed")
        # Both need the live ledger, so they run before the server stops.
        if args.trace:
            probe = workload.probe_ledger(rec)
        else:
            engine_walls = workload.job_walls([job.run_id for job in jobs])
    finally:
        clean = workload.close()
        if rec is not None:
            rec.write(OUT / f"{args.workload}.spans.jsonl")
    ops.check(clean, "service: repro serve did not drain and exit cleanly")

    if args.trace:
        service_layers(report, logs, jobs, probe)
    else:
        report.put("setup_s", setup_s, repeats)
        report.put("peak_rss_mb", workload.peak_rss_mb())
        service_end_to_end(report, workload, logs, jobs, window, engine_walls)
    summary = workload.input_summary()
    summary.update(jobs=len(jobs), window_s=window)
    return summary


def service_end_to_end(
    report: Report, workload: Any, logs: list, jobs: list, window: float, engine_walls: tuple
) -> None:
    # Raw seconds, unlike the job workloads: a host-speed probe inside
    # the load generator competes with the server for the two CPUs and
    # reads the server's load, not the host's speed (tried: it doubled
    # the spread between runs).
    count = len(jobs)
    batches = sum(len(log.batches) for log in logs)
    # Mean, not median: batches slow down as the ledger grows, so their
    # median would depend on how many the window happened to hold.
    report.put(
        "wall_s", window * workload.clients * workload.sizes["batch_jobs"] / count, batches
    )
    report.put(
        "records_per_s", sum(job.receipt["map_input_records"] for job in jobs) / window, count
    )
    report.put("jobs_per_s", count / window, count)
    report.put("job_latency_p50_ms", median(job.latency_s for job in jobs) * 1e3, count)
    original_s, adaptive_s = engine_walls
    report.put(
        "adaptive_vs_original_wall_x",
        median(a / o for a, o in zip(adaptive_s, original_s)),
        count,
    )
    # One receipt per seed of the batch: exact, whatever the job count.
    batch = {job.seed: job.receipt for job in jobs}.values()
    adaptive_bytes = sum(receipt["adaptive_bytes"] for receipt in batch)
    report.put(
        "transfer_reduction_x",
        sum(receipt["original_bytes"] for receipt in batch) / adaptive_bytes,
    )
    report.put("map_output_bytes", adaptive_bytes)


def service_layers(report: Report, logs: list, jobs: list, probe: dict) -> None:
    count = len(jobs)
    latencies = [job.latency_s for job in jobs]  # in completion order
    quarter = max(1, count // 4)
    scrapes = logs[0].scrapes_s
    traced = [seconds for log in logs for seconds, on in log.batches if on]
    untraced = [seconds for log in logs for seconds, on in log.batches if not on]
    report.put(
        "obs.jobservice.queue_wait_p50_ms", median(j.queue_wait_s for j in jobs) * 1e3, count
    )
    report.put("obs.jobservice.run_p50_ms", median(j.run_s for j in jobs) * 1e3, count)
    report.put(
        "obs.jobservice.latency_p95_ms",
        (statistics.quantiles(latencies, n=20)[-1] if count > 1 else latencies[0]) * 1e3,
        count,
    )
    report.put("obs.jobservice.retries_429", sum(log.retries_429 for log in logs), count)
    report.put(
        "obs.jobservice.latency_growth_x",
        median(latencies[-quarter:]) / median(latencies[:quarter]),
        quarter,
    )
    for name, value in probe.items():
        report.put(name, value, 10)
    report.put("obs.server.scrape_p50_ms", median(scrapes) * 1e3, len(scrapes))
    report.put("obs.server.scrape_errors", logs[0].scrape_errors, len(scrapes))
    report.put(
        "bench.trace_overhead_x",
        median(traced) / median(untraced) if traced and untraced else 0.0,
        len(traced),
    )


# -- one workload, this process ----------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers as L
    import service as S
    import workloads as W

    import_s = time.perf_counter() - began
    OUT.mkdir(parents=True, exist_ok=True)
    # Anything that asks for a temp dir stays inside the checkout.
    os.environ["TMPDIR"] = str(OUT)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = Report(args.workload, declared)
    ops = W.Ops()
    detail = provenance(args)
    shm_before = shm_names()
    if args.workload == S.NAME:
        summary = run_service(args, report, ops, import_s)
    elif args.trace:
        summary = run_jobs_traced(args, report, ops)
    else:
        summary = run_jobs_untraced(args, report, ops, import_s)
        report.put("peak_rss_mb", own_peak_rss_mb())
    check_clean_exit(ops, args.workload, shm_before)
    shutil.rmtree(OUT / f"scratch-{os.getpid()}", ignore_errors=True)

    if args.trace:
        produced = set(report.values)
        expected = {m["name"] for m in declared if L.applies(m["name"], args.workload)}
        if produced != expected:
            raise SystemExit(
                f"{args.workload}: layer metrics produced and declared differ: "
                f"{sorted(produced ^ expected)}"
            )
        for metric in declared:
            if metric["name"] not in report.values:
                report.put(metric["name"], 0.0, 0)

    report.print_lines()
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{args.workload} failed_ops_ratio {ops.failed / ops.attempted:.6g} ratio "
        f"failed={ops.failed} attempted={ops.attempted}"
    )
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": report.metrics_object(),
    }
    detail.update(
        workload=args.workload,
        trace=args.trace,
        sizes=summary,
        samples=report.samples,
        result=result,
    )
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


# -- every workload, one subprocess each ----------------------------------------------


def run_all(args: argparse.Namespace, label: str) -> tuple[Path, bool, str]:
    """Run the whole benchmark.

    Returns the result file, whether every run passed, and what the
    runs printed.
    """
    spec = load_spec()
    OUT.mkdir(parents=True, exist_ok=True)
    results: dict[str, Any] = {"provenance": provenance(args), "runs": []}
    ok = True
    log = []
    for trace in (0,) if args.untraced_only else (0, 1):
        for workload in spec["workloads"]:
            for repeat in range(args.runs):
                seed = args.seed + repeat if args.vary_seed else args.seed
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload["name"],
                    "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                began = time.perf_counter()
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                elapsed = time.perf_counter() - began
                log.append(done.stdout)
                sys.stdout.write(done.stdout)
                print(f"{workload['name']} trace={trace} seed={seed} took {elapsed:.1f} s")
                sys.stdout.flush()
                ok = ok and done.returncode == 0
                sidecar = OUT / f"{workload['name']}.trace{trace}.json"
                if done.returncode in (0, 1) and sidecar.exists():
                    results["runs"].append(
                        {**json.loads(sidecar.read_text()), "process_seconds": elapsed}
                    )
                    sidecar.unlink()
    path = OUT / f"results-{label}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    return path, ok, "".join(log)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=42, help="feeds repro.datagen only")
    parser.add_argument("--seconds", type=float, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes; without --workload: the self-test")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all-workloads mode)")
    parser.add_argument("--vary-seed", action="store_true", help="with --runs: seed, seed+1, ...")
    parser.add_argument("--untraced-only", action="store_true", help="skip the traced runs")
    parser.add_argument("--repeat-check", action="store_true", help="run everything twice and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(load_spec()["run_seconds"])

    if args.workload:
        become_subreaper()
        try:
            return run_one(args)
        finally:
            reap_descendants()  # on the failing paths too
    sys.path.insert(0, str(HERE))
    if args.quick:
        import selftest

        path, ok, log = run_all(args, "quick")
        return 0 if selftest.check(path, log) == 0 and ok else 1
    if args.repeat_check:
        import compare

        first, ok_a, _ = run_all(args, f"seed{args.seed}-a")
        second, ok_b, _ = run_all(args, f"seed{args.seed}-b")
        agree = compare.main([str(first), str(second)]) == 0
        return 0 if ok_a and ok_b and agree else 1
    _, ok, _ = run_all(args, f"seed{args.seed}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
