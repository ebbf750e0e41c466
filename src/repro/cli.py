"""Command-line interface: ``python -m repro``.

Commands:

* ``python -m repro list`` — show every reproducible experiment with
  its paper artefact and tunable parameters.
* ``python -m repro run <experiment> [--param value ...]`` — run one
  experiment and print its table.  Parameters are the driver function's
  keyword arguments (``--num-queries 2000``, ``--num-reducers 4``, ...)
  and are converted to the type of the parameter's default.
* ``python -m repro run all`` — run everything at default scale.
* ``--jobs/-j N`` (anywhere on the ``run`` line) executes every job's
  map/reduce tasks on a pool of ``N`` worker processes instead of
  serially; ``REPRO_JOBS=N`` in the environment is the fallback.
  Counters are byte-identical either way.
* ``--record`` / ``--runs-dir DIR`` (anywhere on the ``run`` line)
  writes the run into the flight-recorder ledger (``.repro/runs`` by
  default): manifest, counters receipt, per-attempt events and phase
  spans — with ``status=failed`` bundles kept on crashes.
* ``python -m repro trace <run> [--chrome PATH]`` — render the
  per-phase breakdown and the attempt table of a recorded run (an id,
  a unique prefix, or a bundle directory); ``--chrome`` also writes
  the Chrome-trace JSON (loadable in ``chrome://tracing`` / Perfetto).
* ``python -m repro runs ls|show|diff`` — inspect the ledger; ``diff``
  compares two runs' counters, derived gauges and phase breakdowns.
* ``python -m repro serve`` — HTTP job service over the ledger: a live
  Prometheus ``/metrics`` scrape plus ``/runs``, ``/runs/<id>`` and
  ``/healthz``, and a job-submission write path (``POST /jobs`` into a
  bounded queue executed by ``--workers`` threads; a full queue
  answers 429 + Retry-After).  See ``docs/observability.md``.
* ``python -m repro loadgen`` — replay many jobs against a live server
  and verify zero accepted jobs are lost and every ``/metrics`` scrape
  stays valid under load.
* ``python -m repro summary`` — aggregate the benchmark reports under
  ``benchmarks/results/`` into one document.

Parameter overrides accept both ``--param value`` and ``--param=value``;
an unknown parameter fails with the experiment's tunable list.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.report import ExperimentResult
from repro.experiments import (
    run_ablation_crosscall,
    run_ablation_granularity,
    run_ablation_record_percent,
    run_ablation_skew,
    run_fig9,
    run_hits_experiment,
    run_knn_join_experiment,
    run_multiquery_experiment,
    run_similarity_join_experiment,
    run_star_join_experiment,
    run_fig10,
    run_fig11,
    run_fig12,
    run_pagerank_experiment,
    run_sec71,
    run_table1,
    run_table2,
    run_wordcount_experiment,
)

#: Experiment registry: name -> (driver, paper artefact).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig9": (run_fig9, "Figure 9 — map output size, Query-Suggestion"),
    "fig10": (run_fig10, "Figure 10 — with Combiner + compression"),
    "table1": (run_table1, "Table 1 — codec cost breakdown"),
    "table2": (run_table2, "Table 2 — Query-Suggestion cost breakdown"),
    "fig11": (run_fig11, "Figure 11 — CPU vs extra Map work"),
    "sec71": (run_sec71, "Section 7.1 — overhead on Sort"),
    "wordcount": (run_wordcount_experiment, "Section 7.7.1 — WordCount"),
    "pagerank": (run_pagerank_experiment, "Section 7.7.2 — PageRank"),
    "fig12": (run_fig12, "Figure 12 — theta-join"),
    "ablation-crosscall": (
        run_ablation_crosscall,
        "Ablation — cross-call EagerSH (paper Sec. 9 future work)",
    ),
    "ablation-granularity": (
        run_ablation_granularity,
        "Ablation — per-partition vs per-call decision",
    ),
    "ablation-skew": (run_ablation_skew, "Ablation — LazySH decode skew"),
    "ablation-record-percent": (
        run_ablation_record_percent,
        "Ablation — record-metadata spill mechanism",
    ),
    "claim-similarity-join": (
        run_similarity_join_experiment,
        "Claim — set-similarity join (paper Sec. 1)",
    ),
    "claim-multiquery": (
        run_multiquery_experiment,
        "Claim — multi-query scan sharing (paper Sec. 1/8)",
    ),
    "claim-hits": (
        run_hits_experiment,
        "Claim — HITS graph algorithm (paper Sec. 1)",
    ),
    "claim-star-join": (
        run_star_join_experiment,
        "Claim — multi-way chain join (paper Sec. 1)",
    ),
    "claim-knn-join": (
        run_knn_join_experiment,
        "Claim — kNN join, H-BNLJ (paper Sec. 1)",
    ),
}


def _tunable_params(fn: Callable[..., Any]) -> dict[str, Any]:
    """The driver's keyword parameters and their defaults."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(fn).parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and isinstance(parameter.default, (int, float, str, bool))
    }


def _convert(raw: str, default: Any) -> Any:
    """Convert a CLI string to the type of the parameter's default."""
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


@dataclass
class RunnerFlags:
    """Engine-level flags split out of an experiment's overrides."""

    jobs: int | None = None
    record: bool = False
    runs_dir: str | None = None


def _extract_runner_flags(
    pairs: list[str],
) -> tuple[RunnerFlags, list[str]]:
    """Split the runner flags (``--jobs/-j N``, ``--record``,
    ``--runs-dir DIR``) out of the overrides.

    The ``run`` sub-parser collects everything after the experiment
    name into ``overrides`` (argparse.REMAINDER), so runner flags given
    *after* the experiment land there instead of on the parser.  Both
    ``--flag value`` and ``--flag=value`` spellings are accepted.
    """
    flags = RunnerFlags()
    rest: list[str] = []
    index = 0
    while index < len(pairs):
        flag = pairs[index]
        name, eq, inline = flag.partition("=")
        if name == "--record":
            flags.record = True
        elif name in ("-j", "--jobs", "--runs-dir"):
            if eq:
                value = inline
            else:
                if index + 1 >= len(pairs):
                    raise ValueError(f"missing value for {flag!r}")
                value = pairs[index + 1]
                index += 1
            if name == "--runs-dir":
                flags.runs_dir = value
            else:
                flags.jobs = int(value)
        else:
            rest.append(flag)
        index += 1
    return flags, rest


def _parse_overrides(
    pairs: list[str], fn: Callable[..., Any]
) -> dict[str, Any]:
    """Parse ``--key value`` / ``--key=value`` pairs for the driver."""
    tunable = _tunable_params(fn)
    overrides: dict[str, Any] = {}
    index = 0
    while index < len(pairs):
        flag = pairs[index]
        if not flag.startswith("--"):
            raise ValueError(f"expected --param, got {flag!r}")
        name, eq, inline = flag[2:].partition("=")
        name = name.replace("-", "_")
        if name not in tunable:
            known = ", ".join(
                f"--{key.replace('_', '-')}" for key in sorted(tunable)
            )
            raise ValueError(
                f"unknown parameter {flag!r} for this experiment; "
                f"tunable parameters: {known}"
            )
        if eq:
            raw = inline
            index += 1
        else:
            if index + 1 >= len(pairs):
                raise ValueError(f"missing value for {flag!r}")
            raw = pairs[index + 1]
            index += 2
        try:
            overrides[name] = _convert(raw, tunable[name])
        except ValueError as exc:
            raise ValueError(f"bad value for {flag!r}: {exc}") from exc
    return overrides


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (fn, description) in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
        params = ", ".join(
            f"--{key.replace('_', '-')} {value}"
            for key, value in _tunable_params(fn).items()
        )
        print(f"{'':<{width}}    defaults: {params}")
    return 0


def _cmd_run(
    name: str,
    overrides: list[str],
    record: bool = False,
    runs_dir: str | None = None,
) -> int:
    try:
        flags, overrides = _extract_runner_flags(overrides)
        if flags.jobs is not None:
            from repro.mr.executor import set_default_jobs

            set_default_jobs(flags.jobs)
        record = record or flags.record
        if flags.runs_dir is not None:
            runs_dir = flags.runs_dir
        if name == "all":
            if overrides:
                raise ValueError(
                    "parameter overrides do not apply to 'run all'; "
                    "run one experiment to override its parameters"
                )
            names = list(EXPERIMENTS)
            kwargs_by_name: dict[str, dict[str, Any]] = {
                exp_name: {} for exp_name in names
            }
        else:
            if name not in EXPERIMENTS:
                print(
                    f"unknown experiment {name!r}; "
                    "run 'python -m repro list'",
                    file=sys.stderr,
                )
                return 2
            names = [name]
            kwargs_by_name = {
                name: _parse_overrides(overrides, EXPERIMENTS[name][0])
            }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    recorder = None
    if record or runs_dir is not None:
        from repro.obs.flightrecorder import (
            FlightRecorder,
            set_flight_recorder,
        )
        from repro.obs.run_store import RunStore

        recorder = FlightRecorder(
            RunStore(runs_dir),
            kind="experiment",
            name=name,
            params={exp: kwargs_by_name[exp] for exp in names},
            argv=["run", name, *overrides],
        )
        set_flight_recorder(recorder)
    status = "failed"
    try:
        for index, exp_name in enumerate(names):
            if index:
                print()
            fn, _ = EXPERIMENTS[exp_name]
            result = fn(**kwargs_by_name[exp_name])
            print(result.report())
        status = "completed"
    except BaseException as exc:
        if recorder is not None:
            recorder.record_error(exc)
        raise
    finally:
        # Finalise whatever was recorded even when an experiment
        # raises: a post-mortem is exactly when the bundle matters.
        # The failed run keeps its partial artifacts and is finalised
        # with status=failed.
        if recorder is not None:
            from repro.obs.flightrecorder import clear_flight_recorder

            clear_flight_recorder()
            recorder.finalize(status)
            print(
                f"run ledger: {recorder.path} (status={status}; "
                "inspect with 'python -m repro runs ls/show/diff' "
                "and 'python -m repro trace')",
                file=sys.stderr,
            )
    return 0


def _cmd_trace(
    run: str, runs_dir: str | None, chrome_path: str | None
) -> int:
    from repro.analysis.tracereport import render_trace_report
    from repro.obs.export import load_jsonl, write_chrome_trace
    from repro.obs.run_store import RunStore, RunStoreError

    if chrome_path is not None:
        parent = pathlib.Path(chrome_path).parent
        if not parent.is_dir():
            print(
                f"error: --chrome: no such directory: {parent}",
                file=sys.stderr,
            )
            return 2
    try:
        bundle = pathlib.Path(run)
        if bundle.is_dir():
            bundle = bundle.resolve()
            record = RunStore(bundle.parent).load(bundle.name)
        else:
            store = RunStore(runs_dir)
            record = store.load(store.resolve(run))
    except RunStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = load_jsonl(record)
    if chrome_path is not None:
        write_chrome_trace(chrome_path, jobs)
        print(
            f"trace: {len(jobs)} job(s) -> {chrome_path} "
            "(chrome://tracing / Perfetto)",
            file=sys.stderr,
        )
    print(render_trace_report(jobs))
    return 0


def _cmd_serve(
    host: str,
    port: int,
    runs_dir: str | None,
    workers: int,
    queue_depth: int,
) -> int:
    import signal

    from repro.obs.jobservice import JobService
    from repro.obs.run_store import RunStore
    from repro.obs.server import ObservabilityServer

    store = RunStore(runs_dir)
    # start() forks the job workers: it runs before the HTTP server
    # and its threads exist.
    service = JobService(
        store, workers=workers, queue_depth=queue_depth
    ).start()
    server = ObservabilityServer(
        store, host=host, port=port, service=service
    )
    print(
        f"serving run ledger {store.root} on {server.url} "
        "(endpoints: /metrics /runs /runs/<id> /healthz "
        "POST /jobs /jobs/<id>; "
        f"{workers} worker process(es), queue depth {queue_depth}; "
        "Ctrl-C or SIGTERM drains and stops)",
        file=sys.stderr,
    )
    # SIGTERM is Ctrl-C: a service manager's stop drains the queue.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Graceful drain: stop admitting, let queued + in-flight jobs
        # finish (each finalises its ledger bundle), then stop serving
        # reads so a watching scraper sees the final state.
        print(
            "draining job queue (accepted jobs finish; Ctrl-C again "
            "to abort)...",
            file=sys.stderr,
        )
        service.drain()
        server.stop()
    return 0


def _cmd_loadgen(
    url: str,
    experiment: str,
    overrides: list[str],
    count: int,
    concurrency: int,
    timeout: float,
) -> int:
    from repro.obs.loadgen import run_load

    if experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {experiment!r}; "
            "run 'python -m repro list'",
            file=sys.stderr,
        )
        return 2
    if overrides and overrides[0] == "--":
        overrides = overrides[1:]
    try:
        params = _parse_overrides(overrides, EXPERIMENTS[experiment][0])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_load(
        url=url,
        experiment=experiment,
        params=params,
        count=count,
        concurrency=concurrency,
        timeout=timeout,
    )
    print(report.summary())
    return 0 if report.ok() else 1


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.analysis.rundiff import (
        render_diff,
        render_run,
        runs_table,
    )
    from repro.obs.run_store import RunStore, RunStoreError

    store = RunStore(args.runs_dir)
    try:
        if args.runs_command == "ls":
            print(runs_table(store.load_all()))
        elif args.runs_command == "show":
            print(render_run(store.load(store.resolve(args.run_id))))
        else:
            print(
                render_diff(
                    store.load(store.resolve(args.run_a)),
                    store.load(store.resolve(args.run_b)),
                )
            )
    except RunStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_summary(results_dir: str) -> int:
    from repro.analysis.summary import collect_reports, render_summary

    print(render_summary(collect_reports(pathlib.Path(results_dir))))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Anti-Combining for MapReduce' (SIGMOD 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list reproducible experiments")
    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or 'all')"
    )
    run_parser.add_argument("experiment", help="experiment name or 'all'")
    run_parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run map/reduce tasks on N worker processes "
        "(default: serial; REPRO_JOBS env is the fallback)",
    )
    run_parser.add_argument(
        "--record",
        action="store_true",
        help="record the run into the flight-recorder ledger "
        "(.repro/runs by default)",
    )
    run_parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="ledger root for --record (implies --record; "
        "REPRO_RUNS_DIR env is the fallback root)",
    )
    run_parser.add_argument(
        "overrides",
        nargs=argparse.REMAINDER,
        help="parameter overrides as --param value (or --param=value) pairs",
    )
    trace_parser = subparsers.add_parser(
        "trace",
        help="per-phase breakdown and attempt table of a recorded run",
    )
    trace_parser.add_argument(
        "run",
        help="run id (unique prefixes resolve) or a bundle directory",
    )
    trace_parser.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also write the run as Chrome-trace JSON to PATH",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the run ledger over HTTP "
        "(/metrics /runs /runs/<id> /healthz)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=9464,
        help="listen port (0 picks a free one)",
    )
    serve_parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="ledger root (default: .repro/runs or REPRO_RUNS_DIR)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="jobs run at once, each in a worker process (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="bounded admission queue depth; a full queue answers "
        "429 with Retry-After (default: 16)",
    )
    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="replay many jobs against a live 'repro serve' and "
        "verify no accepted job is lost",
    )
    loadgen_parser.add_argument(
        "--url",
        default="http://127.0.0.1:9464",
        help="base URL of the running server",
    )
    loadgen_parser.add_argument(
        "--experiment",
        default="fig9",
        help="experiment to submit (default: fig9)",
    )
    loadgen_parser.add_argument(
        "--count",
        type=int,
        default=100,
        metavar="N",
        help="jobs to submit (default: 100)",
    )
    loadgen_parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="concurrent submitter threads (default: 8)",
    )
    loadgen_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="overall deadline for submit + completion (default: 600)",
    )
    loadgen_parser.add_argument(
        "overrides",
        nargs=argparse.REMAINDER,
        help="experiment parameter overrides as --param value pairs "
        "(sent with every job)",
    )
    runs_parser = subparsers.add_parser(
        "runs", help="inspect the recorded run ledger"
    )
    runs_sub = runs_parser.add_subparsers(
        dest="runs_command", required=True
    )
    runs_ls = runs_sub.add_parser("ls", help="list recorded runs")
    runs_show = runs_sub.add_parser(
        "show", help="one run's manifest, entries and counters"
    )
    runs_show.add_argument(
        "run_id", help="run id (unique prefixes resolve)"
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="diff two runs' counters, derived gauges and phases",
    )
    runs_diff.add_argument("run_a", help="baseline run id (or prefix)")
    runs_diff.add_argument("run_b", help="candidate run id (or prefix)")
    for sub in (runs_ls, runs_show, runs_diff, trace_parser):
        sub.add_argument(
            "--runs-dir",
            default=None,
            metavar="DIR",
            help="ledger root (default: .repro/runs or REPRO_RUNS_DIR)",
        )
    summary_parser = subparsers.add_parser(
        "summary", help="aggregate persisted benchmark reports"
    )
    summary_parser.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding the per-benchmark reports",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "summary":
            return _cmd_summary(args.results_dir)
        if args.command == "trace":
            return _cmd_trace(args.run, args.runs_dir, args.chrome)
        if args.command == "serve":
            return _cmd_serve(
                args.host,
                args.port,
                args.runs_dir,
                args.workers,
                args.queue_depth,
            )
        if args.command == "loadgen":
            return _cmd_loadgen(
                args.url,
                args.experiment,
                args.overrides,
                args.count,
                args.concurrency,
                args.timeout,
            )
        if args.command == "runs":
            return _cmd_runs(args)
        if args.jobs is not None:
            from repro.mr.executor import set_default_jobs

            set_default_jobs(args.jobs)
        return _cmd_run(
            args.experiment,
            args.overrides,
            args.record,
            args.runs_dir,
        )
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
