"""``service_closed_loop``: ``repro serve`` under two closed-loop clients.

The server is the real thing — ``python -m repro serve`` as a subprocess
on a fresh ledger inside the benchmark's scratch directory.  Each client
thread submits a tiny ``wordcount`` job through ``POST /jobs``, polls
``GET /jobs/<id>`` every 20 ms until it is done, fetches its receipt
from ``GET /runs/<run_id>``, and only then submits the next: a closed
loop, because each caller waits for its receipt.  Client 0 also scrapes
``/metrics`` once after each of its jobs, so there are never more than
two connections.  The job is tiny on purpose: admission, recording and
ledger I/O are the work.

Jobs cycle through a fixed batch of seeds derived from ``--seed``, so
the byte counters of a batch are exact and every recurrence of a seed
must reproduce the receipt it produced the first time.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.mr import counters as C
from repro.obs.metrics import validate_prometheus_text
from repro.obs.run_store import EVENTS_FILE, RunStore

from spans import NullRecorder, SpanRecorder
from workloads import Ops

NAME = "service_closed_loop"

SIZES = {
    "num_lines": 40,
    "num_splits": 2,
    "num_reducers": 2,
    "workers": 2,
    "queue_depth": 8,
    "clients": 2,
    "batch_jobs": 10,
    "min_batches": 5,
    "ledger_probe_runs": 200,
}
QUICK_SIZES = {**SIZES, "batch_jobs": 3, "min_batches": 2, "ledger_probe_runs": 20}

POLL_SECONDS = 0.02
JOB_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 30.0


def http(url: str, payload: dict | None = None) -> tuple[int, str, dict]:
    """One HTTP exchange; 4xx/5xx come back as a code, not an exception."""
    data = headers = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.getcode(), response.read().decode(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


class Server:
    """A ``repro serve`` subprocess on its own ledger directory."""

    def __init__(self, repo_root: Path, ledger: Path, workers: int, queue_depth: int):
        self.ledger = ledger
        env = dict(os.environ)
        src = str(repo_root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        # The ledger must keep every run: a pruned run is
        # indistinguishable from a lost receipt, and ledger growth is
        # part of what the workload measures.
        env["REPRO_RUNS_KEEP"] = "1000000"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--runs-dir", str(ledger),
                "--workers", str(workers),
                "--queue-depth", str(queue_depth),
            ],
            cwd=repo_root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stderr.readline()
        marker = " on http://"
        if marker not in banner:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = "http://" + banner.split(marker, 1)[1].split()[0]
        deadline = time.monotonic() + 10.0
        while True:
            try:
                if http(f"{self.url}/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def stop(self) -> bool:
        """Drain and stop the server; True if it exited cleanly by itself."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            clean = False
            self.proc.kill()
            self.proc.communicate()
        shutil.rmtree(self.ledger, ignore_errors=True)
        return clean and self.proc.returncode == 0


@dataclass
class JobSample:
    seed: int
    latency_s: float
    queue_wait_s: float
    run_s: float
    run_id: str
    finished_at: float
    receipt: dict[str, Any]


@dataclass
class ClientLog:
    jobs: list[JobSample] = field(default_factory=list)
    #: (seconds, traced?) per complete batch.
    batches: list[tuple[float, bool]] = field(default_factory=list)
    scrapes_s: list[float] = field(default_factory=list)
    scrape_errors: int = 0
    retries_429: int = 0


class ServiceWorkload:
    name = NAME

    def __init__(self, quick: bool, repo_root: Path, scratch: Path):
        self.sizes = QUICK_SIZES if quick else SIZES
        self.repo_root = repo_root
        self.scratch = scratch
        self.server: Server | None = None
        # Never more load-generator threads or server workers than CPUs.
        cpus = os.cpu_count() or 1
        self.clients = max(1, min(self.sizes["clients"], cpus))
        self.workers = max(1, min(self.sizes["workers"], cpus))

    # -- set-up ------------------------------------------------------------
    def setup(self, seed: int) -> None:
        self.seeds = [seed * 1000 + index for index in range(self.sizes["batch_jobs"])]
        ledger = self.scratch / f"ledger-{time.monotonic_ns()}"
        self.server = Server(
            self.repo_root, ledger, self.workers, self.sizes["queue_depth"]
        )

    def close(self) -> bool:
        if self.server is None:
            return True
        server, self.server = self.server, None
        return server.stop()

    def spec(self, seed: int) -> dict:
        return {
            "experiment": "wordcount",
            "params": {
                "num_lines": self.sizes["num_lines"],
                "num_splits": self.sizes["num_splits"],
                "num_reducers": self.sizes["num_reducers"],
                "seed": seed,
            },
        }

    def input_summary(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "server_workers": self.workers,
            "batch_jobs": self.sizes["batch_jobs"],
            "num_lines": self.sizes["num_lines"],
        }

    # -- the closed loop -----------------------------------------------------
    def run(
        self, seconds: float, ops: Ops, rec: SpanRecorder | None, min_batches: int
    ) -> tuple[list[ClientLog], float]:
        """Drive the clients for ``seconds``; returns their logs and the window.

        With a recorder, every other batch of a client is traced (spans
        around each HTTP call) so the same run yields traced and
        untraced batch walls for ``bench.trace_overhead_x``.
        """
        url = self.server.url
        logs = [ClientLog() for _ in range(self.clients)]
        stop = threading.Event()
        lock = threading.Lock()
        receipts: dict[int, dict] = {}
        started = time.perf_counter()
        deadline = started + seconds
        null = NullRecorder()

        def one_job(index: int, seed: int, log: ClientLog, spans: Any) -> None:
            with spans.span("job", client=index, seed=seed):
                with spans.span("http.submit"):
                    while True:
                        code, body, headers = http(f"{url}/jobs", self.spec(seed))
                        if code != 429:
                            break
                        log.retries_429 += 1
                        time.sleep(min(float(headers.get("Retry-After") or 1.0), 2.0))
                if code != 202:
                    with lock:
                        ops.check(False, f"POST /jobs answered {code}: {body[:200]}")
                    return
                job_id = json.loads(body)["job_id"]
                give_up = time.monotonic() + JOB_TIMEOUT_SECONDS
                with spans.span("http.poll"):
                    while True:
                        code, body, _ = http(f"{url}/jobs/{job_id}")
                        job = json.loads(body) if code == 200 else {}
                        if job.get("state") in ("done", "failed"):
                            break
                        if time.monotonic() > give_up:
                            break
                        time.sleep(POLL_SECONDS)
                with spans.span("http.receipt"):
                    detail: dict = {}
                    if job.get("state") == "done":
                        code, body, _ = http(f"{url}/runs/{job['run_id']}")
                        detail = json.loads(body) if code == 200 else {}
                receipt = summarise_receipt(detail)
                with lock:
                    # A service job is one operation: done, with a
                    # completed bundle holding both variants' counters.
                    ops.check(
                        receipt is not None,
                        f"{job_id}: state {job.get('state')!r}, bundle "
                        f"{detail.get('status')!r}: {job.get('error', '')}",
                    )
                    if receipt is None:
                        return
                    first = receipts.setdefault(seed, receipt)
                    ops.check(
                        first == receipt,
                        f"{job_id}: receipt for seed {seed} differs from its first run",
                    )
                log.jobs.append(
                    JobSample(
                        seed=seed,
                        latency_s=job["finished_unix"] - job["submitted_unix"],
                        queue_wait_s=job["started_unix"] - job["submitted_unix"],
                        run_s=job["finished_unix"] - job["started_unix"],
                        run_id=job["run_id"],
                        finished_at=time.perf_counter() - started,
                        receipt=receipt,
                    )
                )
                if index == 0:
                    with spans.span("http.scrape"):
                        began = time.perf_counter()
                        code, body, _ = http(f"{url}/metrics")
                        log.scrapes_s.append(time.perf_counter() - began)
                    try:
                        if code != 200:
                            raise ValueError(f"HTTP {code}")
                        validate_prometheus_text(body)
                    except ValueError:
                        log.scrape_errors += 1

        def client(index: int) -> None:
            log = logs[index]
            batch = 0
            while not stop.is_set():
                # Client 0 traces its odd batches, client 1 its even ones:
                # latency grows with the ledger, and this keeps traced
                # and untraced batches equally early and late.
                traced = rec is not None and (batch + index) % 2 == 1
                spans = rec if traced else null
                began = time.perf_counter()
                complete = True
                with spans.span("batch", client=index):
                    for seed in self.seeds:
                        if stop.is_set():
                            complete = False
                            break
                        one_job(index, seed, log, spans)
                if complete:
                    log.batches.append((time.perf_counter() - began, traced))
                batch += 1
                if (
                    time.perf_counter() >= deadline
                    and len(log.batches) >= min_batches
                ):
                    # The first client to finish stops the other after
                    # its current job, so both are active for the whole
                    # measured window.
                    stop.set()

        if rec is not None:
            rec.trace = self.name
        threads = [
            threading.Thread(target=client, args=(index,), name=f"client-{index}")
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        return logs, window

    # -- post-processing -------------------------------------------------------
    def job_walls(self, run_ids: list[str]) -> tuple[list[float], list[float]]:
        """Engine wall of each run's Original and AdaptiveSH job.

        The ledger's ``events.jsonl`` stamps every attempt event with
        seconds since its job started; a job's wall is its last stamp.
        """
        original: list[float] = []
        adaptive: list[float] = []
        for run_id in run_ids:
            last: dict[int, float] = {}
            path = self.server.ledger / run_id / EVENTS_FILE
            for line in path.read_text().splitlines():
                row = json.loads(line)
                last[row["run"]] = max(last.get(row["run"], 0.0), row["t_seconds"])
            original.append(last[0])
            adaptive.append(last[1])
        return original, adaptive

    def probe_ledger(self, rec: Any) -> dict[str, float]:
        """``RunStore.create`` on an empty ledger and on one holding N runs."""
        root = self.scratch / "probe-ledger"
        store = RunStore(root, keep=1000000)
        probe = self.sizes["ledger_probe_runs"]
        timings = []
        try:
            for index in range(probe + 10):
                with rec.span("obs.run_store.create", index=index) as span:
                    store.create({"kind": "bench", "name": "e2e-probe", "index": index})
                timings.append(span.duration * 1000.0)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {
            "obs.run_store.create_ms": statistics.median(timings[:10]),
            "obs.run_store.create_ms_at_200": statistics.median(timings[probe:]),
        }

    def peak_rss_mb(self) -> float:
        """Peak RSS of the (already reaped) server processes, MiB."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def summarise_receipt(detail: dict) -> dict[str, Any] | None:
    """The exact numbers of one completed run bundle, or None if it is not one."""
    if detail.get("status") != "completed":
        return None
    jobs = [entry for entry in detail.get("entry_list", []) if entry.get("kind") == "job"]
    if len(jobs) != 2:
        return None
    original, adaptive = (entry["counters"] for entry in jobs)

    return {
        "map_input_records": int(
            original[C.MAP_INPUT_RECORDS] + adaptive[C.MAP_INPUT_RECORDS]
        ),
        "original_bytes": int(original[C.MAP_OUTPUT_MATERIALIZED_BYTES]),
        "adaptive_bytes": int(adaptive[C.MAP_OUTPUT_MATERIALIZED_BYTES]),
        "counters": detail.get("counters"),
    }
