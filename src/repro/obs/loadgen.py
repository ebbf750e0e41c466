"""Load generator for the ``repro serve`` job-submission write path.

``repro loadgen`` replays many jobs against a live server and asserts
the service's heavy-traffic contract end to end:

* every job is submitted through ``POST /jobs``; a 429 (bounded queue
  full) is honoured by sleeping the server's ``Retry-After`` and
  retrying — admission control sheds load, it must never *lose* load;
* every accepted job must reach the ``done`` state and leave a
  finished (``completed``) run bundle in the ledger, served back by
  ``GET /runs/<run_id>``;
* while jobs flow, a scraper thread hits ``/metrics`` continuously and
  every scrape must pass the repo's own strict exposition validator
  (:func:`repro.obs.metrics.validate_prometheus_text`) — concurrent
  writers must never tear a scrape.

The report also prints what the server says each job's run took
(``finished_unix − started_unix`` from ``GET /jobs``): median, p95 and
the last quarter's median over the first quarter's — per-job cost that
grows with the ledger shows there as a ratio above 1 — and, for the
scrapes, the median request time and the last one's bytes and
``mr_derived_*`` sample count, which must not grow with it either.

The ledger's retention must keep at least ``count`` runs for the
bundle check to hold (``REPRO_RUNS_KEEP``), since a prune racing the
verification is indistinguishable from a lost run.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import validate_prometheus_text

DEFAULT_URL = "http://127.0.0.1:9464"
DEFAULT_COUNT = 100
DEFAULT_CONCURRENCY = 8
DEFAULT_TIMEOUT = 600.0


@dataclass
class LoadReport:
    """What the run did, and every way it deviated from the contract."""

    count: int = 0
    accepted: int = 0
    retries_429: int = 0
    done: int = 0
    failed_jobs: list[str] = field(default_factory=list)
    lost_jobs: list[str] = field(default_factory=list)
    missing_bundles: list[str] = field(default_factory=list)
    scrapes: int = 0
    scrape_errors: list[str] = field(default_factory=list)
    submit_errors: list[str] = field(default_factory=list)
    seconds: float = 0.0
    #: The server's own run seconds of every done job
    #: (``finished_unix − started_unix``), in completion order.
    run_seconds: list[float] = field(default_factory=list)
    #: Seconds each ``/metrics`` request took, and what the last valid
    #: one carried: its bytes and its ``mr_derived_*`` samples — the
    #: per-run series, which must not pile up as the ledger grows.
    scrape_seconds: list[float] = field(default_factory=list)
    scrape_bytes: int = 0
    scrape_derived_samples: int = 0

    def ok(self) -> bool:
        return (
            self.accepted == self.count
            and self.done == self.accepted
            and not self.failed_jobs
            and not self.lost_jobs
            and not self.missing_bundles
            and not self.scrape_errors
            and not self.submit_errors
            and self.scrapes > 0
        )

    def run_latency(self) -> tuple[float, float, float] | None:
        """``(p50 ms, p95 ms, growth)`` of the done jobs' run seconds.

        Growth is the median of the last quarter of jobs over the
        median of the first quarter, in completion order.
        """
        runs = self.run_seconds
        if not runs:
            return None
        quarter = max(1, len(runs) // 4)
        first = statistics.median(runs[:quarter])
        last = statistics.median(runs[-quarter:])
        p95 = (
            statistics.quantiles(runs, n=20)[-1] if len(runs) > 1 else runs[0]
        )
        return (
            statistics.median(runs) * 1e3,
            p95 * 1e3,
            last / first if first > 0 else float("inf"),
        )

    def summary(self) -> str:
        scrapes = (
            f"scrapes: {self.scrapes} /metrics scrapes, "
            f"{len(self.scrape_errors)} invalid"
        )
        if self.scrape_seconds:
            scrapes += (
                f", p50 {statistics.median(self.scrape_seconds) * 1e3:.1f}"
                f" ms, last {self.scrape_bytes} bytes with "
                f"{self.scrape_derived_samples} mr_derived_* samples"
            )
        lines = [
            f"jobs: {self.accepted}/{self.count} accepted "
            f"({self.retries_429} retries after 429), "
            f"{self.done} done, {len(self.failed_jobs)} failed, "
            f"{len(self.lost_jobs)} lost",
            f"bundles: {self.done - len(self.missing_bundles)}"
            f"/{self.done} finished run bundles verified",
            scrapes,
            f"wall: {self.seconds:.1f}s",
        ]
        latency = self.run_latency()
        if latency is not None:
            lines.append(
                "run latency: p50 {:.1f} ms, p95 {:.1f} ms, last quarter "
                "/ first quarter {:.2f}x".format(*latency)
            )
        for label, problems in (
            ("failed", self.failed_jobs),
            ("lost", self.lost_jobs),
            ("missing bundle", self.missing_bundles),
            ("bad scrape", self.scrape_errors),
            ("submit error", self.submit_errors),
        ):
            for problem in problems[:5]:
                lines.append(f"  {label}: {problem}")
            if len(problems) > 5:
                lines.append(f"  ... {len(problems) - 5} more {label}")
        verdict = "OK" if self.ok() else "FAILED"
        return "\n".join(lines) + f"\nloadgen: {verdict}"


def _request(
    url: str, payload: dict | None = None, timeout: float = 30.0
) -> tuple[int, Any, dict]:
    """One HTTP exchange; 4xx/5xx come back as (code, body), not raises."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read().decode()
            return response.getcode(), body, dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


def _json_body(body: str) -> Any:
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        return {}


def run_load(
    url: str = DEFAULT_URL,
    experiment: str = "fig9",
    params: dict | None = None,
    count: int = DEFAULT_COUNT,
    concurrency: int = DEFAULT_CONCURRENCY,
    timeout: float = DEFAULT_TIMEOUT,
    poll_interval: float = 0.2,
    scrape_interval: float = 0.5,
) -> LoadReport:
    """Drive ``count`` jobs through a live server; see module docstring."""
    url = url.rstrip("/")
    report = LoadReport(count=count)
    deadline = time.monotonic() + timeout
    spec = {"experiment": experiment, "params": params or {}}
    job_ids: list[str] = []
    job_ids_lock = threading.Lock()
    stop_scraping = threading.Event()

    def scrape_loop() -> None:
        # Continuous scrapes *while* workers write: any torn read,
        # duplicate TYPE family, or 500 is a contract violation.
        while not stop_scraping.is_set():
            began = time.monotonic()
            code, body, _ = _request(f"{url}/metrics")
            report.scrape_seconds.append(time.monotonic() - began)
            report.scrapes += 1
            if code != 200:
                report.scrape_errors.append(
                    f"scrape {report.scrapes}: HTTP {code}"
                )
            else:
                try:
                    families = validate_prometheus_text(body)
                except ValueError as exc:
                    report.scrape_errors.append(
                        f"scrape {report.scrapes}: {exc}"
                    )
                else:
                    report.scrape_bytes = len(body.encode())
                    report.scrape_derived_samples = sum(
                        len(family["samples"])
                        for name, family in families.items()
                        if name.startswith("mr_derived_")
                    )
            stop_scraping.wait(scrape_interval)

    def submit_one(index: int) -> None:
        while time.monotonic() < deadline:
            code, body, headers = _request(f"{url}/jobs", payload=spec)
            if code == 202:
                with job_ids_lock:
                    job_ids.append(_json_body(body)["job_id"])
                    report.accepted += 1
                return
            if code == 429:
                report.retries_429 += 1
                try:
                    retry_after = float(
                        headers.get("Retry-After") or 1.0
                    )
                except ValueError:
                    retry_after = 1.0
                time.sleep(min(retry_after, 2.0))
                continue
            report.submit_errors.append(
                f"job {index}: HTTP {code}: "
                f"{_json_body(body).get('error', body[:120])}"
            )
            return
        report.submit_errors.append(f"job {index}: submit deadline")

    started = time.monotonic()
    scraper = threading.Thread(target=scrape_loop, daemon=True)
    scraper.start()
    try:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            for _ in pool.map(submit_one, range(count)):
                pass

        # Poll until every accepted job is terminal (or the deadline).
        pending = set(job_ids)
        states: dict[str, dict] = {}
        while pending and time.monotonic() < deadline:
            code, body, _ = _request(f"{url}/jobs")
            if code == 200:
                for job in _json_body(body).get("jobs", []):
                    if job["job_id"] in pending and job["state"] in (
                        "done",
                        "failed",
                    ):
                        states[job["job_id"]] = job
                        pending.discard(job["job_id"])
            if pending:
                time.sleep(poll_interval)
        report.lost_jobs = sorted(pending)
    finally:
        stop_scraping.set()
        scraper.join()

    done = [job for job in states.values() if job["state"] == "done"]
    done.sort(key=lambda job: job["finished_unix"])
    report.run_seconds = [
        job["finished_unix"] - job["started_unix"] for job in done
    ]
    for job_id, job in sorted(states.items()):
        if job["state"] != "done":
            report.failed_jobs.append(
                f"{job_id}: {job.get('error', 'failed')}"
            )
            continue
        report.done += 1
        run_id = job.get("run_id")
        code, body, _ = _request(f"{url}/runs/{run_id}")
        detail = _json_body(body)
        if code != 200 or detail.get("status") != "completed":
            report.missing_bundles.append(
                f"{job_id}: run {run_id} -> HTTP {code}, "
                f"status {detail.get('status')!r}"
            )
    report.seconds = time.monotonic() - started
    return report
