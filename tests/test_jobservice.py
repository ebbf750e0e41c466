"""Tests for the ``repro serve`` job-submission write path.

The service contract pinned here:

* **Counter invariance over HTTP** — a job submitted via ``POST
  /jobs`` produces a ``counters.json`` receipt *byte-identical* to the
  same job run via ``repro run --record``.
* **Bounded admission** — a full queue is an explicit 429 with a
  ``Retry-After`` header, never an unbounded backlog; a draining
  service answers 503.
* **Graceful drain** — every accepted job finishes (and finalises its
  ledger bundle) before the workers park.
* **Failure isolation** — a raising job lands a ``status=failed``
  bundle and the worker survives to run the next job; a worker process
  that dies fails only its own job, and its slot is forked anew.
* **Jobs run side by side** — each in a worker process of its own,
  none of them the service's; ``drain`` leaves no worker behind.
* **Signals** — SIGTERM, or a Ctrl-C to the process group, drains
  ``repro serve`` to exit status 0; a SIGKILLed one leaves no worker.
* **Load holds** — the load generator drives a burst of jobs through
  the bounded queue with zero lost accepted jobs and every ``/metrics``
  scrape valid throughout.
* **Orphans are reconciled** — bundles a killed service left
  ``running`` are finalised ``failed`` when the next one starts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs.jobservice import (
    DONE,
    FAILED_STATE,
    RUNNING,
    JobQueueFull,
    JobService,
    JobSpecError,
    ServiceDraining,
    resolve_spec,
)
from repro.obs.loadgen import LoadReport, run_load
from repro.obs.metrics import validate_prometheus_text
from repro.obs.run_store import RunStore
from repro.obs.server import ObservabilityServer, render_metrics

#: Small enough for sub-second jobs, big enough to exercise the
#: spill/merge paths the experiment drivers hit.
TINY_WORDCOUNT = {
    "num_lines": 60,
    "words_per_line": 6,
    "vocabulary_size": 12,
    "num_reducers": 2,
    "num_splits": 2,
}


#: Jobs run in forked worker processes: whatever an injected job shares
#: with the test thread is a fork-inherited multiprocessing primitive,
#: made before the service starts.
FORK = multiprocessing.get_context("fork")


class SharedTally:
    """A list stand-in the job workers ``append`` to and the test
    ``len``s: only the count crosses the process boundary."""

    def __init__(self) -> None:
        self._count = FORK.Value("i", 0)

    def append(self, _item: object) -> None:
        with self._count.get_lock():
            self._count.value += 1

    def __len__(self) -> int:
        return self._count.value


def _post(url: str, document: dict) -> tuple[int, dict, dict]:
    request = urllib.request.Request(
        url + "/jobs",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.getcode(),
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path) as response:
            return response.getcode(), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_terminal(service: JobService, job_id: str, timeout=30.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(job_id)
        if record is not None and record.state in (DONE, FAILED_STATE):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


# -- spec validation --------------------------------------------------------
class TestResolveSpec:
    REGISTRY = {"wc": lambda num_lines=10, rate=0.5, fast=False: None}

    def test_valid_spec_with_conversions(self) -> None:
        name, params = resolve_spec(
            {
                "experiment": "wc",
                "params": {
                    "num-lines": "25",  # dashed key + string value
                    "rate": 2,  # int widens to the float default
                    "fast": True,
                },
            },
            self.REGISTRY,
        )
        assert name == "wc"
        assert params == {"num_lines": 25, "rate": 2.0, "fast": True}
        assert isinstance(params["rate"], float)

    def test_workload_alias_and_empty_params(self) -> None:
        name, params = resolve_spec(
            {"workload": "wc"}, self.REGISTRY
        )
        assert (name, params) == ("wc", {})

    @pytest.mark.parametrize(
        "document, match",
        [
            ([1, 2], "JSON object"),
            ({}, "known experiments"),
            ({"experiment": "nope"}, "unknown experiment"),
            ({"experiment": "wc", "params": [1]}, "JSON object"),
            (
                {"experiment": "wc", "params": {"bogus": 1}},
                "tunable parameters",
            ),
            (
                {"experiment": "wc", "params": {"num_lines": "many"}},
                "bad value",
            ),
            (
                {"experiment": "wc", "params": {"num_lines": 1.5}},
                "expected int",
            ),
            (
                {"experiment": "wc", "params": {"fast": 1}},
                "expected bool",
            ),
        ],
    )
    def test_malformed_specs_raise(self, document, match) -> None:
        with pytest.raises(JobSpecError, match=match):
            resolve_spec(document, self.REGISTRY)


# -- admission control ------------------------------------------------------
class TestAdmission:
    def test_full_queue_rejects_with_retry_after(self, tmp_path) -> None:
        started = FORK.Event()
        release = FORK.Event()

        def blocker() -> None:
            started.set()
            assert release.wait(30)

        service = JobService(
            RunStore(tmp_path, keep=100),
            experiments={"block": blocker},
            workers=1,
            queue_depth=1,
        ).start()
        try:
            first = service.submit({"experiment": "block"})
            assert started.wait(10)  # worker holds the first job
            second = service.submit({"experiment": "block"})
            with pytest.raises(JobQueueFull) as excinfo:
                service.submit({"experiment": "block"})
            assert excinfo.value.retry_after > 0
        finally:
            release.set()
        assert service.drain(timeout=30)
        assert _wait_terminal(service, first.job_id).state == DONE
        assert _wait_terminal(service, second.job_id).state == DONE

    def test_drain_finishes_accepted_then_rejects(self, tmp_path) -> None:
        ran = SharedTally()
        service = JobService(
            RunStore(tmp_path, keep=100),
            experiments={"quick": lambda: ran.append(1)},
            workers=2,
            queue_depth=8,
        ).start()
        records = [
            service.submit({"experiment": "quick"}) for _ in range(6)
        ]
        assert service.drain(timeout=30)
        assert len(ran) == 6
        assert all(
            service.job(record.job_id).state == DONE
            for record in records
        )
        with pytest.raises(ServiceDraining):
            service.submit({"experiment": "quick"})

    def test_failed_job_keeps_worker_and_lands_failed_bundle(
        self, tmp_path
    ) -> None:
        def boom() -> None:
            raise RuntimeError("kaput")

        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store,
            experiments={"boom": boom, "ok": lambda: None},
            workers=1,
            queue_depth=4,
        ).start()
        bad = service.submit({"experiment": "boom"})
        good = service.submit({"experiment": "ok"})
        bad_record = _wait_terminal(service, bad.job_id)
        good_record = _wait_terminal(service, good.job_id)
        assert bad_record.state == FAILED_STATE
        assert "kaput" in bad_record.error
        assert good_record.state == DONE  # the worker survived
        failed_run = store.load(bad_record.run_id)
        assert failed_run.status_name == "failed"
        assert "kaput" in failed_run.status["error"]
        assert service.drain(timeout=30)


# -- worker processes -------------------------------------------------------
class TestWorkerProcesses:
    def test_two_workers_run_two_jobs_at_once_in_their_own_processes(
        self, tmp_path
    ) -> None:
        pids = FORK.Queue()
        release = FORK.Event()

        def blocker() -> None:
            pids.put(os.getpid())
            assert release.wait(30)

        service = JobService(
            RunStore(tmp_path, keep=100),
            experiments={"block": blocker},
            workers=2,
        ).start()
        try:
            records = [
                service.submit({"experiment": "block"}) for _ in range(2)
            ]
            # Neither job returns before release: both run at once.
            running = {pids.get(timeout=10), pids.get(timeout=10)}
        finally:
            release.set()
        assert service.drain(timeout=30)
        assert len(running) == 2
        assert os.getpid() not in running
        assert all(
            service.job(record.job_id).state == DONE for record in records
        )

    def test_a_dying_worker_fails_only_its_own_job(self, tmp_path) -> None:
        started = FORK.Event()
        release = FORK.Event()
        died = FORK.Value("i", 0)

        def blocker() -> None:
            started.set()
            assert release.wait(30)

        def die() -> None:
            died.value = os.getpid()
            os._exit(3)

        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store,
            experiments={"block": blocker, "die": die, "ok": lambda: None},
            workers=2,
        ).start()
        try:
            sibling = service.submit({"experiment": "block"})
            assert started.wait(10)  # one slot holds the sibling
            dead = _wait_terminal(
                service, service.submit({"experiment": "die"}).job_id
            )
            # The sibling still holds its slot, so the next job runs on
            # the dead worker's slot, forked anew.
            after = _wait_terminal(
                service, service.submit({"experiment": "ok"}).job_id
            )
            assert service.job(sibling.job_id).state == RUNNING
        finally:
            release.set()
        assert service.drain(timeout=30)
        cause = f"worker process {died.value} died"
        assert dead.state == FAILED_STATE and cause in dead.error
        bundle = store.load(dead.run_id)
        assert bundle.status_name == "failed"
        assert cause in bundle.status["error"]
        assert after.state == DONE
        assert service.job(sibling.job_id).state == DONE
        assert store.load(sibling.run_id).status_name == "completed"

    def test_drain_leaves_no_worker_process(self, tmp_path) -> None:
        before = set(multiprocessing.active_children())
        service = JobService(
            RunStore(tmp_path, keep=100),
            experiments={"ok": lambda: None},
            workers=2,
        ).start()
        serving = set(multiprocessing.active_children()) - before
        for _ in range(4):
            service.submit({"experiment": "ok"})
        assert service.drain(timeout=30)
        assert len(serving) == 2
        assert set(multiprocessing.active_children()) <= before


# -- start-up reconciliation ------------------------------------------------
class TestOrphanReconciliation:
    def test_dead_services_running_bundle_is_failed_at_start(
        self, tmp_path
    ) -> None:
        """The ``kill -9`` leg: a ``running`` bundle is never pruned and
        never kept by the index, so one nobody will finish has to be
        closed by whoever serves the ledger next."""
        gone = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(gone.stdout)  # waited for, so the pid is free
        store = RunStore(tmp_path, keep=100)

        def running_bundle(pid: int, argv: list[str]) -> str:
            run = store.create(
                {"kind": "experiment", "name": "wc", "argv": argv,
                 "pid": pid}
            )
            store.append_row(
                run.run_id,
                "entries.jsonl",
                {"index": 0, "kind": "job", "name": "wc",
                 "counters": {"map.input.records": 4.0}, "derived": {}},
            )
            return run.run_id

        orphan = running_bundle(dead_pid, ["jobs", "wc"])
        ours = running_bundle(os.getpid(), ["jobs", "wc"])
        cli_run = running_bundle(dead_pid, ["run", "wc"])
        service = JobService(
            store, experiments={"ok": lambda: None}, workers=1
        ).start()
        try:
            record = store.load(orphan)
            assert record.status_name == "failed"
            assert record.status["error"] == (
                f"orphaned: recorder process {dead_pid} is gone"
            )
            assert record.status["entries"] == 1
            assert record.counters is None  # it never finalised
            # A live service's bundle and another recorder's are not
            # this service's to close.
            assert store.load(ours).status_name == "running"
            assert store.load(cli_run).status_name == "running"
            families = validate_prometheus_text(render_metrics(store))
            assert {
                labels["status"]: value
                for _, labels, value in families["repro_runs"]["samples"]
            } == {"running": 2.0, "completed": 0.0, "failed": 1.0}
            assert families["map_input_records"]["samples"][0][2] == 12.0
        finally:
            assert service.drain(timeout=30)

    def test_same_pid_foreign_boot_is_a_predecessors_bundle(
        self, tmp_path
    ) -> None:
        """A containerised server is pid 1 in every incarnation, so a
        live pid proves nothing about *which* process wrote the bundle;
        the manifest's ``boot`` id does."""
        from repro.obs.flightrecorder import BOOT_ID

        store = RunStore(tmp_path, keep=100)

        def running_bundle(boot: str) -> str:
            return store.create(
                {"kind": "experiment", "name": "wc",
                 "argv": ["jobs", "wc"], "pid": os.getpid(), "boot": boot}
            ).run_id

        predecessors = running_bundle("0123456789abcdef")
        ours = running_bundle(BOOT_ID)
        service = JobService(
            store, experiments={"ok": lambda: None}, workers=1
        ).start()
        try:
            record = store.load(predecessors)
            assert record.status_name == "failed"
            assert record.status["error"] == (
                f"orphaned: recorder process {os.getpid()} was boot "
                f"0123456789abcdef, this one is boot {BOOT_ID}"
            )
            assert store.load(ours).status_name == "running"
            families = validate_prometheus_text(render_metrics(store))
            assert {
                labels["status"]: value
                for _, labels, value in families["repro_runs"]["samples"]
            } == {"running": 1.0, "completed": 0.0, "failed": 1.0}
        finally:
            assert service.drain(timeout=30)


# -- the service's own /metrics families ------------------------------------
class TestServiceMetrics:
    @staticmethod
    def _scrape(store: RunStore, service: JobService) -> dict:
        families = validate_prometheus_text(render_metrics(store, service))
        observed = {
            value
            for family in (
                "repro_job_queue_wait_seconds", "repro_job_run_seconds"
            )
            for name, _, value in families[family]["samples"]
            if name.endswith("_count")
        }
        return {
            "states": {
                labels["state"]: value
                for _, labels, value in families["repro_jobs"]["samples"]
            },
            "queue_depth": families["repro_job_queue_depth"]["samples"][0][2],
            "observed": observed,
        }

    def test_states_follow_each_job_and_finished_jobs_are_observed_once(
        self, tmp_path
    ) -> None:
        started = FORK.Event()
        release = FORK.Event()

        def blocker() -> None:
            started.set()
            assert release.wait(30)

        def boom() -> None:
            raise RuntimeError("kaput")

        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store,
            experiments={"block": blocker, "boom": boom, "ok": lambda: None},
            workers=1,
            queue_depth=4,
        )
        assert self._scrape(store, service) == {
            "states": {"queued": 0, "running": 0, "done": 0, "failed": 0},
            "queue_depth": 0,
            "observed": {0},
        }
        service.start()
        try:
            service.submit({"experiment": "block"})
            assert started.wait(10)  # the one worker holds it
            service.submit({"experiment": "boom"})
            service.submit({"experiment": "ok"})
            # The scrape validates while a job runs and two wait.
            assert self._scrape(store, service) == {
                "states": {"queued": 2, "running": 1, "done": 0, "failed": 0},
                "queue_depth": 2,
                "observed": {0},
            }
        finally:
            release.set()
        assert service.drain(timeout=30)
        after = self._scrape(store, service)
        assert after == {
            "states": {"queued": 0, "running": 0, "done": 2, "failed": 1},
            "queue_depth": 0,
            # _count (== the +Inf bucket, which the validator pins) of
            # both histograms: one observation per finished job.
            "observed": {3},
        }
        assert service.describe()["states"] == after["states"]

    def test_job_families_do_not_grow_with_jobs_served(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store, experiments={"ok": lambda: None}, workers=2
        ).start()
        before = service.metrics_text().count("\n")
        for _ in range(12):
            service.submit({"experiment": "ok"})
        assert service.drain(timeout=30)
        assert service.metrics_text().count("\n") == before


# -- the HTTP surface -------------------------------------------------------
@pytest.fixture
def live(tmp_path):
    store = RunStore(tmp_path / "ledger", keep=500)
    service = JobService(store, workers=2, queue_depth=8).start()
    server = ObservabilityServer(store, service=service).start()
    yield store, service, server
    service.drain(timeout=60)
    server.stop()


class TestHTTPSurface:
    def test_receipt_identical_to_cli_recorded_run(
        self, live, tmp_path, capsys
    ) -> None:
        store, service, server = live
        direct = tmp_path / "direct"
        argv = ["run", "wordcount", "--runs-dir", str(direct)]
        for key, value in TINY_WORDCOUNT.items():
            argv.append(f"--{key.replace('_', '-')}={value}")
        assert main(argv) == 0
        capsys.readouterr()

        code, doc, _ = _post(
            server.url,
            {"experiment": "wordcount", "params": TINY_WORDCOUNT},
        )
        assert code == 202
        assert doc["state"] == "queued"
        record = _wait_terminal(service, doc["job_id"])
        assert record.state == DONE

        (direct_receipt,) = sorted(direct.glob("*/counters.json"))
        served_receipt = (
            store.root / record.run_id / "counters.json"
        )
        assert (
            served_receipt.read_bytes() == direct_receipt.read_bytes()
        )

    def test_submitted_job_served_by_runs_and_jobs_endpoints(
        self, live
    ) -> None:
        _, service, server = live
        code, doc, _ = _post(
            server.url,
            {"experiment": "wordcount", "params": TINY_WORDCOUNT},
        )
        assert code == 202
        record = _wait_terminal(service, doc["job_id"])

        code, job = _get(server.url, f"/jobs/{doc['job_id']}")
        assert code == 200
        assert job["state"] == "done"
        assert job["run_id"] == record.run_id

        code, listing = _get(server.url, "/jobs")
        assert code == 200
        assert listing["states"]["done"] >= 1
        assert listing["queue_depth"] == 8

        code, run = _get(server.url, f"/runs/{record.run_id}")
        assert code == 200
        assert run["status"] == "completed"
        assert run["counters"]

    def test_http_error_mapping(self, live) -> None:
        _, _, server = live
        code, doc, _ = _post(server.url, {"experiment": "nope"})
        assert code == 400 and "unknown experiment" in doc["error"]

        request = urllib.request.Request(
            server.url + "/jobs", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

        code, doc = _get(server.url, "/jobs/job-999999")
        assert code == 404

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                urllib.request.Request(
                    server.url + "/runs", data=b"{}"
                )
            )
        assert excinfo.value.code == 404

    def test_http_429_carries_retry_after_header(self, tmp_path) -> None:
        started = FORK.Event()
        release = FORK.Event()

        def blocker() -> None:
            started.set()
            assert release.wait(30)

        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store,
            experiments={"block": blocker},
            workers=1,
            queue_depth=1,
        ).start()
        server = ObservabilityServer(store, service=service).start()
        try:
            assert _post(server.url, {"experiment": "block"})[0] == 202
            assert started.wait(10)
            assert _post(server.url, {"experiment": "block"})[0] == 202
            code, doc, headers = _post(
                server.url, {"experiment": "block"}
            )
            assert code == 429
            assert float(headers["Retry-After"]) > 0
            assert "queue full" in doc["error"]
        finally:
            release.set()
            service.drain(timeout=30)
            server.stop()

    def test_running_job_names_its_run_id(self, tmp_path) -> None:
        started = FORK.Event()
        release = FORK.Event()

        def blocker() -> None:
            started.set()
            assert release.wait(30)

        store = RunStore(tmp_path, keep=100)
        service = JobService(
            store, experiments={"block": blocker}, workers=1
        ).start()
        server = ObservabilityServer(store, service=service).start()
        try:
            code, doc, _ = _post(server.url, {"experiment": "block"})
            assert code == 202
            assert started.wait(10)
            code, job = _get(server.url, f"/jobs/{doc['job_id']}")
            assert code == 200 and job["state"] == "running"
            run = store.load(job["run_id"])
            assert run.status_name == "running"
            assert run.manifest["pid"] == os.getpid()  # the service's
        finally:
            release.set()
            service.drain(timeout=30)
            server.stop()
        assert store.load(job["run_id"]).status_name == "completed"

    def test_server_without_service_disables_write_path(
        self, tmp_path
    ) -> None:
        server = ObservabilityServer(RunStore(tmp_path)).start()
        try:
            code, doc, _ = _post(server.url, {"experiment": "fig9"})
            assert code == 503
            code, doc = _get(server.url, "/jobs")
            assert code == 404
        finally:
            server.stop()


# -- load -------------------------------------------------------------------
class TestLoadGenerator:
    def test_burst_loses_nothing_and_scrapes_stay_valid(
        self, live
    ) -> None:
        _, _, server = live
        report = run_load(
            url=server.url,
            experiment="wordcount",
            params=TINY_WORDCOUNT,
            count=12,
            concurrency=4,
            timeout=120.0,
            scrape_interval=0.05,
        )
        assert report.ok(), report.summary()
        assert report.done == 12
        assert report.scrapes > 0

    def test_report_carries_server_side_run_latency(self, tmp_path) -> None:
        import time

        store = RunStore(tmp_path, keep=500)
        service = JobService(
            store,
            experiments={"nap": lambda: time.sleep(0.02)},
            workers=1,
            queue_depth=4,
        ).start()
        server = ObservabilityServer(store, service=service).start()
        try:
            report = run_load(
                url=server.url,
                experiment="nap",
                count=8,
                concurrency=2,
                timeout=120.0,
                scrape_interval=0.05,
            )
        finally:
            service.drain(timeout=60)
            server.stop()
        assert report.ok(), report.summary()
        # One sample per done job, from the server's own timestamps:
        # no run can be shorter than the job it wraps.
        assert len(report.run_seconds) == 8
        assert min(report.run_seconds) >= 0.02
        p50_ms, p95_ms, growth = report.run_latency()
        assert 20.0 <= p50_ms <= p95_ms
        assert growth > 0
        assert "run latency: p50 " in report.summary()

    def test_run_latency_growth_is_last_quarter_over_first(self) -> None:
        report = LoadReport(run_seconds=[0.1] * 4 + [0.3] * 4)
        assert report.run_latency() == pytest.approx((200.0, 300.0, 3.0))
        assert "last quarter / first quarter 3.00x" in report.summary()
        assert LoadReport().run_latency() is None
        assert "run latency" not in LoadReport().summary()

    def test_report_carries_scrape_cost_and_size(self, live) -> None:
        store, _, server = live
        report = run_load(
            url=server.url,
            experiment="wordcount",
            params=TINY_WORDCOUNT,
            count=12,
            concurrency=2,
            timeout=120.0,
            scrape_interval=0.05,
        )
        assert report.ok(), report.summary()
        assert len(report.scrape_seconds) == report.scrapes
        # The last scrape carried the per-entry series of the live runs
        # only: the newest finished one, plus at most one per worker.
        per_run = sum(
            len(entry["derived"]) for entry in store.load_all()[0].entries
        )
        assert per_run > 0
        assert per_run <= report.scrape_derived_samples <= 3 * per_run
        assert 0 < report.scrape_bytes < 16 * 1024
        p50_ms = statistics.median(report.scrape_seconds) * 1e3
        assert (
            f"invalid, p50 {p50_ms:.1f} ms, last {report.scrape_bytes} bytes "
            f"with {report.scrape_derived_samples} mr_derived_* samples"
        ) in report.summary()
        assert "p50" not in LoadReport(scrapes=0).summary().splitlines()[2]

    def test_overflowing_burst_sheds_load_via_429(self, tmp_path) -> None:
        import time

        store = RunStore(tmp_path, keep=500)
        # One slow worker + depth 2: an 8-job burst from 8 threads must
        # trip admission control, and every 429 must be retried through
        # to completion — shed, never lost.
        service = JobService(
            store,
            experiments={"nap": lambda: time.sleep(0.05)},
            workers=1,
            queue_depth=2,
        ).start()
        server = ObservabilityServer(store, service=service).start()
        try:
            report = run_load(
                url=server.url,
                experiment="nap",
                count=8,
                concurrency=8,
                timeout=120.0,
                scrape_interval=0.05,
            )
        finally:
            service.drain(timeout=60)
            server.stop()
        assert report.ok(), report.summary()
        assert report.retries_429 > 0


# -- `repro serve` under signals ---------------------------------------------
def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    """Running, sleeping or stopped: gone and zombie both count as dead."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def _children(pid: int) -> set[int]:
    """The live children of ``pid``, whichever of its threads forked them."""
    return {
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and (_proc_stat(int(entry)) or ["", ""])[1] == str(pid)
        and _alive(int(entry))
    }


class _Served:
    """``repro serve --workers 2`` leading a process group of its own."""

    def __init__(self, ledger: Path) -> None:
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.ledger = ledger
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--runs-dir", str(ledger), "--workers", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
            # A shell that started the suite in the background handed
            # it an ignored SIGINT; Ctrl-C must mean Ctrl-C here.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        banner = self.proc.stderr.readline()
        self.url = "http://" + banner.split(" on http://", 1)[1].split()[0]
        #: Forked by start(), before the banner.
        self.workers = _children(self.proc.pid)

    def submit_running(self) -> None:
        """Submit a job that runs for about two seconds; return once
        it is running."""
        code, doc, _ = _post(
            self.url,
            {
                "experiment": "wordcount",
                "params": {**TINY_WORDCOUNT, "num_lines": 30000},
            },
        )
        assert code == 202
        deadline = time.monotonic() + 30
        while _get(self.url, f"/jobs/{doc['job_id']}")[1]["state"] != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def stopped(self) -> tuple[int, str]:
        """Wait for the server to exit; its status and its stderr."""
        try:
            _, err = self.proc.communicate(timeout=120)
        finally:
            # Not communicate(): a worker that outlived the server
            # would hold its stderr open for good.
            self.proc.kill()
            self.proc.wait()
            self.proc.stderr.close()
        return self.proc.returncode, err

    def bundle_status(self) -> str:
        (record,) = RunStore(self.ledger).load_all()
        return record.status_name


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
class TestServeSignals:
    def test_sigkill_leaves_no_worker_behind(self, tmp_path) -> None:
        served = _Served(tmp_path / "ledger")
        workers = served.workers
        served.submit_running()
        served.proc.kill()
        served.proc.wait()
        served.proc.stderr.close()
        deadline = time.monotonic() + 2.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(workers) == 2
        assert not any(map(_alive, workers))

    def test_sigterm_drains_to_exit_zero(self, tmp_path) -> None:
        served = _Served(tmp_path / "ledger")
        workers = served.workers
        served.submit_running()
        served.proc.terminate()
        code, err = served.stopped()
        assert code == 0, err
        assert served.bundle_status() == "completed"
        assert len(workers) == 2
        assert not any(map(_alive, workers))

    def test_sigint_to_the_process_group_drains(self, tmp_path) -> None:
        served = _Served(tmp_path / "ledger")
        served.submit_running()
        os.killpg(served.proc.pid, signal.SIGINT)
        code, err = served.stopped()
        assert code == 0, err
        assert served.bundle_status() == "completed"
