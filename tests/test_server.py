"""Tests for the ``repro serve`` observability HTTP service.

Every assertion goes through a real ``ThreadingHTTPServer`` on an
ephemeral port — the same stack ``repro serve`` mounts — and the
``/metrics`` body must survive the strict exposition-format validator,
so a real Prometheus scraper would accept the scrape.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    set_flight_recorder,
)
from repro.obs.metrics import validate_prometheus_text
from repro.obs.run_store import COMPLETED, RunStore
from repro.obs.server import ObservabilityServer, render_metrics
from repro.workloads.wordcount import wordcount_job


def _record_wordcount(store: RunStore) -> FlightRecorder:
    recorder = FlightRecorder(store, kind="experiment", name="wc")
    set_flight_recorder(recorder)
    try:
        lines = [(i, f"alpha beta {i % 3}") for i in range(30)]
        job = wordcount_job(num_reducers=2, cost_meter=FixedCostMeter())
        LocalJobRunner().run(job, split_records(lines, num_splits=2))
    finally:
        clear_flight_recorder()
    recorder.finalize(COMPLETED)
    return recorder


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path)


@pytest.fixture
def server(store):
    instance = ObservabilityServer(store).start()
    yield instance
    instance.stop()


def _get(server: ObservabilityServer, path: str) -> tuple[int, str]:
    with urllib.request.urlopen(server.url + path) as response:
        return response.getcode(), response.read().decode()


class TestEndpoints:
    def test_healthz(self, server) -> None:
        code, body = _get(server, "/healthz")
        assert (code, body) == (200, "ok\n")

    def test_metrics_empty_ledger_still_valid(self, server) -> None:
        code, body = _get(server, "/metrics")
        assert code == 200
        families = validate_prometheus_text(body)
        assert "repro_runs" in families
        samples = {
            labels["status"]: value
            for _, labels, value in families["repro_runs"]["samples"]
        }
        assert samples == {
            "running": 0.0,
            "completed": 0.0,
            "failed": 0.0,
        }

    def test_metrics_scrape_parses(self, store, server) -> None:
        recorder = _record_wordcount(store)
        code, body = _get(server, "/metrics")
        assert code == 200
        families = validate_prometheus_text(body)
        # Aggregated job counters surface as counter families.
        assert "map_input_records" in families
        assert families["map_input_records"]["samples"][0][2] == 30.0
        # Derived gauges keep run/entry resolution through labels.
        derived = families["mr_derived_replication_rate"]["samples"]
        assert len(derived) == 1
        _, labels, _ = derived[0]
        assert labels["run"] == recorder.run_id
        assert labels["entry"] == "wordcount"
        assert labels["index"] == "0"

    def test_metrics_includes_inflight_run(self, store, server) -> None:
        recorder = FlightRecorder(store, kind="experiment", name="live")
        set_flight_recorder(recorder)
        try:
            lines = [(i, f"a b {i}") for i in range(10)]
            job = wordcount_job(
                num_reducers=2, cost_meter=FixedCostMeter()
            )
            LocalJobRunner().run(job, split_records(lines, num_splits=2))
            # No finalize: the run is still in flight, yet its recorded
            # jobs are already visible to a scrape.
            _, body = _get(server, "/metrics")
        finally:
            clear_flight_recorder()
        families = validate_prometheus_text(body)
        statuses = {
            labels["status"]: value
            for _, labels, value in families["repro_runs"]["samples"]
        }
        assert statuses["running"] == 1.0
        assert "map_input_records" in families

    def test_runs_listing(self, store, server) -> None:
        recorder = _record_wordcount(store)
        code, body = _get(server, "/runs")
        assert code == 200
        runs = json.loads(body)
        assert len(runs) == 1
        assert runs[0]["run_id"] == recorder.run_id
        assert runs[0]["status"] == "completed"
        assert runs[0]["entries"] == 1

    def test_run_detail_by_prefix(self, store, server) -> None:
        recorder = _record_wordcount(store)
        code, body = _get(server, f"/runs/{recorder.run_id[:14]}")
        assert code == 200
        detail = json.loads(body)
        assert detail["manifest"]["name"] == "wc"
        assert detail["counters"]["map.input.records"] == 30
        assert detail["entry_list"][0]["name"] == "wordcount"

    def test_unknown_run_is_404(self, server) -> None:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/runs/zzz")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read().decode())

    def test_unknown_path_is_404(self, server) -> None:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_content_type_is_prometheus(self, server) -> None:
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )


class TestConnectionBursts:
    def test_a_burst_waits_in_the_listen_queue_not_for_a_retransmit(
        self, store
    ) -> None:
        """Sixteen connections arrive before the accept loop gets a
        turn (it shares the GIL with the job workers).  The listen
        queue must hold them: with ``socketserver``'s backlog of 5 the
        kernel drops the SYNs that do not fit and those clients
        retransmit a full second later."""
        instance = ObservabilityServer(store)  # listening, not accepting
        clients = [socket.socket() for _ in range(16)]
        try:
            for client in clients:
                client.setblocking(False)
                client.connect_ex((instance.host, instance.port))
            began = time.perf_counter()
            instance.start()
            for client in clients:
                client.settimeout(30)
                client.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                body = b""
                while chunk := client.recv(4096):
                    body += chunk
                assert body.endswith(b"\r\n\r\nok\n")
                assert time.perf_counter() - began < 0.9
        finally:
            for client in clients:
                client.close()
            instance.stop()


class TestRenderMetrics:
    def test_label_escaping(self, store) -> None:
        recorder = FlightRecorder(store, kind="experiment", name="q")
        store.append_row(
            recorder.run_id,
            "entries.jsonl",
            {
                "index": 0,
                "kind": "job",
                "name": 'weird "name"\nwith\\escapes',
                "counters": {},
                "derived": {"mr.derived.replication.rate": 1.5},
            },
        )
        recorder.finalize(COMPLETED)
        body = render_metrics(store)
        families = validate_prometheus_text(body)
        _, labels, value = families["mr_derived_replication_rate"][
            "samples"
        ][0]
        assert labels["entry"] == 'weird "name"\nwith\\escapes'
        assert value == 1.5

    def test_counters_aggregate_across_runs(self, store) -> None:
        _record_wordcount(store)
        _record_wordcount(store)
        families = validate_prometheus_text(render_metrics(store))
        assert families["map_input_records"]["samples"][0][2] == 60.0
        statuses = {
            labels["status"]: value
            for _, labels, value in families["repro_runs"]["samples"]
        }
        assert statuses["completed"] == 2.0

    def test_colliding_counter_names_emit_one_family(self, store) -> None:
        # ``a.b`` and ``a_b`` both sanitise to ``a_b``; a naive
        # per-raw-name loop would emit ``# TYPE a_b counter`` twice,
        # which real scrapers reject as a parse error.
        recorder = FlightRecorder(store, kind="experiment", name="c")
        store.append_row(
            recorder.run_id,
            "entries.jsonl",
            {
                "index": 0,
                "kind": "job",
                "name": "collide",
                "counters": {"a.b": 1.0, "a_b": 2.0},
                "derived": {},
            },
        )
        recorder.finalize(COMPLETED)
        body = render_metrics(store)
        assert body.count("# TYPE a_b counter") == 1
        families = validate_prometheus_text(body)
        assert families["a_b"]["samples"][0][2] == 3.0

    def test_colliding_derived_names_emit_one_family(self, store) -> None:
        recorder = FlightRecorder(store, kind="experiment", name="d")
        store.append_row(
            recorder.run_id,
            "entries.jsonl",
            {
                "index": 0,
                "kind": "job",
                "name": "collide",
                "counters": {},
                "derived": {
                    "mr.derived.x.y": 1.0,
                    "mr.derived.x_y": 2.0,
                },
            },
        )
        recorder.finalize(COMPLETED)
        body = render_metrics(store)
        assert body.count("# TYPE mr_derived_x_y gauge") == 1
        families = validate_prometheus_text(body)
        # Identical (run, index, entry) labels fold into one sample —
        # a family must never carry duplicate series either.
        samples = families["mr_derived_x_y"]["samples"]
        assert len(samples) == 1
        assert samples[0][2] == 3.0
