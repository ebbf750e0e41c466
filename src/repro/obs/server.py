"""A live observability HTTP service over the run ledger.

``repro serve`` mounts the flight-recorder ledger (completed *and*
in-flight runs — entries are appended incrementally, so a running
process's jobs are visible mid-run) behind these read endpoints:

* ``/metrics`` — a Prometheus text-format scrape: run counts by
  status, every recorded counter aggregated across runs, and the
  ``mr.derived.*`` gauges per entry (labelled ``run``/``entry``) of
  the runs that are live — those in flight and the last to finish.
* ``/runs`` — JSON list of recorded runs (id, kind, status, entries).
* ``/runs/<id>`` — one run's full detail (manifest, counters, entries);
  git-style unique id prefixes resolve.
* ``/healthz`` — liveness probe.

With a :class:`~repro.obs.jobservice.JobService` attached the server
is also the **write path**:

* ``POST /jobs`` — submit a job spec (``{"experiment": ...,
  "params": {...}}``); 202 with the job id on admission, 429 with a
  ``Retry-After`` header when the bounded queue is full, 400 on a
  malformed spec, 503 while draining.
* ``GET /jobs`` — queue stats plus every submitted job's state.
* ``GET /jobs/<id>`` — one job (``queued``/``running``/``done``/
  ``failed``) with its ledger run id once assigned.

Stdlib only (``ThreadingHTTPServer``) — what a Prometheus scraper
points at, and what the load generator drives.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.obs.jobservice import (
    JobQueueFull,
    JobService,
    JobSpecError,
    ServiceDraining,
)
from repro.obs.metrics import (
    _fmt,
    escape_label_value,
    prometheus_name,
)
from repro.obs.run_store import RunStore, RunStoreError


def render_metrics(
    store: RunStore, service: JobService | None = None
) -> str:
    """The ledger as one Prometheus scrape, the same size at any length.

    Counters aggregate across every run's entries (pipeline entries
    carry only their own ``pipeline.*`` ledger, so stage jobs are not
    double-counted) and come from the store's ledger aggregate, so no
    finished run's entries are walked here.  Derived gauges keep
    per-run, per-entry resolution through labels, for the runs that are
    live only — what a finished run recorded is served by
    ``/runs/<id>`` and ``repro runs show/diff``.
    An attached job service's own families come last.
    """
    ledger = store.aggregate()
    by_status = {"running": 0, "completed": 0, "failed": 0}
    by_status.update(ledger.by_status)
    counters = ledger.counters
    derived: dict[str, list[tuple[str, int, str, float]]] = {}
    for run in ledger.live:
        for entry in run.entries:
            for name, value in entry.get("derived", {}).items():
                derived.setdefault(name, []).append(
                    (
                        run.run_id,
                        int(entry.get("index", 0)),
                        str(entry.get("name", "")),
                        value,
                    )
                )

    lines = [
        "# HELP repro_runs Recorded runs in the ledger, by status",
        "# TYPE repro_runs gauge",
    ]
    for status in sorted(by_status):
        lines.append(
            f'repro_runs{{status="{escape_label_value(status)}"}} '
            f"{by_status[status]}"
        )
    lines.append(
        "# HELP repro_run_entries Recorded entries across all runs"
    )
    lines.append("# TYPE repro_run_entries gauge")
    lines.append(f"repro_run_entries {ledger.entries}")
    lines.append(
        "# HELP repro_store_torn_tail_lines JSONL tail lines skipped "
        "as torn (crash mid-append) by this store's reads"
    )
    lines.append("# TYPE repro_store_torn_tail_lines gauge")
    lines.append(
        f"repro_store_torn_tail_lines {store.torn_tail_lines}"
    )
    lines.append(
        "# HELP repro_store_bundle_reads Run bundles this store has "
        "read from disk (a finished run is read once, then kept)"
    )
    lines.append("# TYPE repro_store_bundle_reads gauge")
    lines.append(f"repro_store_bundle_reads {store.bundle_reads}")

    # Distinct raw counter names can sanitise to one Prometheus name
    # (``a.b`` and ``a_b`` both become ``a_b``); merging *before*
    # emission keeps exactly one ``# TYPE`` line per family — duplicate
    # declarations are a hard parse error for real scrapers.
    prom_counters: dict[str, float] = {}
    for raw in sorted(counters):
        name = prometheus_name(raw)
        prom_counters[name] = prom_counters.get(name, 0.0) + counters[raw]
    for name in sorted(prom_counters):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(prom_counters[name])}")

    # Same for derived gauges: one family per sanitised name, and
    # colliding samples with identical labels fold together so a
    # family never carries duplicate series either.
    prom_derived: dict[str, dict[tuple[str, int, str], float]] = {}
    for raw in sorted(derived):
        family = prom_derived.setdefault(prometheus_name(raw), {})
        for run_id, index, entry_name, value in derived[raw]:
            key = (run_id, index, entry_name)
            family[key] = family.get(key, 0.0) + value
    for name in sorted(prom_derived):
        lines.append(f"# TYPE {name} gauge")
        for (run_id, index, entry_name), value in prom_derived[
            name
        ].items():
            labels = (
                f'run="{escape_label_value(run_id)}",'
                f'index="{index}",'
                f'entry="{escape_label_value(entry_name)}"'
            )
            lines.append(f"{name}{{{labels}}} {_fmt(value)}")
    text = "\n".join(lines) + "\n"
    if service is not None:
        text += service.metrics_text()
    return text


class _LedgerHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: The listen backlog.  ``socketserver``'s 5 is one burst of
    #: loadgen's default nine connections short: the accept loop shares
    #: the GIL with the request threads, the kernel drops the SYNs that
    #: do not fit, and those clients retransmit a full second later.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        store: RunStore,
        service: JobService | None = None,
    ):
        super().__init__(address, _Handler)
        self.store = store
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path.rstrip("/") or "/"
        store: RunStore = self.server.store  # type: ignore[attr-defined]
        try:
            if path == "/healthz":
                self._send(200, "ok\n", "text/plain; charset=utf-8")
            elif path == "/metrics":
                self._send(
                    200,
                    render_metrics(store, self._service()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/runs":
                self._send_json(
                    200, [run.summary() for run in store.load_all()]
                )
            elif path.startswith("/runs/"):
                prefix = path[len("/runs/") :]
                try:
                    record = store.load(store.resolve(prefix))
                except RunStoreError as exc:
                    self._send_json(404, {"error": str(exc)})
                    return
                self._send_json(200, record.detail())
            elif path == "/jobs" or path.startswith("/jobs/"):
                self._get_jobs(path)
            else:
                self._send_json(404, {"error": f"no such path: {path}"})
        except Exception as exc:  # a bad scrape must not kill the server
            self._send_json(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path.rstrip("/") or "/"
        service = self._service()
        try:
            if path != "/jobs":
                self._send_json(404, {"error": f"no such path: {path}"})
                return
            if service is None:
                self._send_json(
                    503,
                    {
                        "error": "job submission is disabled "
                        "(no job service attached)"
                    },
                )
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
                document = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(
                    400, {"error": f"request body is not JSON: {exc}"}
                )
                return
            try:
                record = service.submit(document)
            except JobSpecError as exc:
                self._send_json(400, {"error": str(exc)})
            except JobQueueFull as exc:
                self._send_json(
                    429,
                    {
                        "error": str(exc),
                        "retry_after": exc.retry_after,
                    },
                    headers={"Retry-After": f"{exc.retry_after:g}"},
                )
            except ServiceDraining as exc:
                self._send_json(503, {"error": str(exc)})
            else:
                doc = record.as_dict()
                doc["status_url"] = f"/jobs/{record.job_id}"
                self._send_json(202, doc)
        except Exception as exc:  # a bad submit must not kill the server
            self._send_json(500, {"error": str(exc)})

    def _get_jobs(self, path: str) -> None:
        service = self._service()
        if service is None:
            self._send_json(
                404,
                {
                    "error": "no job service attached "
                    "(start 'repro serve' for the write path)"
                },
            )
            return
        if path == "/jobs":
            self._send_json(200, service.describe())
            return
        job_id = path[len("/jobs/") :]
        record = service.job(job_id)
        if record is None:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        self._send_json(200, record.as_dict())

    def _service(self) -> JobService | None:
        return getattr(self.server, "service", None)

    def _send(
        self,
        code: int,
        body: str,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        code: int,
        document: object,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send(
            code,
            json.dumps(document, indent=1) + "\n",
            "application/json",
            headers,
        )

    def log_message(self, format: str, *args: object) -> None:
        pass  # keep scrapes quiet; errors surface as HTTP 500 bodies


class ObservabilityServer:
    """Lifecycle wrapper: serve inline (CLI) or on a thread (tests)."""

    def __init__(
        self,
        store: RunStore,
        host: str = "127.0.0.1",
        port: int = 0,
        service: JobService | None = None,
    ) -> None:
        self._httpd = _LedgerHTTPServer((host, port), store, service)
        self._thread: threading.Thread | None = None
        self.service = service

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        """Serve on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
