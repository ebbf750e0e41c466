"""Observability layer: tracing spans, metrics, and trace export.

``repro.obs`` gives the engine eyes: where the paper reports *totals*
(Table 2's disk/CPU breakdown), this package records *where and when*
those bytes and CPU seconds happened.

* :mod:`repro.obs.trace` — a lightweight span tracer threaded through
  the scheduler, both executors, the map/reduce task phases, and the
  ``Shared`` structure.  Zero-cost when disabled: every call site holds
  a :data:`~repro.obs.trace.NULL_TRACER` whose spans are no-ops.
* :mod:`repro.obs.metrics` — a ``MetricsRegistry`` of counters, gauges
  and histograms with a Prometheus-text-format dump.  The engine
  re-derives the job's :class:`~repro.mr.counters.Counters` totals from
  the registry, so the two surfaces can never disagree.
* :mod:`repro.obs.run_store` / :mod:`repro.obs.flightrecorder` — the
  persistent run ledger: every recorded run leaves a content-addressed
  directory under ``.repro/runs`` with its manifest, deterministic
  counter receipt, events and spans.  The bundle is the only persisted
  form of a run.
* :mod:`repro.obs.export` — views of a bundle: its jobs loaded back
  (what the ``repro trace`` report renders) and the Chrome-trace-format
  JSON (loadable in Perfetto / ``chrome://tracing``) built from them.
* :mod:`repro.obs.server` / :mod:`repro.obs.jobservice` — the
  ``repro serve`` HTTP service: ledger reads (``/metrics`` Prometheus
  scrape, ``/runs``, ``/healthz``) plus the job-submission write path
  (``POST /jobs`` into a bounded queue, each job run in a worker
  process under its own flight recorder).
"""

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    activated,
    current_tracer,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    current_flight_recorder,
    set_flight_recorder,
)
from repro.obs.run_store import RunRecord, RunStore, RunStoreError

__all__ = [
    "NULL_TRACER",
    "FlightRecorder",
    "MetricsRegistry",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "activated",
    "current_tracer",
]
