"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.mr.api import Context
from repro.mr.counters import Counters
from repro.mr.cost import FixedCostMeter
from repro.mr.executor import set_default_jobs
from repro.mr.storage import LocalStore
from repro.obs.trace import NULL_TRACER, current_tracer


@pytest.fixture(autouse=True)
def _no_tracer_left_active():
    """A tracer still active after a test would put every later
    in-process job of the session on the traced path."""
    yield
    assert current_tracer() is NULL_TRACER


@pytest.fixture(autouse=True)
def _no_default_jobs_left():
    """``repro run -j N`` in process sets the default worker count;
    left set, it would put every later test's jobs on an N-worker pool
    (or take them off the ``REPRO_JOBS`` one)."""
    yield
    set_default_jobs(None)


@pytest.fixture
def counters() -> Counters:
    return Counters()


@pytest.fixture
def store(counters: Counters) -> LocalStore:
    return LocalStore(counters)


@pytest.fixture
def sink_capture():
    """A (records, sink) pair for collecting context emissions."""
    records: list[tuple[object, object]] = []

    def sink(key, value):
        records.append((key, value))

    return records, sink


@pytest.fixture
def context(counters, store, sink_capture) -> Context:
    records, sink = sink_capture
    return Context(
        counters=counters,
        sink=sink,
        num_partitions=4,
        task_id="test-task",
        partition=0,
        store=store,
    )


@pytest.fixture
def fixed_meter() -> FixedCostMeter:
    return FixedCostMeter(cost_per_call=1e-6)
