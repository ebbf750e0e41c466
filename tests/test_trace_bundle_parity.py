"""Same bundle, same views: a recorded run reloads into the very trace
the in-memory results give.

The flight-recorder bundle is the only persisted form of a run, so the
Chrome trace built from ``load_jsonl(record)`` must equal the one built
from the ``JobResult`` / ``PipelineResult`` objects the recorder was
handed — for clean runs, for every way an attempt can end, and for a
run that died with a terminal task failure.

(Before the in-memory trace collector was deleted this file installed
both hooks and compared the collector's document with the bundle's;
all four cases were equal at that commit.  See CHANGES.md, PR 21.)
"""

from __future__ import annotations

import json

from repro.experiments import run_fig9, run_pagerank_experiment
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.events import EventLog
from repro.mr.executor import ParallelExecutor
from repro.mr.scheduler import ScriptedFaults, TaskFailedError
from repro.mr.split import split_records
from repro.obs.export import JobTrace, chrome_trace, load_jsonl
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    set_flight_recorder,
)
from repro.obs.run_store import COMPLETED, FAILED, RunStore
from repro.workloads.wordcount import wordcount_job


class _Witness(FlightRecorder):
    """A recorder that also keeps what it was handed, in memory."""

    def __init__(self, store: RunStore) -> None:
        super().__init__(store, kind="test", name="parity")
        self.seen: list[JobTrace] = []

    def record_job(self, job, result, executor=None) -> None:
        self.seen.append(
            JobTrace(result.job_name, result.spans, result.events)
        )
        super().record_job(job, result, executor)

    def record_pipeline(self, name, result) -> None:
        self.seen.append(
            JobTrace(f"pipeline:{name}", result.spans, EventLog())
        )
        super().record_pipeline(name, result)


def _recorded(tmp_path, body):
    """Run ``body`` under a witness recorder; ``(witness, reloaded
    jobs, the exception body raised or None)``."""
    store = RunStore(tmp_path)
    witness = _Witness(store)
    set_flight_recorder(witness)
    error = None
    try:
        body()
    except Exception as exc:
        witness.record_error(exc)
        error = exc
    finally:
        clear_flight_recorder()
        witness.finalize(FAILED if error else COMPLETED)
    return witness, load_jsonl(store.load(witness.run_id)), error


def _document(jobs) -> dict:
    return json.loads(json.dumps(chrome_trace(jobs)))


def _wordcount(**knobs):
    lines = [
        (i, f"the quick brown fox {i % 7} jumps over the lazy dog {i % 3}")
        for i in range(60)
    ]
    job = wordcount_job(num_reducers=3, cost_meter=FixedCostMeter(), **knobs)
    return job, split_records(lines, num_splits=4)


def test_fig9_tiny(tmp_path) -> None:
    witness, reloaded, _ = _recorded(
        tmp_path, lambda: run_fig9(num_queries=200, num_splits=2)
    )
    assert len(witness.seen) == 12
    assert _document(reloaded) == _document(witness.seen)
    for mine, theirs in zip(reloaded, witness.seen):
        assert list(mine.events) == list(theirs.events)
        assert mine.spans == theirs.spans


def test_pagerank_pipeline_tiny(tmp_path) -> None:
    witness, reloaded, _ = _recorded(
        tmp_path,
        lambda: run_pagerank_experiment(num_nodes=200, iterations=2),
    )
    assert witness.seen[-1].job_name == "pipeline:pagerank"
    assert witness.seen[-1].spans
    assert _document(reloaded) == _document(witness.seen)


def test_every_way_an_attempt_ends(tmp_path) -> None:
    """A FAIL, a TIMEOUT (a real pool: serially nothing can time out)
    and a speculative KILL, in one recorded run."""

    def body() -> None:
        job, splits = _wordcount(
            task_timeout_seconds=0.75, max_task_attempts=2
        )
        with ParallelExecutor(max_workers=2) as pool:
            LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(
                    faults={"map0": ["fail"], "map1": [("hang", 5.0)]}
                ),
            ).run(job, splits)
        job, splits = _wordcount(
            speculative_execution=True,
            speculative_quantile=0.5,
            speculative_slack=2.0,
            max_task_attempts=2,
        )
        with ParallelExecutor(max_workers=2) as pool:
            LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(faults={"map3": [("slow", 1.0)]}),
            ).run(job, splits)

    witness, reloaded, error = _recorded(tmp_path, body)
    assert error is None
    document = _document(reloaded)
    assert document == _document(witness.seen)
    names = {event["name"] for event in document["traceEvents"]}
    assert "map0 attempt 1 [FAILED]" in names
    assert "map1 attempt 1 [TIMEOUT]" in names
    assert any(name.endswith("[KILLED]") for name in names)


def test_terminal_failure_rides_in_the_bundle(tmp_path) -> None:
    def body() -> None:
        job, splits = _wordcount(max_task_attempts=2)
        LocalJobRunner(fault_policy=ScriptedFaults({"map1": 99})).run(
            job, splits
        )

    witness, reloaded, error = _recorded(tmp_path, body)
    assert isinstance(error, TaskFailedError)
    # The job never finished, so the recorder was handed no result; the
    # post-mortem event log of the exception is the bundle's one job.
    assert witness.seen == []
    [post_mortem] = reloaded
    assert post_mortem.job_name == "terminal-failure"
    assert list(post_mortem.events) == list(error.events)
    assert len(post_mortem.events.failures()) == 2
