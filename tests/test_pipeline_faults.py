"""Property-based fault-schedule fuzz for the pipeline layer.

A seeded generator draws a randomized :class:`ScriptedFaults` schedule
(task failures, worker crashes, stragglers — plus hangs on the process
pool) and injects it into every job of a multi-stage pipeline (PageRank:
transform → mapreduce → transform per iteration).  The retried run must
be indistinguishable from a fault-free serial run: bit-identical final
records, per-iteration job outputs, full counter dicts (jobs use a
:class:`FixedCostMeter`, so every ``cpu.*`` charge is analytic) and
dataset ledgers (content keys, sizes, dedup flags).

Every assertion message carries the seed and the drawn schedule, so a
failure is replayable by pinning ``SEEDS`` to the printed value.
"""

from __future__ import annotations

import random

import pytest

from repro.datagen.webgraph import generate_web_graph
from repro.mr import events as E
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor
from repro.mr.scheduler import ScriptedFaults
from repro.workloads.pagerank import pagerank_job, run_pagerank_pipeline

NUM_NODES = 18
ITERATIONS = 3
NUM_REDUCERS = 2
NUM_SPLITS = 2
#: Deterministic fault kinds that the serial executor can simulate.
#: (Hangs need an executor that can abandon an attempt; see the pool
#: test below.)
SERIAL_KINDS = ("fail", "crash", ("slow", 0.02))
SEEDS = [101, 202, 303, 404, 505]

TASK_IDS = [f"map{index}" for index in range(NUM_SPLITS)] + [
    f"reduce{index}" for index in range(NUM_REDUCERS)
]


def _job(**knobs):
    return pagerank_job(
        num_nodes=NUM_NODES,
        num_reducers=NUM_REDUCERS,
        with_combiner=True,
        cost_meter=FixedCostMeter(),
        **knobs,
    )


def _graph():
    return generate_web_graph(NUM_NODES, avg_out_degree=3.0, seed=23)


def draw_fault_schedule(seed: int, kinds=SERIAL_KINDS) -> dict:
    """Randomized per-task fault scripts, reproducible from ``seed``.

    Each drawn task gets 1-2 leading faulty attempts followed by an
    explicitly clean one, so ``max_task_attempts=4`` always leaves room
    to finish.  Attempt numbering restarts per job, so the schedule
    re-fires in every stage of the pipeline.
    """
    rng = random.Random(seed)
    faults: dict[str, list] = {}
    for task_id in TASK_IDS:
        if rng.random() < 0.6:
            script: list = [
                kinds[rng.randrange(len(kinds))]
                for _ in range(rng.randint(1, 2))
            ]
            script.append(None)
            faults[task_id] = script
    if not faults:  # always inject something
        faults[TASK_IDS[rng.randrange(len(TASK_IDS))]] = ["fail", None]
    return faults


@pytest.fixture(scope="module")
def baseline():
    """The fault-free serial reference every fuzzed run must match."""
    records, result = run_pagerank_pipeline(
        _job(), _graph(), iterations=ITERATIONS, num_splits=NUM_SPLITS
    )
    return records, result


def _assert_matches_baseline(records, result, baseline, context: str):
    base_records, base_result = baseline
    assert records == base_records, f"final records drifted ({context})"
    base_jobs = base_result.job_results()
    jobs = result.job_results()
    assert len(jobs) == len(base_jobs), f"job count drifted ({context})"
    for index, (base_job, job) in enumerate(zip(base_jobs, jobs)):
        assert (
            job.output == base_job.output
        ), f"iteration {index} output drifted ({context})"
        assert job.counters.as_dict() == base_job.counters.as_dict(), (
            f"iteration {index} counters drifted ({context}): "
            + str(
                {
                    name: (
                        base_job.counters.as_dict().get(name),
                        job.counters.as_dict().get(name),
                    )
                    for name in set(base_job.counters.as_dict())
                    | set(job.counters.as_dict())
                    if base_job.counters.as_dict().get(name)
                    != job.counters.as_dict().get(name)
                }
            )
        )
    assert (
        result.counters.as_dict() == base_result.counters.as_dict()
    ), f"pipeline counter fold drifted ({context})"
    # A job's output dataset is materialized from the bytes its winning
    # reduce attempts encoded: retries and speculation must not show.
    assert _dataset_ledger(result) == _dataset_ledger(
        base_result
    ), f"dataset ledger drifted ({context})"


def _dataset_ledger(result) -> dict:
    return {
        name: (info.content_key, info.encoded_bytes, info.deduplicated)
        for name, info in result.datasets.items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_fault_schedule_is_invisible_serial(seed, baseline) -> None:
    faults = draw_fault_schedule(seed)
    policy = ScriptedFaults(faults=faults)
    runner = LocalJobRunner(fault_policy=policy)
    records, result = run_pagerank_pipeline(
        _job(max_task_attempts=4),
        _graph(),
        iterations=ITERATIONS,
        num_splits=NUM_SPLITS,
        runner=runner,
    )
    context = f"seed={seed} faults={faults!r}"
    assert policy.injected, f"schedule drew no faults ({context})"
    _assert_matches_baseline(records, result, baseline, context)


@pytest.mark.parametrize("seed", [606, 707])
def test_fuzzed_fault_schedule_is_invisible_on_pool(seed, baseline) -> None:
    """Crashes, stragglers and a genuine hang on the process pool: the
    timeout+retry machinery must leave outputs and counters untouched.

    The randomized schedule draws the restartable kinds; exactly one
    task additionally hangs past the timeout (a timeout abandons the
    whole pool, so unconstrained random hangs could starve clean
    attempts of unrelated tasks — each abandoned sibling burns one of
    their retries, which is also why the attempt budget is higher
    here).
    """
    faults = draw_fault_schedule(seed)
    hung_task = TASK_IDS[random.Random(seed).randrange(len(TASK_IDS))]
    faults[hung_task] = [("hang", 5.0), None]
    policy = ScriptedFaults(faults=faults)
    context = f"seed={seed} faults={faults!r}"
    with ParallelExecutor(max_workers=2) as pool:
        runner = LocalJobRunner(executor=pool, fault_policy=policy)
        records, result = run_pagerank_pipeline(
            _job(max_task_attempts=6, task_timeout_seconds=0.75),
            _graph(),
            iterations=ITERATIONS,
            num_splits=NUM_SPLITS,
            runner=runner,
        )
    assert policy.injected, f"schedule drew no faults ({context})"
    assert any(
        kind == "hang" for _, _, kind in policy.injected
    ), f"hang was never injected ({context})"
    _assert_matches_baseline(records, result, baseline, context)


def test_speculated_reduce_attempts_are_invisible_on_pool(baseline) -> None:
    """``reduce0``'s first attempt straggles in every job, so a
    speculative backup races it; whichever wins, its output bytes become
    the dataset, and the ledger must equal the fault-free run's."""
    faults = {"reduce0": [("slow", 0.5)]}
    policy = ScriptedFaults(faults=faults)
    with ParallelExecutor(max_workers=2) as pool:
        runner = LocalJobRunner(executor=pool, fault_policy=policy)
        records, result = run_pagerank_pipeline(
            _job(
                max_task_attempts=2,
                speculative_execution=True,
                speculative_quantile=0.5,
                speculative_slack=2.0,
            ),
            _graph(),
            iterations=ITERATIONS,
            num_splits=NUM_SPLITS,
            runner=runner,
        )
    context = f"faults={faults!r}"
    assert any(
        job.events.speculative_starts(E.REDUCE)
        for job in result.job_results()
    ), f"no reduce attempt was speculated ({context})"
    _assert_matches_baseline(records, result, baseline, context)
