"""Golden test: rewriting the data plane never changes what is counted.

The perf series (zero-copy serde, cached sort keys, raw-key merges,
batched collect/merge/reduce, out-of-band shuffle) promised that every
optimisation changes only *how* Python does the work, never how much
accounted work is done: bytes, records, comparisons and spills must be
**bit-identical**, and therefore so must every analytic cost.  While
the unoptimised paths still shipped (reference / fast / batch tiers
behind two env flags) this test ran a job on all three and diffed the
counters; the tiers are gone, and two checks stand in for the flags:

* **Goldens.**  ``golden_invariance_counters.json`` holds the analytic
  counters and output digest of every leg below — the Figure 9
  workload, all four strategies crossed with all three partitioners,
  with a sort buffer small enough to force map-side spills and
  multi-pass merges — recorded at the last commit that had the three
  tiers (bcf760e), through this file's leg definitions, with
  reference == fast == batch asserted there.
  ``golden_sizing_counters.json`` does the same for the sizing legs.
* **The opaque-comparator differential.**  Every specialisation left
  in the data plane is selected by a comparator property
  (``is_natural`` / ``orders_by_encoded_bytes``) and sits beside the
  generic ``key_fn()`` / ``cmp`` branch that custom comparators take.
  :data:`OPAQUE` orders exactly like the default comparator but says
  neither, so rerunning a leg with it as sort and grouping comparator
  drives every generic branch — and must count and output the same.

Only the measured-CPU counters are excluded: those are wall-clock
*measurements* of user/framework code, not analytic charges.
``cpu.framework.seconds`` is analytic and is included in the diff.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.datagen.qlog import generate_query_log
from repro.datagen.randomtext import generate_random_text
from repro.experiments.common import measure_job, strategy_variants
from repro.experiments.fig09_map_output import STRATEGIES, partitioner_lineup
from repro.mr.api import Mapper, Reducer
from repro.mr.comparators import Comparator, _natural_cmp
from repro.mr.config import JobConf
from repro.mr.split import split_records
from repro.workloads.query_suggestion import query_suggestion_job

#: Wall-clock measurements of user/codec code — the only counters a
#: data-plane rewrite is *allowed* (indeed expected) to change.
MEASURED_CPU_PREFIXES = (
    "cpu.map.seconds",
    "cpu.reduce.seconds",
    "cpu.combine.seconds",
    "cpu.partition.seconds",
    "cpu.codec.seconds",
)

NUM_QUERIES = 600
NUM_REDUCERS = 3
NUM_SPLITS = 4
#: Small enough that every map task spills and merges multiple runs.
SORT_BUFFER_BYTES = 4096

#: The default order with ``is_natural`` left false: the code cannot
#: see that it is natural and takes the generic branch everywhere.
OPAQUE = Comparator(_natural_cmp, name="opaque")


@lru_cache(maxsize=1)
def _splits():
    records = generate_query_log(NUM_QUERIES, seed=42)
    return split_records(records, num_splits=NUM_SPLITS)


def _analytic_counters(run) -> dict:
    return {
        name: value
        for name, value in run.result.counters.as_dict().items()
        if not name.startswith(MEASURED_CPU_PREFIXES)
    }


def _measure(job, splits=None):
    return measure_job(
        "invariance", job, _splits() if splits is None else splits
    )


def _leg_record(job, splits=None) -> dict:
    """One leg's analytic counters and the digest of its canonical
    output — the shape of the golden files' entries."""
    run = _measure(job, splits)
    digest = hashlib.sha256()
    for encoded in run.result.canonical_output():
        digest.update(len(encoded).to_bytes(4, "little"))
        digest.update(encoded)
    return {
        "counters": _analytic_counters(run),
        "output_sha256": digest.hexdigest(),
    }


def _with_comparator(job: JobConf, opaque: bool) -> JobConf:
    """``job`` as is, or sorting and grouping by :data:`OPAQUE` (set
    before the anti-combining transform snapshots the comparators)."""
    if not opaque:
        return job
    return job.clone(comparator=OPAQUE, grouping_comparator=OPAQUE)


@lru_cache(maxsize=2)
def _matrix_legs(opaque: bool = False) -> dict:
    """``{label: (job, splits)}``: strategy × partitioner, all over
    :func:`_splits`."""
    legs = {}
    for part_name, partitioner in partitioner_lineup().items():
        variants = strategy_variants(
            _with_comparator(
                query_suggestion_job(
                    num_reducers=NUM_REDUCERS,
                    partitioner=partitioner,
                    sort_buffer_bytes=SORT_BUFFER_BYTES,
                ),
                opaque,
            )
        )
        for strategy in STRATEGIES:
            legs[f"{part_name}/{strategy}"] = (variants[strategy], _splits())
    return legs


def _load_golden(name: str) -> dict:
    return json.loads((Path(__file__).parent / name).read_text())


#: ``{label: _leg_record(job, splits)}`` for :func:`_matrix_legs`, as
#: the last three-tier commit computed it on every tier.
_MATRIX_GOLDEN = _load_golden("golden_invariance_counters.json")


def _assert_matches_golden_and_opaque(label: str, golden: dict, legs) -> dict:
    """Run ``legs(opaque)[label]`` both ways; both must equal ``golden``.

    Returns the leg's analytic counters.
    """
    for opaque in (False, True):
        record = _leg_record(*legs(opaque)[label])
        which = "opaque-comparator" if opaque else "default"
        diff = {
            key: (golden["counters"].get(key), record["counters"].get(key))
            for key in set(golden["counters"]) | set(record["counters"])
            if golden["counters"].get(key) != record["counters"].get(key)
        }
        assert not diff, f"{label} {which} counter drift: {diff}"
        assert record["output_sha256"] == golden["output_sha256"], (
            f"{label} {which} output drift"
        )
    return record["counters"]


def test_matrix_golden_covers_every_leg() -> None:
    assert list(_MATRIX_GOLDEN) == list(_matrix_legs())


@pytest.mark.parametrize("part_name", list(partitioner_lineup()))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_counters_identical_across_tiers(part_name, strategy) -> None:
    label = f"{part_name}/{strategy}"
    counters = _assert_matches_golden_and_opaque(
        label, _MATRIX_GOLDEN[label], _matrix_legs
    )

    # The workload must actually exercise the spill/merge paths for the
    # invariance to mean anything.
    assert any(
        "spill" in name and value for name, value in counters.items()
    ), "test inputs no longer force spills — shrink sort_buffer_bytes"


class _FirstWordMapper(Mapper):
    """One record per Map call, one each from ``setup``/``cleanup``."""

    def setup(self, context):
        context.write("#setup", "begin")

    def map(self, key, value, context):
        context.write(value.split(" ", 1)[0], value)

    def cleanup(self, context):
        context.write("#cleanup", "end")


class _SortedValuesReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, sorted(values))


#: What the parent of the lanes' commit counted for the job below —
#: every decision and every ``Shared`` spill must stay where it was.
_LANE_SPILLS = {
    "anti.shared.spills": 11,
    "anti.shared.spilled.records": 236,
    "anti.shared.spilled.bytes": 11755,
}
_LANE_ALL_PLAIN = {
    **_LANE_SPILLS,
    "anti.plain.records": 408,
    "anti.lazy.records": 0,
    "map.output.materialized.bytes": 20813,
    "disk.write.bytes": 53381,
}
_LANE_GOLDEN = {
    "EagerSH": _LANE_ALL_PLAIN,
    "LazySH": {
        **_LANE_SPILLS,
        "anti.plain.records": 8,  # the lifecycle emissions
        "anti.lazy.records": 400,
        "anti.reduce.map.reexecutions": 400,
        "map.output.materialized.bytes": 22219,
        "disk.write.bytes": 56193,
    },
    # A line is always longer than its first word: PLAIN wins the size
    # comparison in every call.
    "AdaptiveSH": _LANE_ALL_PLAIN,
}


@pytest.mark.parametrize("strategy", list(_LANE_GOLDEN))
def test_degenerate_call_lanes_counters_identical(strategy) -> None:
    """Lane rider on the golden invariance: a job made of nothing but
    single-emission Map calls (plus lifecycle emissions), whose reduce
    groups are all PLAIN under EagerSH and outgrow a 1 KiB ``Shared``.
    The shortcuts those shapes take must count exactly what the
    general path counted, and reproduce Original.
    """
    splits = split_records(
        generate_random_text(400, vocabulary_size=12, seed=7),
        num_splits=NUM_SPLITS,
    )
    variants = strategy_variants(
        JobConf(
            mapper=_FirstWordMapper,
            reducer=_SortedValuesReducer,
            num_reducers=NUM_REDUCERS,
            sort_buffer_bytes=SORT_BUFFER_BYTES,
        ),
        shared_memory_bytes=1024,
    )
    anti = _measure(variants[strategy], splits)
    counters = _analytic_counters(anti)
    golden = {name: counters.get(name, 0) for name in _LANE_GOLDEN[strategy]}
    assert golden == _LANE_GOLDEN[strategy]
    original = _measure(variants["Original"], splits)
    assert anti.result.sorted_output() == original.result.sorted_output()


@lru_cache(maxsize=2)
def _sizing_legs(opaque: bool = False) -> dict:
    """``{label: (job, splits)}`` — jobs whose keys and values are ints
    and nested int tuples, so every anti-layer size (AdaptiveSH's
    eager-vs-lazy comparison, ``Shared``'s spill trigger) comes from
    the int and container paths of ``approx_size`` that the
    Query-Suggestion matrix (``str`` everywhere) never reaches.  The
    matrix never spills ``Shared`` either: the 2 KiB theta-join legs
    are what take the opaque differential through ``Shared._spill``
    and ``Shared._merge_runs``.
    """
    from repro.datagen.cloud import generate_cloud_reports
    from repro.datagen.webgraph import generate_web_graph
    from repro.workloads.pagerank import pagerank_job
    from repro.workloads.thetajoin import band_join_job

    legs = {}
    theta_splits = split_records(
        generate_cloud_reports(240, seed=7), num_splits=NUM_SPLITS
    )
    theta = _with_comparator(
        band_join_job(grid_rows=12, grid_cols=12, num_reducers=8), opaque
    )
    # 2 KiB of Shared: every reduce task spills several times.
    for memory_label, anti_kwargs in (
        ("default", {}),
        ("spilling", {"shared_memory_bytes": 2048}),
    ):
        variants = strategy_variants(theta, **anti_kwargs)
        for strategy in ("EagerSH", "LazySH", "AdaptiveSH"):
            legs[f"theta/{memory_label}/{strategy}"] = (
                variants[strategy],
                theta_splits,
            )
    graph = generate_web_graph(150, avg_out_degree=8.0, seed=7)
    pagerank = _with_comparator(
        pagerank_job(num_nodes=150, num_reducers=4, with_combiner=False),
        opaque,
    )
    for strategy, job in strategy_variants(pagerank).items():
        if strategy != "Original":
            legs[f"pagerank/{strategy}"] = (
                job,
                split_records(graph, num_splits=NUM_SPLITS),
            )
    return legs


#: ``{label: _leg_record(job, splits)}`` as the parent of the
#: size-arithmetic commit (4361164) computed it, trial encodings and
#: recursive sizer and all.
_SIZING_GOLDEN = _load_golden("golden_sizing_counters.json")


@pytest.mark.parametrize("label", list(_SIZING_GOLDEN))
def test_sizing_decisions_counters_identical(label) -> None:
    """Sizing rider on the golden invariance: deciding by size
    arithmetic and sizing with the one-pass kernel must leave every
    encoding decision, every ``Shared`` spill and every byte where the
    trial encodings put them."""
    counters = _assert_matches_golden_and_opaque(
        label, _SIZING_GOLDEN[label], _sizing_legs
    )
    if label.startswith("theta/spilling"):
        assert counters["anti.shared.spills"] > 8
    if label.endswith("AdaptiveSH"):
        # The decision is real in both jobs: theta-join goes all LAZY
        # (Fig. 12), PageRank mixes EAGER/PLAIN with LAZY.
        assert counters["anti.lazy.records"] > 0


def test_sizing_golden_covers_every_leg() -> None:
    assert list(_SIZING_GOLDEN) == list(_sizing_legs())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pool_counters_identical(strategy) -> None:
    """Pool-transport rider on the golden invariance: on a 2-worker
    pool with fused dispatch, segment bytes cross the process boundary
    in the pickle-5 envelope of the task results and arguments — and
    not one analytic counter may move against a serial run of the same
    job, because every transfer/spill/merge charge is derived from the
    payload lengths, wherever the payload travels.
    """
    from repro.mr.engine import LocalJobRunner
    from repro.mr.executor import ParallelExecutor, SerialExecutor

    job = strategy_variants(
        query_suggestion_job(
            num_reducers=NUM_REDUCERS,
            sort_buffer_bytes=SORT_BUFFER_BYTES,
        )
    )[strategy]

    serial = LocalJobRunner(executor=SerialExecutor()).run(job, _splits())
    with ParallelExecutor(max_workers=2) as pool:
        pooled = LocalJobRunner(executor=pool).run(job, _splits())

    serial_counters = {
        name: value
        for name, value in serial.counters.as_dict().items()
        if not name.startswith(MEASURED_CPU_PREFIXES)
    }
    pooled_counters = {
        name: value
        for name, value in pooled.counters.as_dict().items()
        if not name.startswith(MEASURED_CPU_PREFIXES)
    }
    diff = {
        name: (serial_counters.get(name), pooled_counters.get(name))
        for name in set(serial_counters) | set(pooled_counters)
        if serial_counters.get(name) != pooled_counters.get(name)
    }
    assert not diff, f"{strategy}: pool counter drift: {diff}"
    assert pooled.sorted_output() == serial.sorted_output()


def test_flight_recorder_preserves_counters(tmp_path) -> None:
    """Observability rider on the golden invariance: running with the
    flight recorder installed must not move a single analytic counter,
    and the recorded ``counters.json`` receipt must equal the live
    run's analytic totals (measured-CPU families filtered).
    """
    import json

    from repro.mr.counters import MEASURED_CPU_COUNTERS
    from repro.obs.flightrecorder import (
        FlightRecorder,
        clear_flight_recorder,
        set_flight_recorder,
    )
    from repro.obs.run_store import RunStore

    job = strategy_variants(
        query_suggestion_job(
            num_reducers=NUM_REDUCERS,
            sort_buffer_bytes=SORT_BUFFER_BYTES,
        )
    )["EagerSH"]

    plain = _measure(job)
    recorder = FlightRecorder(
        RunStore(tmp_path), kind="experiment", name="invariance"
    )
    set_flight_recorder(recorder)
    try:
        recorded = _measure(job)
    finally:
        clear_flight_recorder()
    recorder.finalize()

    plain_counters = _analytic_counters(plain)
    recorded_counters = _analytic_counters(recorded)
    diff = {
        name: (plain_counters.get(name), recorded_counters.get(name))
        for name in set(plain_counters) | set(recorded_counters)
        if plain_counters.get(name) != recorded_counters.get(name)
    }
    assert not diff, f"recorder-on counter drift: {diff}"
    assert (
        recorded.result.sorted_output() == plain.result.sorted_output()
    )

    receipt = json.loads(
        (recorder.path / "counters.json").read_text()
    )["counters"]
    expected = {
        name: value
        for name, value in recorded.result.counters.as_dict().items()
        if name not in MEASURED_CPU_COUNTERS
    }
    assert receipt == expected


def test_speculative_execution_preserves_counters() -> None:
    """Fault-tolerance rider on the golden invariance: racing a
    speculative backup against an injected straggler must fold exactly
    one attempt's counters — the analytic totals and the output stay
    bit-identical to a fault-free serial run, whichever attempt wins.
    """
    from repro.mr.engine import LocalJobRunner
    from repro.mr.executor import ParallelExecutor
    from repro.mr.scheduler import ScriptedFaults

    job = strategy_variants(
        query_suggestion_job(
            num_reducers=NUM_REDUCERS,
            sort_buffer_bytes=SORT_BUFFER_BYTES,
        )
    )["AdaptiveSH"]
    reference = LocalJobRunner().run(job, _splits())

    speculative = job.clone(
        speculative_execution=True,
        speculative_quantile=0.5,
        speculative_slack=1.0,
        max_task_attempts=2,
    )
    with ParallelExecutor(max_workers=4) as pool:
        raced = LocalJobRunner(
            executor=pool,
            fault_policy=ScriptedFaults(faults={"map0": [("slow", 2.0)]}),
        ).run(speculative, _splits())

    ref_counters = {
        name: value
        for name, value in reference.counters.as_dict().items()
        if not name.startswith(MEASURED_CPU_PREFIXES)
    }
    raced_counters = {
        name: value
        for name, value in raced.counters.as_dict().items()
        if not name.startswith(MEASURED_CPU_PREFIXES)
    }
    diff = {
        name: (ref_counters.get(name), raced_counters.get(name))
        for name in set(ref_counters) | set(raced_counters)
        if ref_counters.get(name) != raced_counters.get(name)
    }
    assert not diff, f"speculation counter drift: {diff}"
    assert raced.sorted_output() == reference.sorted_output()
    # The straggler really was raced: a backup launched, and exactly
    # one of the two attempts contributed a FINISH.
    assert raced.events.speculative_starts(), (
        "speculation never triggered — raise the straggler's delay"
    )
    finishes = [
        e
        for e in raced.events.for_task("map0")
        if e.event == "finish"
    ]
    assert len(finishes) == 1
