"""A record crosses a pipeline job boundary encoded once, and a split is
sized once.

A reduce task counts ``reduce.output.bytes`` with an exact size of its
output and encodes the output only in a pipeline, where that encoding
becomes the output dataset's materialization, and the per-record
sizes, cut at the input splits' boundaries, become the next map tasks'
input bytes.  A ``split_records`` split outside a pipeline is sized by
its first finished map attempt and keeps that size for every later job.
These tests count the encodes that are gone and hold the counters to
what runs over plain lists count, which encode every input record on
every run.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import Counter

import pytest

from repro.datagen.webgraph import generate_web_graph
from repro.experiments.common import strategy_variants
from repro.mr import counters as C
from repro.mr import maptask, reducetask, serde
from repro.mr.api import Context, Mapper, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.scheduler import ScriptedFaults
from repro.mr.split import SizedSplit, split_records
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import Pipeline
from repro.pipeline import dataset as dataset_module
from repro.pipeline.dataset import (
    ENCODE_HITS,
    ENCODE_MISSES,
    Dataset,
    DatasetStore,
)
from repro.workloads.pagerank import pagerank_job, run_pagerank_pipeline
from repro.workloads.wordcount import wordcount_job

NUM_SPLITS = 3
NUM_REDUCERS = 2


class _ByCountMapper(Mapper):
    """``(word, count) -> (count, word)``: a job that reads a job's output."""

    def map(self, word, count, context: Context) -> None:
        context.write(count, word)


class _WordsReducer(Reducer):
    def reduce(self, count, words, context: Context) -> None:
        context.write(count, sorted(words))


def _lines() -> list:
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    return [
        (index, " ".join(words[: 1 + index % len(words)] + [f"w{index % 7}"]))
        for index in range(40)
    ]


def _wordcount_chain() -> tuple[JobConf, JobConf, list]:
    first = wordcount_job(
        num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter()
    )
    second = JobConf(
        mapper=_ByCountMapper,
        reducer=_WordsReducer,
        num_reducers=NUM_REDUCERS,
        name="bycount",
        cost_meter=FixedCostMeter(),
    )
    return first, second, _lines()


def _pagerank_chain() -> tuple[JobConf, JobConf, list]:
    """PageRank's output is its input: two iterations back to back."""
    job = pagerank_job(
        num_nodes=30, num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter()
    )
    return job, job, generate_web_graph(30, avg_out_degree=4.0, seed=7)


def _chained(runner: LocalJobRunner, first: JobConf, second: JobConf, records):
    """A pipeline feeding one ``mapreduce`` stage straight into another."""
    pipeline = Pipeline("chain", runner=runner)
    source = pipeline.source("input", records)
    middle = pipeline.mapreduce("first", first, source, num_splits=NUM_SPLITS)
    pipeline.mapreduce("second", second, middle, num_splits=NUM_SPLITS)
    return pipeline.run()


def _by_hand(runner: LocalJobRunner, first: JobConf, second: JobConf, records):
    one = runner.run(first, split_records(records, num_splits=NUM_SPLITS))
    two = runner.run(second, split_records(one.output, num_splits=NUM_SPLITS))
    return [one, two]


class _CountingSerde:
    """Stands in for ``repro.mr.serde`` inside one module and counts the
    encode calls made through it."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    def __getattr__(self, name: str):
        attr = getattr(serde, name)
        if not name.startswith("encode"):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def test_job_output_is_never_encoded_again(monkeypatch) -> None:
    """Map tasks fed by the pipeline size no input record, and the store
    encodes only the source: both job outputs arrive encoded."""
    in_maps, in_store = _CountingSerde(), _CountingSerde()
    monkeypatch.setattr(maptask, "serde", in_maps)
    monkeypatch.setattr(dataset_module, "serde", in_store)
    first, second, records = _wordcount_chain()

    runner = LocalJobRunner(executor=SerialExecutor())
    pipeline = Pipeline("chain", runner=runner)
    source = pipeline.source("input", records)
    middle = pipeline.mapreduce("first", first, source, num_splits=NUM_SPLITS)
    last = pipeline.mapreduce("second", second, middle, num_splits=NUM_SPLITS)
    pipeline.transform("read", lambda rows: rows, last)
    result = pipeline.run()

    assert in_maps.calls["encode_kv_into"] == 0
    assert in_store.calls == Counter({"encode_kv_batch": 1})  # the source
    for name, job in (("first", 0), ("second", 1)):
        info = result.datasets[name]
        output = result.job_results()[job].output
        encoded = bytearray()
        serde.encode_kv_batch(encoded, output)
        assert info.encodes == 1
        assert info.encoded_bytes == len(encoded)
        assert info.content_key == hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("strategy", ["Original", "AdaptiveSH"])
@pytest.mark.parametrize(
    "chain", [_wordcount_chain, _pagerank_chain], ids=["wordcount", "pagerank"]
)
def test_reduce_task_encodes_its_output_only_for_a_pipeline(
    monkeypatch, chain, strategy
) -> None:
    """A reduce task sizes its output to count it: ``encode_kv_batch``
    runs once per task when the encoding is kept, never otherwise, and
    ``reduce.output.bytes`` is the encoded length either way."""
    job, _, records = chain()
    job = strategy_variants(job)[strategy]
    counted = _CountingSerde()
    monkeypatch.setattr(reducetask, "serde", counted)
    runner = LocalJobRunner(executor=SerialExecutor())
    results = {}
    for keep in (False, True):
        counted.calls.clear()
        splits = split_records(records, num_splits=NUM_SPLITS)
        results[keep] = runner.run(job, splits, keep_output_encoding=keep)
        assert counted.calls["encode_kv_batch"] == (NUM_REDUCERS if keep else 0)
    sized, kept = results[False], results[True]
    assert sized.output == kept.output
    assert sized.counters.as_dict() == kept.counters.as_dict()
    encoded = bytearray()
    serde.encode_kv_batch(encoded, sized.output)
    assert sized.counters.get_int(C.REDUCE_OUTPUT_BYTES) == len(encoded)
    assert sized.counters.get_int(C.HDFS_WRITE_BYTES) == len(encoded)


@pytest.mark.parametrize("strategy", ["Original", "AdaptiveSH"])
@pytest.mark.parametrize(
    "chain", [_wordcount_chain, _pagerank_chain], ids=["wordcount", "pagerank"]
)
def test_chained_jobs_count_what_the_plain_runner_counts(chain, strategy) -> None:
    first, second, records = chain()
    first, second = (strategy_variants(job)[strategy] for job in (first, second))
    runner = LocalJobRunner()
    by_hand = _by_hand(runner, first, second, records)
    piped = _chained(runner, first, second, records).job_results()
    _assert_same_jobs(by_hand, piped)
    # Only a pipeline's job hands its output encoding on.
    assert [job.encoded_output() is None for job in by_hand] == [True, True]
    assert [job.encoded_output() is None for job in piped] == [False, False]


@pytest.mark.parametrize(
    "chain", [_wordcount_chain, _pagerank_chain], ids=["wordcount", "pagerank"]
)
def test_chained_jobs_count_what_the_plain_runner_counts_on_pool(chain) -> None:
    first, second, records = chain()
    expected = _by_hand(LocalJobRunner(), first, second, records)
    with ParallelExecutor(max_workers=2) as pool:
        piped = _chained(LocalJobRunner(executor=pool), first, second, records)
    _assert_same_jobs(expected, piped.job_results())


def _assert_same_jobs(expected, actual) -> None:
    assert len(actual) == len(expected) == 2
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got.output == want.output, f"job {index} output drift"
        assert (
            got.counters.as_dict() == want.counters.as_dict()
        ), f"job {index} counter drift"


def test_sized_splits_cut_sizes_at_the_split_boundaries() -> None:
    records = [(index, "x" * index) for index in range(10)]
    sizes = [serde.record_size(key, value) for key, value in records]
    splits = split_records(records, num_splits=3, sizes=sizes)
    assert splits == split_records(records, num_splits=3)
    assert [split.encoded_bytes for split in splits] == [
        sum(sizes[0:4]),
        sum(sizes[4:7]),
        sum(sizes[7:10]),
    ]
    with pytest.raises(ValueError, match="record sizes"):
        split_records(records, num_splits=3, sizes=sizes[:-1])


# -- a split is sized once ---------------------------------------------------


def _job() -> JobConf:
    return wordcount_job(num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter())


def _encoded_size(records) -> int:
    return sum(serde.record_size(key, value) for key, value in records)


def _assert_counts_like_plain_lists(result, splits, job=None) -> None:
    """``result`` is what a run over plain-list copies of ``splits``
    gives; a plain list is encoded record by record on every run."""
    plain = LocalJobRunner(executor=SerialExecutor()).run(
        job or _job(), [list(split) for split in splits]
    )
    assert result.output == plain.output
    assert result.counters.as_dict() == plain.counters.as_dict()


class _RefusingSerde:
    """Stands in for ``repro.mr.serde`` inside one module and fails every
    encode made through it."""

    def __getattr__(self, name: str):
        attr = getattr(serde, name)
        if not name.startswith("encode"):
            return attr

        def refused(*args, **kwargs):
            raise AssertionError(f"serde.{name} called")

        return refused


@pytest.mark.parametrize("sized", [True, False], ids=["sized", "unsized"])
def test_a_split_pickles_with_its_size(sized) -> None:
    records = [(index, "x" * index) for index in range(6)]
    split = SizedSplit(records, _encoded_size(records) if sized else None)
    copy = pickle.loads(pickle.dumps(split, protocol=5))
    assert type(copy) is SizedSplit
    assert (copy, copy.encoded_bytes, copy.sized_records) == (
        split,
        split.encoded_bytes,
        split.sized_records,
    )


def test_a_split_is_sized_once_on_the_serial_executor(monkeypatch) -> None:
    records = _lines()
    splits = split_records(records, num_splits=NUM_SPLITS)
    assert [split.encoded_bytes for split in splits] == [None] * NUM_SPLITS
    in_maps = _CountingSerde()
    monkeypatch.setattr(maptask, "serde", in_maps)
    runner = LocalJobRunner(executor=SerialExecutor())

    first = runner.run(_job(), splits)
    assert in_maps.calls["encode_kv_into"] == len(records)
    assert [split.encoded_bytes for split in splits] == [
        _encoded_size(split) for split in splits
    ]
    in_maps.calls.clear()
    second = runner.run(_job(), splits)
    assert in_maps.calls["encode_kv_into"] == 0
    for result in (first, second):
        _assert_counts_like_plain_lists(result, splits)


def test_a_split_is_sized_once_on_the_pool(monkeypatch) -> None:
    """The first run's sizes come back in the map results and land on
    the caller's splits; the second run's workers, forked with the map
    task's encoder refused, charge the sizes the splits pickled with."""
    splits = split_records(_lines(), num_splits=NUM_SPLITS)
    with ParallelExecutor(max_workers=2) as pool:
        first = LocalJobRunner(executor=pool).run(_job(), splits)
    assert [split.encoded_bytes for split in splits] == [
        _encoded_size(split) for split in splits
    ]
    monkeypatch.setattr(maptask, "serde", _RefusingSerde())
    with ParallelExecutor(max_workers=2) as pool:
        second = LocalJobRunner(executor=pool).run(_job(), splits)
    monkeypatch.undo()
    for result in (first, second):
        _assert_counts_like_plain_lists(result, splits)


def test_splits_cut_by_bytes_are_sized_at_cut(monkeypatch) -> None:
    """The cutter computes every record's size anyway; its splits keep
    them, so even their first run encodes no input record."""
    splits = split_records(_lines(), split_bytes=256)
    assert len(splits) > 1
    assert [split.encoded_bytes for split in splits] == [
        _encoded_size(split) for split in splits
    ]
    in_maps = _CountingSerde()
    monkeypatch.setattr(maptask, "serde", in_maps)
    result = LocalJobRunner(executor=SerialExecutor()).run(_job(), splits)
    assert in_maps.calls["encode_kv_into"] == 0
    _assert_counts_like_plain_lists(result, splits)
    empty = split_records([], split_bytes=10)
    assert empty == [[]] and empty[0].encoded_bytes == 0


class _WatchedFaults(ScriptedFaults):
    """Scripted faults that note ``split``'s size as map0's attempts
    start."""

    def __init__(self, split: SizedSplit, **script) -> None:
        super().__init__(**script)
        self.split = split
        self.sizes_at_start: list = []

    def fault_for(self, kind, task_id, attempt):
        if task_id == "map0":
            self.sizes_at_start.append(self.split.encoded_bytes)
        return super().fault_for(kind, task_id, attempt)


def test_a_failed_attempt_leaves_its_split_unsized() -> None:
    """On the default executor: serial, or a pool under ``REPRO_JOBS``."""
    splits = split_records(_lines(), num_splits=NUM_SPLITS)
    faults = _WatchedFaults(splits[0], fail_first={"map0": 1})
    runner = LocalJobRunner(fault_policy=faults)
    result = runner.run(_job().clone(max_task_attempts=2), splits)
    assert faults.injected == [("map0", 1, "fail")]
    assert faults.sizes_at_start == [None, None]
    assert splits[0].encoded_bytes == _encoded_size(splits[0])
    _assert_counts_like_plain_lists(result, splits)


class _FailsOnceAtCleanup(Mapper):
    """Identity Map; the first task to reach cleanup fails there, after
    reading its whole split."""

    failures_left = 0

    def cleanup(self, context: Context) -> None:
        if _FailsOnceAtCleanup.failures_left:
            _FailsOnceAtCleanup.failures_left -= 1
            raise RuntimeError("cleanup failed")


def test_an_attempt_that_read_its_split_then_failed_leaves_it_unsized(
    monkeypatch,
) -> None:
    monkeypatch.setattr(_FailsOnceAtCleanup, "failures_left", 1)
    job = JobConf(
        mapper=_FailsOnceAtCleanup,
        reducer=Reducer,
        num_reducers=NUM_REDUCERS,
        name="fails-once",
        cost_meter=FixedCostMeter(),
        max_task_attempts=2,
    )
    splits = split_records(_lines(), num_splits=NUM_SPLITS)
    faults = _WatchedFaults(splits[0])
    runner = LocalJobRunner(executor=SerialExecutor(), fault_policy=faults)
    result = runner.run(job, splits)
    assert faults.sizes_at_start == [None, None]
    assert splits[0].encoded_bytes == _encoded_size(splits[0])
    _assert_counts_like_plain_lists(result, splits, job)


@pytest.mark.parametrize(
    "cut",
    [{"num_splits": NUM_SPLITS}, {"split_bytes": 256}],
    ids=["by_count", "by_bytes"],
)
def test_a_split_changed_after_sizing_fails_its_map_task(cut) -> None:
    records = _lines()
    splits = split_records(records, **cut)
    runner = LocalJobRunner()
    runner.run(_job(), splits)
    sized = splits[1].encoded_bytes
    splits[1].append(records[0])
    with pytest.raises(ValueError, match=r"map1 has \d+ records but was sized"):
        runner.run(_job(), splits)
    assert splits[1].encoded_bytes == sized


def test_list_shaped_source_records_run_like_tuples() -> None:
    """The store encodes a source in one batch; ``[key, value]`` lists
    are records as much as ``(key, value)`` tuples are."""
    records = [("d1", "a b a"), ("d2", "b c"), ("d3", "a c c")]
    outputs = []
    for rows in (records, [list(record) for record in records]):
        runner = LocalJobRunner(executor=SerialExecutor())
        pipeline = Pipeline("wc", runner=runner)
        source = pipeline.source("in", rows)
        pipeline.mapreduce(
            "count", wordcount_job(num_reducers=NUM_REDUCERS), source, 2
        )
        result = pipeline.run()
        encoded = result.datasets["in"].encoded_bytes
        outputs.append((result.job_results()[0].output, encoded))
    assert outputs[1] == outputs[0]
    assert sorted(outputs[0][0]) == [("a", 3), ("b", 2), ("c", 3)]


# -- a loop output is an alias of the final iteration's dataset -----------


def test_alias_read_first_shares_the_source_materialization() -> None:
    metrics = MetricsRegistry()
    store = DatasetStore(metrics)
    source, alias = Dataset(1, "loop[2].ranks"), Dataset(2, "loop.ranks")
    store.put(source, [(1, 0.5), (2, 0.25)])
    store.alias(alias, source)

    store.read(alias)
    store.read(source)

    values = metrics.counter_values()
    assert (values[ENCODE_MISSES], values[ENCODE_HITS]) == (1, 1)
    infos = store.infos()
    assert infos["loop[2].ranks"].encodes == 1
    assert infos["loop.ranks"].encodes == 0
    assert infos["loop.ranks"].content_key == infos["loop[2].ranks"].content_key
    assert infos["loop.ranks"].content_key


def test_pagerank_loop_output_is_materialized_once() -> None:
    """The final ranks are read only through the loop's alias; the
    encode is the final iteration's dataset's, never the alias's own."""
    job = pagerank_job(num_nodes=40, num_reducers=NUM_REDUCERS)
    graph = generate_web_graph(40, avg_out_degree=4.0, seed=3)
    _, result = run_pagerank_pipeline(job, graph, iterations=2, num_splits=2)
    final, alias = result.datasets["iterate[2].ranks"], result.datasets["iterate.ranks"]
    assert (final.encodes, alias.encodes) == (1, 0)
    assert alias.content_key == final.content_key != ""
    assert alias.encoded_bytes == final.encoded_bytes > 0
