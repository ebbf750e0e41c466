"""A record crosses a pipeline job boundary encoded once.

The reduce task encodes its output to count ``reduce.output.bytes``;
that encoding becomes the output dataset's materialization, and the
per-record sizes, cut at the input splits' boundaries, become the next
map tasks' input bytes.  These tests count the encodes that are gone and
hold the counters to what the plain runner over ``split_records`` lists
counts, which still sizes every input record by encoding it.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import Counter

import pytest

from repro.datagen.webgraph import generate_web_graph
from repro.experiments.common import strategy_variants
from repro.mr import maptask, serde
from repro.mr.api import Context, Mapper, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor
from repro.mr.split import SizedSplit, sized_splits, split_records
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

    pipeline = Pipeline("chain", runner=LocalJobRunner(executor="serial"))
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
def test_chained_jobs_count_what_the_plain_runner_counts(chain, strategy) -> None:
    first, second, records = chain()
    first, second = (strategy_variants(job)[strategy] for job in (first, second))
    runner = LocalJobRunner()
    by_hand = _by_hand(runner, first, second, records)
    piped = _chained(runner, first, second, records).job_results()
    _assert_same_jobs(by_hand, piped)
    # Only a job fed sized splits hands its output encoding on.
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
    splits = sized_splits(split_records(records, num_splits=3), sizes)
    assert [list(split) for split in splits] == split_records(
        records, num_splits=3
    )
    assert [split.encoded_bytes for split in splits] == [
        sum(sizes[0:4]),
        sum(sizes[4:7]),
        sum(sizes[7:10]),
    ]
    copy = pickle.loads(pickle.dumps(splits[1], protocol=5))
    assert isinstance(copy, SizedSplit)
    assert (list(copy), copy.encoded_bytes) == (
        list(splits[1]),
        splits[1].encoded_bytes,
    )
    with pytest.raises(ValueError, match="record sizes"):
        sized_splits([records], sizes[:-1])


def test_list_shaped_source_records_run_like_tuples() -> None:
    """The store encodes a source in one batch; ``[key, value]`` lists
    are records as much as ``(key, value)`` tuples are."""
    records = [("d1", "a b a"), ("d2", "b c"), ("d3", "a c c")]
    outputs = []
    for rows in (records, [list(record) for record in records]):
        pipeline = Pipeline("wc", runner=LocalJobRunner(executor="serial"))
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
