"""Pipeline layer: unit semantics + differential equivalence.

The differential suite is the PR's acceptance gate: the pipeline ports
of PageRank, HITS and the multi-query scan must produce **bit-identical
outputs and bit-identical counters** vs the pre-existing manual driver
loops — across all four sharing strategies (plain/Eager/Lazy/Adaptive)
and both executors.  Jobs run with a :class:`FixedCostMeter`, so the
full counter dict (including every ``cpu.*`` charge) is analytic and
must match exactly.

The unit half pins the dataflow semantics: declaration-order runs, the
materialization cache (loop-invariant inputs encoded once), content
dedup, convergence policies, and the error surface.
"""

from __future__ import annotations

import pytest

from repro.datagen.webgraph import generate_web_graph
from repro.experiments.common import strategy_variants
from repro.mr.api import Context, Mapper, Reducer
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor
from repro.mr.split import split_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import load_jsonl
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    set_flight_recorder,
)
from repro.obs.run_store import RunStore
from repro.pipeline import (
    Dataset,
    DatasetStore,
    FixedIterations,
    Pipeline,
    PipelineError,
    ResidualThreshold,
    max_value_delta,
)
from repro.pipeline.convergence import resolve_until
from repro.workloads.hits import hits_job, run_hits, run_hits_pipeline
from repro.workloads.multiquery import (
    Query,
    run_multiquery_pipeline,
    shared_scan_job,
    split_results_by_query,
)
from repro.workloads.pagerank import (
    pagerank_job,
    run_pagerank,
    run_pagerank_pipeline,
)
from repro.workloads.wordcount import (
    WordCountMapper,
    WordCountReducer,
    wordcount_job,
)

NUM_NODES = 24
ITERATIONS = 5
NUM_REDUCERS = 3
NUM_SPLITS = 3
STRATEGIES = ["Original", "EagerSH", "LazySH", "AdaptiveSH"]


@pytest.fixture(scope="module")
def pool():
    """One process pool shared by every parallel differential run."""
    with ParallelExecutor(max_workers=2) as executor:
        yield executor


def _graph():
    return generate_web_graph(NUM_NODES, avg_out_degree=4.0, seed=11)


def _pagerank_variant(strategy: str):
    job = pagerank_job(
        num_nodes=NUM_NODES,
        num_reducers=NUM_REDUCERS,
        with_combiner=True,
        cost_meter=FixedCostMeter(),
    )
    return strategy_variants(job)[strategy]


def _hits_variant(strategy: str):
    job = hits_job(num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter())
    return strategy_variants(job)[strategy]


def _hits_graph():
    import random

    rng = random.Random(5)
    nodes = list(range(NUM_NODES))
    return [
        (
            node,
            (
                1.0,
                1.0,
                [m for m in nodes if m != node and rng.random() < 0.2],
            ),
        )
        for node in nodes
    ]


def _assert_same_jobs(manual_results, pipeline_result, expected_jobs):
    """Per-iteration outputs and full counter dicts must be identical."""
    piped_results = pipeline_result.job_results()
    assert len(manual_results) == expected_jobs
    assert len(piped_results) == expected_jobs
    for index, (manual, piped) in enumerate(
        zip(manual_results, piped_results)
    ):
        assert manual.output == piped.output, f"job {index} output drift"
        assert (
            manual.counters.as_dict() == piped.counters.as_dict()
        ), f"job {index} counter drift"


# -- differential: PageRank ---------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_pagerank_matches_manual_serial(strategy) -> None:
    job = _pagerank_variant(strategy)
    graph = _graph()
    manual, manual_results = run_pagerank(
        job, graph, iterations=ITERATIONS, num_splits=NUM_SPLITS
    )
    piped, result = run_pagerank_pipeline(
        job, graph, iterations=ITERATIONS, num_splits=NUM_SPLITS
    )
    assert piped == manual
    _assert_same_jobs(manual_results, result, ITERATIONS)
    # The loop-invariant graph structure is serde-encoded exactly once;
    # every iteration's read after the first is a cache hit.
    info = result.datasets["structure"]
    assert info.encodes == 1
    assert info.cache_hits == ITERATIONS
    assert result.loop_iterations == {"iterate": ITERATIONS}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_pagerank_matches_manual_parallel(strategy, pool) -> None:
    job = _pagerank_variant(strategy)
    graph = _graph()
    manual, manual_results = run_pagerank(
        job, graph, iterations=ITERATIONS, num_splits=NUM_SPLITS
    )
    piped, result = run_pagerank_pipeline(
        job,
        graph,
        iterations=ITERATIONS,
        num_splits=NUM_SPLITS,
        runner=LocalJobRunner(executor=pool),
    )
    assert piped == manual
    _assert_same_jobs(manual_results, result, ITERATIONS)
    info = result.datasets["structure"]
    assert info.encodes == 1
    assert info.cache_hits == ITERATIONS


# -- differential: HITS --------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_hits_matches_manual_serial(strategy) -> None:
    job = _hits_variant(strategy)
    graph = _hits_graph()
    manual_scores, manual_results = run_hits(
        job, graph, iterations=3, num_splits=NUM_SPLITS
    )
    piped_scores, result = run_hits_pipeline(
        job, graph, iterations=3, num_splits=NUM_SPLITS
    )
    assert piped_scores == manual_scores
    _assert_same_jobs(manual_results, result, 3)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_hits_matches_manual_parallel(strategy, pool) -> None:
    job = _hits_variant(strategy)
    graph = _hits_graph()
    manual_scores, manual_results = run_hits(
        job, graph, iterations=3, num_splits=NUM_SPLITS
    )
    piped_scores, result = run_hits_pipeline(
        job,
        graph,
        iterations=3,
        num_splits=NUM_SPLITS,
        runner=LocalJobRunner(executor=pool),
    )
    assert piped_scores == manual_scores
    _assert_same_jobs(manual_results, result, 3)


# -- differential: multi-query branches ----------------------------------
class _LineLengthMapper(Mapper):
    def map(self, key, value, context: Context) -> None:
        context.write("length", len(value))


class _SumReducer(Reducer):
    def reduce(self, key, values, context: Context) -> None:
        context.write(key, sum(values))


def _queries():
    return [
        Query("wordcount", WordCountMapper, WordCountReducer),
        Query("linelen", _LineLengthMapper, _SumReducer),
    ]


def _text_records():
    return [(index, f"alpha beta gamma alpha line{index}") for index in range(30)]


def test_pipeline_multiquery_shared_matches_manual() -> None:
    queries = _queries()
    records = _text_records()
    job = shared_scan_job(
        queries, num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter()
    )
    manual = LocalJobRunner().run(
        job, split_records(records, num_splits=NUM_SPLITS)
    )
    per_query, result = run_multiquery_pipeline(
        queries,
        records,
        num_reducers=NUM_REDUCERS,
        num_splits=NUM_SPLITS,
        cost_meter=FixedCostMeter(),
    )
    assert per_query == split_results_by_query(manual.output)
    [piped] = result.job_results()
    assert piped.counters.as_dict() == manual.counters.as_dict()


def test_pipeline_multiquery_branches_concurrent_deterministic(pool) -> None:
    """Independent per-query jobs in one wave: results and per-job
    counters are identical whether the branches run serially or
    concurrently on the process pool."""
    queries = _queries()
    records = _text_records()
    serial_q, serial_result = run_multiquery_pipeline(
        queries,
        records,
        num_reducers=NUM_REDUCERS,
        num_splits=NUM_SPLITS,
        shared=False,
        cost_meter=FixedCostMeter(),
    )
    parallel_q, parallel_result = run_multiquery_pipeline(
        queries,
        records,
        num_reducers=NUM_REDUCERS,
        num_splits=NUM_SPLITS,
        shared=False,
        runner=LocalJobRunner(executor=pool),
        cost_meter=FixedCostMeter(),
    )
    assert parallel_q == serial_q
    serial_jobs = serial_result.job_results()
    parallel_jobs = parallel_result.job_results()
    assert len(serial_jobs) == len(parallel_jobs) == len(queries)
    for serial_job, parallel_job in zip(serial_jobs, parallel_jobs):
        assert serial_job.output == parallel_job.output
        assert (
            serial_job.counters.as_dict()
            == parallel_job.counters.as_dict()
        )
    # Branch outputs also match running each query through the manual
    # single-query path.
    for query in queries:
        job = shared_scan_job(
            [query], num_reducers=NUM_REDUCERS, cost_meter=FixedCostMeter()
        )
        manual = LocalJobRunner().run(
            job, split_records(records, num_splits=NUM_SPLITS)
        )
        expected = split_results_by_query(manual.output).get(query.name, [])
        assert serial_q[query.name] == expected


# -- dataflow semantics --------------------------------------------------
def test_transform_multiple_outputs() -> None:
    pipeline = Pipeline("multi")
    numbers = pipeline.source("numbers", [(i, i) for i in range(6)])
    evens, odds = pipeline.transform(
        "parity",
        lambda records: (
            [(k, v) for k, v in records if v % 2 == 0],
            [(k, v) for k, v in records if v % 2 == 1],
        ),
        numbers,
        outputs=["evens", "odds"],
    )
    result = pipeline.run()
    assert result.dataset("evens") == [(0, 0), (2, 2), (4, 4)]
    assert result.dataset("odds") == [(1, 1), (3, 3), (5, 5)]
    assert result.stage("parity").records_out == 6


def test_stages_run_in_declaration_order() -> None:
    """A stage declared later runs later, even when its inputs were
    ready before an earlier-declared stage's."""
    ran: list[str] = []

    def copy(name):
        def fn(records):
            ran.append(name)
            return records

        return fn

    pipeline = Pipeline("order")
    a = pipeline.source("a", [(0, "x y x")])
    pipeline.mapreduce("b", wordcount_job(num_reducers=1), a, num_splits=1)
    c = pipeline.source("c", [(1, 1)])
    pipeline.transform("d", copy("d"), c)
    e = pipeline.source("e", [(2, 2)])
    pipeline.transform("f", copy("f"), e)
    result = pipeline.run()
    assert [stage.name for stage in result.stages] == list("abcdef")
    assert ran == ["d", "f"]


def test_transform_output_arity_mismatch_raises() -> None:
    pipeline = Pipeline("arity")
    numbers = pipeline.source("numbers", [(1, 1)])
    pipeline.transform(
        "bad", lambda records: ([],), numbers, outputs=["a", "b"]
    )
    with pytest.raises(PipelineError, match="returned 1 outputs"):
        pipeline.run()


def test_duplicate_stage_name_rejected() -> None:
    pipeline = Pipeline("dup")
    pipeline.source("records", [(1, 1)])
    with pytest.raises(PipelineError, match="duplicate"):
        pipeline.source("records", [(2, 2)])


def test_unknown_input_dataset_rejected_at_run() -> None:
    other = Pipeline("other")
    foreign = other.source("foreign", [(1, 1)])
    pipeline = Pipeline("orphan")
    pipeline.transform("copy", lambda records: records, foreign)
    with pytest.raises(PipelineError, match="unknown dataset"):
        pipeline.run()


def test_stage_inputs_must_be_datasets() -> None:
    pipeline = Pipeline("typed")
    with pytest.raises(PipelineError, match="Dataset handles"):
        pipeline.transform("bad", lambda records: records, [(1, 1)])


def test_mapreduce_requires_jobconf() -> None:
    pipeline = Pipeline("typed")
    records = pipeline.source("records", [(1, 1)])
    with pytest.raises(PipelineError, match="JobConf"):
        pipeline.mapreduce("bad", object(), records)


def test_loop_body_must_return_declared_variables() -> None:
    pipeline = Pipeline("loopvars")
    seed = pipeline.source("seed", [(1, 1.0)])

    def body(sub, loop_vars, iteration):
        return {"other": loop_vars["value"]}

    pipeline.iterate("loop", body, {"value": seed}, until=2)
    with pytest.raises(PipelineError, match="expected \\['value'\\]"):
        pipeline.run()


def test_iterate_requires_termination_policy() -> None:
    pipeline = Pipeline("endless")
    seed = pipeline.source("seed", [(1, 1.0)])
    with pytest.raises(ValueError, match="termination"):
        pipeline.iterate("loop", lambda s, v, i: v, {"value": seed}, None)
    with pytest.raises(ValueError, match="termination"):
        pipeline.iterate(
            "loop2", lambda s, v, i: v, {"value": seed}, float("inf")
        )
    with pytest.raises(TypeError, match="unsupported"):
        pipeline.iterate(
            "loop3", lambda s, v, i: v, {"value": seed}, "forever"
        )


def test_iterate_watch_must_be_loop_variable() -> None:
    pipeline = Pipeline("watch")
    seed = pipeline.source("seed", [(1, 1.0)])
    with pytest.raises(PipelineError, match="unknown loop variable"):
        pipeline.iterate(
            "loop",
            lambda s, v, i: v,
            {"value": seed},
            ResidualThreshold("missing", max_value_delta, 0.1),
        )


def test_residual_threshold_stops_early() -> None:
    pipeline = Pipeline("decay")
    seed = pipeline.source("seed", [("a", 1.0), ("b", 2.0)])

    def body(sub, loop_vars, iteration):
        halved = sub.transform(
            "halve",
            lambda records: [(k, v / 2.0) for k, v in records],
            loop_vars["value"],
        )
        return {"value": halved}

    policy = ResidualThreshold(
        "value", max_value_delta, tolerance=0.3, max_iterations=20
    )
    out = pipeline.iterate("loop", body, {"value": seed}, until=policy)
    result = pipeline.run()
    # deltas between iterations: 0.5, 0.25 -> stops at iteration 3
    # (the check compares iterations 2 and 3).
    assert result.loop_iterations["loop"] == 3
    assert policy.history == [0.5, 0.25]
    assert result.dataset(out["value"].name) == [
        ("a", 0.125),
        ("b", 0.25),
    ]


def test_residual_threshold_respects_iteration_cap() -> None:
    pipeline = Pipeline("capped")
    seed = pipeline.source("seed", [("a", 1.0)])

    def body(sub, loop_vars, iteration):
        grown = sub.transform(
            "grow",
            lambda records: [(k, v * 2.0) for k, v in records],
            loop_vars["value"],
        )
        return {"value": grown}

    policy = ResidualThreshold(
        "value", max_value_delta, tolerance=1e-9, max_iterations=4
    )
    pipeline.iterate("loop", body, {"value": seed}, until=policy)
    result = pipeline.run()
    assert result.loop_iterations["loop"] == 4


def test_resolve_until_normalisation() -> None:
    assert isinstance(resolve_until(3), FixedIterations)
    policy = FixedIterations(2)
    assert resolve_until(policy) is policy
    with pytest.raises(ValueError):
        FixedIterations(0)
    with pytest.raises(ValueError):
        ResidualThreshold("x", max_value_delta, tolerance=-1.0)
    with pytest.raises(ValueError):
        ResidualThreshold("x", max_value_delta, 0.1, max_iterations=0)
    with pytest.raises(ValueError, match="termination"):
        resolve_until(None)


def test_max_value_delta_handles_one_sided_keys() -> None:
    assert max_value_delta([("a", 1.0)], [("a", 1.5), ("b", 0.25)]) == 0.5
    assert max_value_delta([("a", 1.0), ("b", 3.0)], [("a", 1.0)]) == 3.0
    assert max_value_delta([], []) == 0.0


# -- dataset store -------------------------------------------------------
def test_dataset_double_produce_rejected() -> None:
    store = DatasetStore()
    dataset = Dataset(0, "records")
    store.put(dataset, [(1, 1)])
    with pytest.raises(ValueError, match="already produced"):
        store.put(dataset, [(2, 2)])


def test_dataset_read_before_produce_rejected() -> None:
    store = DatasetStore()
    with pytest.raises(KeyError, match="not been produced"):
        store.read(Dataset(0, "ghost"))


def test_dataset_content_dedup() -> None:
    metrics = MetricsRegistry()
    store = DatasetStore(metrics)
    first = Dataset(0, "first")
    second = Dataset(1, "second")
    store.put(first, [("k", 1), ("k", 2)])
    store.put(second, [("k", 1), ("k", 2)])
    store.read(first)
    store.read(second)
    values = metrics.counter_values()
    assert values["pipeline.dataset.encode.misses"] == 2
    assert values["pipeline.dataset.content.dedup"] == 1
    infos = store.infos()
    assert infos["first"].content_key == infos["second"].content_key
    assert not infos["first"].deduplicated
    assert infos["second"].deduplicated
    # Unique blob bytes were charged once.
    assert (
        values["pipeline.dataset.encoded.bytes"]
        == infos["first"].encoded_bytes
    )
    assert infos["second"].as_dict()["deduplicated"] is True


def test_repeated_reads_hit_the_encode_cache() -> None:
    metrics = MetricsRegistry()
    store = DatasetStore(metrics)
    dataset = Dataset(0, "records")
    store.put(dataset, [(1, "x")])
    for _ in range(3):
        store.read(dataset)
    store.peek(dataset)  # no materialization side effects
    values = metrics.counter_values()
    assert values["pipeline.dataset.encode.misses"] == 1
    assert values["pipeline.dataset.encode.hits"] == 2
    assert store.infos()["records"].cache_hits == 2


# -- observability -------------------------------------------------------
def test_pipeline_spans_and_metrics_ledger() -> None:
    pipeline = Pipeline("ledger")
    docs = pipeline.source("docs", [(0, "a b a")])
    from repro.workloads.wordcount import wordcount_job

    pipeline.mapreduce(
        "counts", wordcount_job(num_reducers=2), docs, num_splits=1
    )
    result = pipeline.run()
    span_names = [span.name for span in result.spans]
    assert "pipeline.stage.docs" in span_names
    assert "pipeline.stage.counts" in span_names
    assert all(span.category == "pipeline" for span in result.spans)
    values = result.metrics.counter_values()
    assert values["pipeline.stages.total"] == 2
    assert values["pipeline.jobs.total"] == 1
    # Job counters folded into the pipeline ledger...
    assert result.counters.as_dict()["map.input.records"] == 1
    # ...but pipeline-level cache metrics stay observational.
    assert "pipeline.dataset.encode.misses" not in result.counters.as_dict()
    assert result.summary()["jobs"] == 1


def test_pipeline_publishes_stage_timeline_to_flight_recorder(
    tmp_path,
) -> None:
    store = RunStore(tmp_path)
    recorder = FlightRecorder(store, kind="test", name="traced")
    set_flight_recorder(recorder)
    try:
        pipeline = Pipeline("traced")
        pipeline.source("records", [(1, 1)])
        pipeline.run()
    finally:
        clear_flight_recorder()
    recorder.finalize()
    names = [job.job_name for job in load_jsonl(store.load(recorder.run_id))]
    assert "pipeline:traced" in names
