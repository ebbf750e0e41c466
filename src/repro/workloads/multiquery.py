"""Multi-query scan sharing (paper Sections 1 and 8).

The paper argues that scan-sharing / multi-query optimisation systems
(MRShare, Pig's merged jobs, CoScan, ...) "are a perfect target for
Anti-Combining because a single record produced by the shared operator
might have to be duplicated many times in order to forward it to the
downstream operators of the queries involved."

This module models that setting: several queries over the same input
are merged into one job.  The shared Map runs every query's mapper on
each input record and *tags* each output key with its query id, so one
reduce pass answers all queries.  Whenever two queries emit the same
value for a record (common — e.g. both forward the record itself),
EagerSH collapses the duplicates; LazySH can go further and ship the
input once per reduce task regardless of how many queries want it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro.mr.api import (
    Context,
    Mapper,
    Partitioner,
    Reducer,
    stable_hash,
)
from repro.mr.config import JobConf


class Query:
    """One logical query: a mapper factory and a reducer factory."""

    def __init__(
        self,
        name: str,
        mapper_factory: Callable[[], Mapper],
        reducer_factory: Callable[[], Reducer],
    ):
        self.name = name
        self.mapper_factory = mapper_factory
        self.reducer_factory = reducer_factory


class SharedScanMapper(Mapper):
    """Run every query's Map over the shared scan, tagging the keys."""

    def __init__(self, queries: Sequence[Query]):
        if not queries:
            raise ValueError("at least one query is required")
        self._queries = list(queries)
        self._mappers: list[Mapper] | None = None

    def setup(self, context: Context) -> None:
        self._mappers = [q.mapper_factory() for q in self._queries]
        for query, mapper in zip(self._queries, self._mappers):
            mapper.setup(self._tagging_context(context, query.name))

    def _tagging_context(self, context: Context, name: str) -> Context:
        return context.with_sink(
            lambda key, value: context.write((name, key), value)
        )

    def map(self, key: Any, value: Any, context: Context) -> None:
        assert self._mappers is not None, "setup() was not called"
        for query, mapper in zip(self._queries, self._mappers):
            mapper.map(
                key, value, self._tagging_context(context, query.name)
            )

    def cleanup(self, context: Context) -> None:
        assert self._mappers is not None
        for query, mapper in zip(self._queries, self._mappers):
            mapper.cleanup(self._tagging_context(context, query.name))


class SharedScanReducer(Reducer):
    """Dispatch each tagged group to its query's reducer."""

    def __init__(self, queries: Sequence[Query]):
        self._reducers = {
            q.name: q.reducer_factory() for q in queries
        }

    def setup(self, context: Context) -> None:
        for name, reducer in self._reducers.items():
            reducer.setup(self._tagging_context(context, name))

    def _tagging_context(self, context: Context, name: str) -> Context:
        return context.with_sink(
            lambda key, value: context.write((name, key), value)
        )

    def reduce(
        self, tagged_key: tuple, values: Iterator[Any], context: Context
    ) -> None:
        name, key = tagged_key
        reducer = self._reducers.get(name)
        if reducer is None:
            raise KeyError(f"no query named {name!r}")
        reducer.reduce(key, values, self._tagging_context(context, name))

    def cleanup(self, context: Context) -> None:
        for name, reducer in self._reducers.items():
            reducer.cleanup(self._tagging_context(context, name))


class SharedKeyPartitioner(Partitioner):
    """Partition on the *untagged* key, so the queries' records for the
    same underlying key land together — maximising value sharing."""

    def get_partition(self, tagged_key: tuple, num_partitions: int) -> int:
        return stable_hash(tagged_key[1]) % num_partitions


def shared_scan_job(
    queries: Sequence[Query],
    num_reducers: int = 8,
    **job_kwargs: Any,
) -> JobConf:
    """Merge ``queries`` into one scan-sharing job configuration."""
    queries = list(queries)
    if not queries:
        raise ValueError("at least one query is required")
    names = [q.name for q in queries]
    if len(set(names)) != len(names):
        raise ValueError("query names must be unique")
    return JobConf(
        mapper=partial(SharedScanMapper, queries),
        reducer=partial(SharedScanReducer, queries),
        partitioner=SharedKeyPartitioner(),
        num_reducers=num_reducers,
        name="shared-scan[" + ",".join(names) + "]",
        **job_kwargs,
    )


def split_results_by_query(
    output: list[tuple[tuple, Any]]
) -> dict[str, list[tuple[Any, Any]]]:
    """Demultiplex a shared-scan job's output back into per-query results."""
    results: dict[str, list[tuple[Any, Any]]] = {}
    for (name, key), value in output:
        results.setdefault(name, []).append((key, value))
    return results


# -- pipeline port -------------------------------------------------------
def _select_query(name: str) -> Callable[[list], list]:
    def select(output: list) -> list:
        return [(key, value) for (tag, key), value in output if tag == name]

    return select


def run_multiquery_pipeline(
    queries: Sequence[Query],
    records: Sequence[tuple[Any, Any]],
    num_reducers: int = 8,
    num_splits: int = 8,
    runner: Any = None,
    shared: bool = True,
    **job_kwargs: Any,
) -> tuple[dict[str, list], "PipelineResult"]:
    """The multi-query setting as a dataflow pipeline.

    ``shared=True`` runs one merged scan-sharing job and demultiplexes
    per-query result datasets with transforms.  ``shared=False`` runs
    one job per query over the same source dataset — the per-query
    branches are independent stages of one wave, run in declaration
    order.  Either way the per-query datasets (``query.<name>``) carry
    untagged keys and match :func:`split_results_by_query` of the
    corresponding job output.

    Returns ``({query name: records}, PipelineResult)``.
    """
    from repro.pipeline import Pipeline

    queries = list(queries)
    pipeline = Pipeline("multiquery", runner=runner)
    docs = pipeline.source("docs", records)
    if shared:
        scan = pipeline.mapreduce(
            "shared_scan",
            shared_scan_job(queries, num_reducers=num_reducers, **job_kwargs),
            docs,
            num_splits=num_splits,
        )
        for query in queries:
            pipeline.transform(
                f"query.{query.name}", _select_query(query.name), scan
            )
    else:
        for query in queries:
            scan = pipeline.mapreduce(
                f"scan.{query.name}",
                shared_scan_job(
                    [query], num_reducers=num_reducers, **job_kwargs
                ),
                docs,
                num_splits=num_splits,
            )
            pipeline.transform(
                f"query.{query.name}", _select_query(query.name), scan
            )
    result = pipeline.run()
    per_query = {
        query.name: result.dataset(f"query.{query.name}")
        for query in queries
    }
    return per_query, result
