"""PageRank (paper Section 7.7.2).

One iteration is one MapReduce job over records
``(node, (rank, [out_neighbors...]))``:

* **Map** divides the node's rank evenly over its out-edges and emits
  ``(neighbor, ('R', rank/out_degree))`` for every neighbor — the same
  contribution value for every out-edge, the sharing opportunity the
  paper exploits — plus ``(node, ('S', neighbors))`` to carry the graph
  structure to the next iteration.
* **Reduce** sums the incoming contributions and applies the damping
  formula ``(1 - d)/N + d * sum``, emitting the node in input format so
  iterations chain.
* The **Combiner** pre-sums contributions per target node within a map
  task (and inside ``Shared`` in the reduce phase).

Dangling nodes (no out-edges) keep their structure record and simply
contribute nothing, the standard simplification.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Iterator, Sequence

from repro.mr.api import Combiner, Context, Mapper, Reducer
from repro.mr.config import JobConf
from repro.mr.engine import JobResult, LocalJobRunner
from repro.mr.split import split_records
from repro.pipeline import Pipeline, PipelineResult

STRUCTURE = "S"
RANK = "R"


class PageRankMapper(Mapper):
    """Distribute rank over out-edges; forward the adjacency list."""

    def map(self, node: Any, state: tuple, context: Context) -> None:
        rank, neighbors = state
        context.write(node, (STRUCTURE, list(neighbors)))
        if neighbors:
            contribution = rank / len(neighbors)
            for neighbor in neighbors:
                context.write(neighbor, (RANK, contribution))


class PageRankCombiner(Combiner):
    """Pre-sum rank contributions per node; pass structure through."""

    def reduce(self, key: Any, values: Iterator[tuple], context: Context) -> None:
        contributions: list[float] = []
        structure: list | None = None
        for tag, payload in values:
            if tag == STRUCTURE:
                structure = payload
            else:
                contributions.append(payload)
        # fsum is exactly rounded, so the partial sum is independent of
        # the order contributions arrive in (see PageRankReducer).
        total = math.fsum(contributions)
        if structure is not None:
            context.write(key, (STRUCTURE, structure))
        if total or structure is None:
            context.write(key, (RANK, total))


class PageRankReducer(Reducer):
    """Apply the damping formula; emit the node in input format."""

    def __init__(self, num_nodes: int, damping: float = 0.85):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not 0 <= damping <= 1:
            raise ValueError("damping must be in [0, 1]")
        self.num_nodes = num_nodes
        self.damping = damping

    def reduce(self, node: Any, values: Iterator[tuple], context: Context) -> None:
        contributions: list[float] = []
        structure: list = []
        for tag, payload in values:
            if tag == STRUCTURE:
                structure = payload
            else:
                contributions.append(payload)
        # A left-to-right ``+=`` makes the rank depend on the order the
        # grouped values arrive in, which varies with combiner grouping
        # and sharing strategy.  math.fsum computes the exactly rounded
        # sum of the multiset, so any arrival order (and any partial
        # pre-aggregation that preserves the multiset's exact sum)
        # yields the same float.
        total = math.fsum(contributions)
        rank = (1 - self.damping) / self.num_nodes + self.damping * total
        context.write(node, (rank, structure))


def pagerank_job(
    num_nodes: int,
    damping: float = 0.85,
    num_reducers: int = 8,
    with_combiner: bool = True,
    **job_kwargs: Any,
) -> JobConf:
    """One PageRank iteration as a job configuration."""
    return JobConf(
        mapper=PageRankMapper,
        reducer=partial(PageRankReducer, num_nodes, damping),
        combiner=PageRankCombiner if with_combiner else None,
        num_reducers=num_reducers,
        name="pagerank",
        **job_kwargs,
    )


def run_pagerank(
    job: JobConf,
    graph: Sequence[tuple[Any, tuple]],
    iterations: int = 5,
    num_splits: int = 8,
    runner: LocalJobRunner | None = None,
) -> tuple[list[tuple[Any, tuple]], list[JobResult]]:
    """Run ``iterations`` chained PageRank jobs.

    Returns the final ``(node, (rank, neighbors))`` records and the
    per-iteration :class:`~repro.mr.engine.JobResult` list (whose
    counters the experiments aggregate).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    runner = runner if runner is not None else LocalJobRunner()
    records = list(graph)
    results: list[JobResult] = []
    for _ in range(iterations):
        splits = split_records(records, num_splits=num_splits)
        result = runner.run(job, splits)
        results.append(result)
        records = result.output
    return records, results


# -- pipeline port -------------------------------------------------------
def split_graph(
    graph: Sequence[tuple[Any, tuple]]
) -> tuple[list[tuple[Any, list]], list[tuple[Any, float]]]:
    """Split ``(node, (rank, neighbors))`` records into the
    loop-invariant structure dataset and the rank vector."""
    structure = [(node, list(neighbors)) for node, (_, neighbors) in graph]
    ranks = [(node, rank) for node, (rank, _) in graph]
    return structure, ranks


def assemble_records(
    ranks: Sequence[tuple[Any, float]],
    structure: Sequence[tuple[Any, list]],
) -> list[tuple[Any, tuple]]:
    """Join a rank vector with the structure dataset back into the
    job's ``(node, (rank, neighbors))`` input format, in rank order.

    Nodes absent from the structure dataset get an empty adjacency
    list — exactly what the reducer carries for them.
    """
    adjacency = dict(structure)
    return [
        (node, (rank, adjacency.get(node, []))) for node, rank in ranks
    ]


def extract_ranks(
    records: Sequence[tuple[Any, tuple]]
) -> list[tuple[Any, float]]:
    """Project ``(node, (rank, neighbors))`` records to the rank vector."""
    return [(node, rank) for node, (rank, _) in records]


def run_pagerank_pipeline(
    job: JobConf,
    graph: Sequence[tuple[Any, tuple]],
    iterations: int = 5,
    num_splits: int = 8,
    runner: LocalJobRunner | None = None,
    until: Any = None,
) -> tuple[list[tuple[Any, tuple]], PipelineResult]:
    """:func:`run_pagerank` on the pipeline layer.

    The graph is split into the loop-invariant ``structure`` dataset
    (serde-encoded once; every iteration's read is a cache hit) and the
    per-iteration ``ranks`` vector.  Each iteration assembles the job
    input from the two, runs one PageRank job, and extracts the next
    rank vector.  Returns the final ``(node, (rank, neighbors))``
    records — bit-identical to :func:`run_pagerank` — and the
    :class:`~repro.pipeline.result.PipelineResult` whose
    ``job_results()`` mirror the manual loop's per-iteration results.

    ``until`` overrides the fixed iteration count with any policy from
    :mod:`repro.pipeline.convergence` (e.g. a rank-residual threshold).
    """
    if until is None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        until = iterations
    pipeline = Pipeline("pagerank", runner=runner)
    structure_records, rank_records = split_graph(graph)
    structure = pipeline.source("structure", structure_records)
    ranks0 = pipeline.source("ranks", rank_records)

    def body(sub: Pipeline, loop_vars: dict, iteration: int) -> dict:
        assembled = sub.transform(
            "assemble", assemble_records, [loop_vars["ranks"], structure]
        )
        output = sub.mapreduce(
            "pagerank", job, assembled, num_splits=num_splits
        )
        next_ranks = sub.transform("ranks", extract_ranks, output)
        return {"ranks": next_ranks}

    final = pipeline.iterate(
        "iterate", body, {"ranks": ranks0}, until=until
    )
    pipeline.transform(
        "result", assemble_records, [final["ranks"], structure]
    )
    result = pipeline.run()
    return result.dataset("result"), result
