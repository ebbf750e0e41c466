"""Query-Suggestion: the paper's running example (Section 2).

For every string ``P`` that occurs as a prefix of some logged query,
compute the ``k`` most frequent queries starting with ``P``:

* **Map** emits ``(P, Q)`` for every prefix ``P`` of query ``Q`` — so a
  query of length ``n`` produces ``n`` output records all sharing the
  same value, the classic Anti-Combining opportunity (quadratic Map
  output in the input size).
* **Reduce** counts the queries arriving for one prefix and emits the
  top ``k``.
* The optional **Combiner** (Section 7.3) replaces the ``m``
  occurrences of each distinct query in a prefix group with a frequency
  map ``{query: m}`` — a single output record per group, which is what
  lets ``Shared`` combine values in the reduce phase (Table 2's
  ``-CB`` rows).

Three partitioners from Section 7.2 are provided: the standard hash
partitioner (use :class:`repro.mr.api.HashPartitioner`), and
:class:`PrefixPartitioner` with prefix length 1 ("Prefix-1", maximal
sharing) or 5 ("Prefix-5", sharing with more parallelism).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.mr.api import (
    Combiner,
    Context,
    Mapper,
    Partitioner,
    Reducer,
    stable_hash,
)
from repro.mr.config import JobConf


#: Per-process memo of a query's prefix expansion.  Query logs repeat
#: queries heavily (the Zipf head, and every job of a multi-job
#: experiment replays the same log), so the ``(prefix, query)`` runs —
#: and, importantly, the *same prefix string objects* with their cached
#: hashes — are built once per distinct query.
_PREFIX_PAIRS: dict[str, tuple] = {}
_PREFIX_PAIRS_LIMIT = 1 << 15


class QuerySuggestionMapper(Mapper):
    """Emit ``(prefix, query)`` for every prefix of the query."""

    def map(self, key: Any, query: str, context: Context) -> None:
        pairs = _PREFIX_PAIRS.get(query)
        if pairs is None:
            pairs = tuple(
                (query[:end], query) for end in range(1, len(query) + 1)
            )
            if len(_PREFIX_PAIRS) >= _PREFIX_PAIRS_LIMIT:
                _PREFIX_PAIRS.clear()
            _PREFIX_PAIRS[query] = pairs
        context.write_all(pairs)


def _merge_counts(values: Iterator[Any]) -> dict:
    """Fold raw query strings and ``{query: m}`` maps into one dict.

    A plain dict with ``get`` beats ``collections.Counter`` here:
    Counter's missing-key path costs a ``__missing__`` call per new
    query, and this fold runs once per reduce group.
    """
    counts: dict = {}
    get = counts.get
    for value in values:
        if isinstance(value, dict):
            for query, count in value.items():
                counts[query] = get(query, 0) + count
        else:
            counts[value] = get(value, 0) + 1
    return counts


class QuerySuggestionCombiner(Combiner):
    """Replace repeated queries in a group with one frequency map."""

    def reduce(self, key: Any, values: Iterator[Any], context: Context) -> None:
        context.write(key, _merge_counts(values))


class QuerySuggestionReducer(Reducer):
    """Emit the top-``k`` most frequent queries for each prefix.

    Ties are broken lexicographically so the job output is fully
    deterministic, regardless of value arrival order.
    """

    def __init__(self, k: int = 5):
        self.k = k

    def reduce(self, key: Any, values: Iterator[Any], context: Context) -> None:
        counts = _merge_counts(values)
        if len(counts) == 1:
            # The common case by far (most prefixes see one distinct
            # query): no ordering to compute.
            context.write(key, list(counts))
            return
        # Two stable sorts give (count desc, query asc) without a
        # per-item key tuple: lexicographic first, then by count with
        # ``reverse=True`` (which keeps equal counts in lexicographic
        # order — ``reverse`` does not disturb stability).
        top = sorted(counts)
        top.sort(key=counts.__getitem__, reverse=True)
        context.write(key, top[: self.k])


class PrefixPartitioner(Partitioner):
    """Partition on the first ``prefix_len`` characters of the key.

    With ``prefix_len = 1`` every prefix of a query lands in the same
    reduce task (maximal sharing); ``prefix_len = 5`` trades some
    sharing on very short prefixes for more distinct partitions.
    """

    def __init__(self, prefix_len: int):
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        self.prefix_len = prefix_len

    def get_partition(self, key: str, num_partitions: int) -> int:
        return stable_hash(key[: self.prefix_len]) % num_partitions


def query_suggestion_job(
    num_reducers: int = 8,
    k: int = 5,
    partitioner: Partitioner | None = None,
    with_combiner: bool = False,
    **job_kwargs: Any,
) -> JobConf:
    """A ready-to-run Query-Suggestion job configuration."""
    return JobConf(
        mapper=QuerySuggestionMapper,
        reducer=partial(QuerySuggestionReducer, k=k),
        combiner=QuerySuggestionCombiner if with_combiner else None,
        partitioner=partitioner
        if partitioner is not None
        else PrefixPartitioner(5),
        num_reducers=num_reducers,
        name="query-suggestion",
        **job_kwargs,
    )
