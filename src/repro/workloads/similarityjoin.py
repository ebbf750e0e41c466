"""Set-similarity self-join with prefix filtering (paper Section 1).

The paper lists similarity joins [Vernica et al., SIGMOD 2010; Afrati
et al., ICDE 2012] among the applications that "rely on input
replication in the map phase" and therefore benefit from
Anti-Combining.  This module implements the classic prefix-filtering
kernel of the Vernica et al. algorithm as one MapReduce job:

* Records are token sets (e.g. the words of a title).  Two records
  match when their Jaccard similarity reaches a threshold ``t``.
* **Prefix filter**: order tokens by a global ordering (rarest first in
  the full algorithm; any fixed total order is correct).  Two sets with
  ``J(a, b) >= t`` must share a token among the first
  ``len(x) - ceil(t * len(x)) + 1`` tokens of each — the *prefix*.
* **Map** emits the whole record once per prefix token — replication
  with a common value, the Anti-Combining sweet spot.
* **Reduce** (one call per token) verifies Jaccard over the candidate
  pairs that share the token.  A pair is verified only by its
  *smallest* common prefix token, so every matching pair is emitted
  exactly once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Iterator

from repro.mr.api import Context, Mapper, Reducer
from repro.mr.config import JobConf


def jaccard(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity of two token sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def prefix_length(size: int, threshold: float) -> int:
    """Prefix-filter length for a set of ``size`` tokens."""
    if size == 0:
        return 0
    return size - math.ceil(threshold * size) + 1


class SimilarityJoinMapper(Mapper):
    """Emit ``(token, (record_id, tokens))`` for every prefix token."""

    def __init__(self, threshold: float):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def map(self, record_id: Any, tokens: list, context: Context) -> None:
        ordered = sorted(set(tokens))
        prefix = ordered[: prefix_length(len(ordered), self.threshold)]
        # One value, written under every prefix token.
        shared = (record_id, ordered)
        context.write_all([(token, shared) for token in prefix])


class SimilarityJoinReducer(Reducer):
    """Verify candidate pairs sharing one prefix token."""

    def __init__(self, threshold: float):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def _verifying_token(self, a: list, b: list) -> Any:
        """The smallest token shared by both records' prefixes."""
        prefix_a = set(a[: prefix_length(len(a), self.threshold)])
        prefix_b = set(b[: prefix_length(len(b), self.threshold)])
        common = prefix_a & prefix_b
        return min(common) if common else None

    def reduce(
        self, token: Any, values: Iterator[tuple], context: Context
    ) -> None:
        candidates = [(rid, list(tokens)) for rid, tokens in values]
        candidates.sort(key=lambda item: item[0])
        for i, (id_a, tokens_a) in enumerate(candidates):
            set_a = frozenset(tokens_a)
            for id_b, tokens_b in candidates[i + 1 :]:
                if id_a == id_b:
                    continue
                # emit each pair from exactly one reduce call: the one
                # for the smallest shared prefix token
                if self._verifying_token(tokens_a, tokens_b) != token:
                    continue
                similarity = jaccard(set_a, frozenset(tokens_b))
                if similarity >= self.threshold:
                    context.write(
                        (id_a, id_b), round(similarity, 6)
                    )


def similarity_join_job(
    threshold: float = 0.7,
    num_reducers: int = 8,
    **job_kwargs: Any,
) -> JobConf:
    """A ready-to-run set-similarity self-join job configuration."""
    return JobConf(
        mapper=partial(SimilarityJoinMapper, threshold),
        reducer=partial(SimilarityJoinReducer, threshold),
        num_reducers=num_reducers,
        name="similarity-join",
        **job_kwargs,
    )


def brute_force_similarity_join(
    records: list[tuple[Any, list]], threshold: float
) -> list[tuple[tuple, float]]:
    """Reference implementation for testing: all pairs, no filtering."""
    sets = [(rid, frozenset(tokens)) for rid, tokens in records]
    sets.sort(key=lambda item: item[0])
    result = []
    for i, (id_a, set_a) in enumerate(sets):
        for id_b, set_b in sets[i + 1 :]:
            similarity = jaccard(set_a, set_b)
            if similarity >= threshold:
                result.append(((id_a, id_b), round(similarity, 6)))
    return sorted(result)
