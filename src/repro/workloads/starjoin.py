"""Multi-way (chain) join with the Afrati–Ullman "Shares" hash cube.

The paper's Section 1 cites multi-way join processing [Afrati & Ullman,
EDBT 2010] as an application that "relies on input replication in the
map phase".  This module implements their one-job 3-way chain join

    R(a, b) JOIN S(b, c) JOIN T(c, d)

over a grid of reducers: each reduce task owns one cell ``(i, j)`` of
an ``m x n`` cube, where ``i`` hashes the shared attribute ``b`` and
``j`` hashes ``c``:

* an S-tuple goes to exactly one cell ``(h(b), h(c))``;
* an R-tuple, which knows ``b`` but not ``c``, is replicated across the
  whole row ``(h(b), *)`` — ``n`` copies of the same value;
* a T-tuple is replicated down the column ``(*, h(c))`` — ``m`` copies.

Every joined triple is produced in exactly one cell, so no
deduplication is needed.  The row/column replication of identical
values is precisely the EagerSH/LazySH opportunity.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.mr.api import (
    Context,
    Mapper,
    Partitioner,
    Reducer,
    stable_hash,
)
from repro.mr.config import JobConf

R_TAG = "R"
S_TAG = "S"
T_TAG = "T"


class StarJoinMapper(Mapper):
    """Route each tagged tuple to its cube cell(s).

    Input records are ``(record_id, (relation_tag, tuple))`` where the
    relation tag is one of ``"R"``, ``"S"``, ``"T"`` and tuples are
    ``(a, b)``, ``(b, c)``, ``(c, d)`` respectively.
    """

    def __init__(self, b_shares: int, c_shares: int):
        if b_shares < 1 or c_shares < 1:
            raise ValueError("shares must be >= 1")
        self.b_shares = b_shares
        self.c_shares = c_shares

    def map(self, key: Any, record: tuple, context: Context) -> None:
        tag, payload = record
        payload = tuple(payload)
        cols = self.c_shares
        if tag == R_TAG:
            # One tagged copy, written to every cell of its row.
            first = (stable_hash(payload[1]) % self.b_shares) * cols
            copy = (R_TAG, payload)
            context.write_all([(first + c, copy) for c in range(cols)])
        elif tag == S_TAG:
            row = stable_hash(payload[0]) % self.b_shares
            col = stable_hash(payload[1]) % cols
            context.write(row * cols + col, (S_TAG, payload))
        elif tag == T_TAG:
            # One tagged copy, written to every cell of its column.
            col = stable_hash(payload[0]) % cols
            copy = (T_TAG, payload)
            context.write_all(
                [(r * cols + col, copy) for r in range(self.b_shares)]
            )
        else:
            raise ValueError(f"unknown relation tag: {tag!r}")


class CellPartitioner(Partitioner):
    """Cube cells round-robin over reduce tasks."""

    def get_partition(self, cell: int, num_partitions: int) -> int:
        return cell % num_partitions


class StarJoinReducer(Reducer):
    """Join one cell's R, S and T fragments on b and c."""

    def reduce(
        self, cell: int, values: Iterator[tuple], context: Context
    ) -> None:
        r_by_b: dict[Any, list] = {}
        s_tuples: list[tuple] = []
        t_by_c: dict[Any, list] = {}
        for tag, payload in values:
            payload = tuple(payload)
            if tag == R_TAG:
                r_by_b.setdefault(payload[1], []).append(payload)
            elif tag == S_TAG:
                s_tuples.append(payload)
            else:
                t_by_c.setdefault(payload[0], []).append(payload)
        for b, c in s_tuples:
            for a, _ in r_by_b.get(b, ()):
                for _, d in t_by_c.get(c, ()):
                    context.write((a, b, c, d), None)


def star_join_job(
    b_shares: int = 4,
    c_shares: int = 4,
    num_reducers: int = 8,
    **job_kwargs: Any,
) -> JobConf:
    """A ready-to-run 3-way chain-join job configuration."""
    return JobConf(
        mapper=partial(StarJoinMapper, b_shares, c_shares),
        reducer=StarJoinReducer,
        partitioner=CellPartitioner(),
        num_reducers=num_reducers,
        name="star-join",
        **job_kwargs,
    )


def brute_force_star_join(
    records: list[tuple[Any, tuple]]
) -> list[tuple]:
    """Reference implementation: nested loops over R, S, T."""
    r = [tuple(p) for _, (tag, p) in records if tag == R_TAG]
    s = [tuple(p) for _, (tag, p) in records if tag == S_TAG]
    t = [tuple(p) for _, (tag, p) in records if tag == T_TAG]
    return sorted(
        (a, b, c, d)
        for (b2, c2) in s
        for (a, b) in r
        if b == b2
        for (c, d) in t
        if c == c2
    )
