"""Key comparators and grouping comparators.

Hadoop sorts reduce input with a *sort comparator* and decides which
consecutive keys belong to the same Reduce call with a *grouping
comparator* (used, e.g., for secondary sort).  The paper's ``Shared``
structure must honour both (Section 6.1), so the substrate models them
explicitly.

A comparator is any object with a ``cmp(a, b) -> int`` method returning
a negative / zero / positive integer.  :meth:`Comparator.record_key` is
the one place that turns a comparator into the cheapest ``key=`` for
:func:`sorted`, :func:`min` and group-boundary tests; no other code
outside ``Shared``'s heap asks what kind of order it is under.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Any, Callable

from repro.mr import serde


class Comparator:
    """Comparator built from a two-argument ``cmp``-style function.

    ``is_natural`` marks the comparator as equivalent to Python's
    native ordering: the key itself is then its sort key.
    ``orders_by_encoded_bytes`` marks a comparator whose order is
    exactly the lexicographic order of ``serde.encode(key)``: the
    encoded key is then the sort key.  Either spares a Python ``cmp``
    call per comparison (see :meth:`record_key`).
    """

    def __init__(
        self,
        cmp_fn: Callable[[Any, Any], int],
        name: str = "custom",
        is_natural: bool = False,
        orders_by_encoded_bytes: bool = False,
    ):
        self._cmp_fn = cmp_fn
        self.name = name
        self.is_natural = is_natural
        self.orders_by_encoded_bytes = orders_by_encoded_bytes

    def cmp(self, a: Any, b: Any) -> int:
        return self._cmp_fn(a, b)

    def record_key(self, field: int = 0) -> Callable[[Any], Any]:
        """The cheapest ``key=`` ordering records by their item at
        ``field``.

        ``itemgetter(field)`` under natural order (no Python frame per
        record), ``serde.encode(record[field])`` under
        ``orders_by_encoded_bytes``, a ``cmp_to_key`` wrapper otherwise.
        Comparing two such keys with ``<`` and ``>`` gives the sign of
        ``cmp``, so ``not (a < b or a > b)`` is exactly ``cmp == 0``:
        one loop sorts, merges, takes minima and finds group bounds
        under any comparator.
        """
        if self.is_natural:
            return itemgetter(field)
        if self.orders_by_encoded_bytes:
            encode = serde.encode
            return lambda record: encode(record[field])
        key_fn = self.key_fn()
        return lambda record: key_fn(record[field])

    def min(self, items):
        """Return the minimum of ``items`` under this comparator."""
        if self.is_natural:
            return min(items)
        return min(items, key=self.key_fn())

    def sorted(self, items) -> list:
        """Return ``items`` sorted ascending under this comparator."""
        if self.is_natural:
            return sorted(items)
        return sorted(items, key=self.key_fn())

    def key_fn(self) -> Callable[[Any], Any]:
        """A ``key=`` adapter for :func:`sorted` / ``heapq``."""
        return functools.cmp_to_key(self.cmp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Comparator({self.name})"


def _natural_cmp(a: Any, b: Any) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _raw_bytes_cmp(a: Any, b: Any) -> int:
    return _natural_cmp(serde.encode(a), serde.encode(b))


#: Natural Python ordering (requires mutually comparable keys).
default_comparator = Comparator(_natural_cmp, name="natural", is_natural=True)

#: Hadoop-style comparison of the serialised byte representation.  Works
#: for mixed key types that are not mutually comparable in Python.
raw_bytes_comparator = Comparator(
    _raw_bytes_cmp, name="raw-bytes", orders_by_encoded_bytes=True
)


def comparator_from_key(key_fn: Callable[[Any], Any], name: str = "keyed") -> Comparator:
    """Build a comparator that compares ``key_fn(a)`` with ``key_fn(b)``.

    Useful for grouping comparators, e.g. secondary sort where the
    grouping key is a prefix of the composite sort key.  The comparator
    pickles whenever ``key_fn`` does (e.g. ``operator.itemgetter(0)``),
    so its job can run on a process pool.
    """
    return Comparator(functools.partial(_keyed_cmp, key_fn), name=name)


def _keyed_cmp(key_fn: Callable[[Any], Any], a: Any, b: Any) -> int:
    return _natural_cmp(key_fn(a), key_fn(b))

