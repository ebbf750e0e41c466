"""Model-based property testing for the Shared structure.

A hypothesis state machine drives an arbitrary interleaving of every
way in (``add``, ``add_group``, ``add_pairs``) and every way out
(``pop_min_key_values``, ``pop_groups``) against three things at once:

* the real :class:`Shared`, with an aggressively small memory budget so
  spills and run merges happen constantly;
* a **twin** ``Shared`` that is fed the same pairs one ``add`` at a time
  and emptied one ``pop_min_key_values`` at a time — the oracle for
  *where* things happen: the batched insert loop must spill on the same
  pair (``anti.shared.spills`` / ``.spilled.bytes`` / ``.spilled.records``
  equal at every step) and every pop must return exactly the twin's;
* a trivial in-memory reference model, the oracle for *what* comes out.

Three machines run it: natural comparators over hashable keys (the
in-frame fast paths), natural comparators over unhashable keys that can
be order-equal without being the same table entry (the grouping-equal
neighbour), and an opaque comparator with a Combiner folding inside
``Shared`` (the generic branches).
"""

from __future__ import annotations

from typing import Any

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.shared import Shared
from repro.mr import counters as C
from repro.mr.api import Combiner, Context
from repro.mr.comparators import Comparator, default_comparator
from repro.mr.counters import Counters
from repro.mr.storage import LocalStore

SPILL_COUNTERS = (
    C.ANTI_SHARED_SPILLS,
    C.ANTI_SHARED_SPILLED_BYTES,
    C.ANTI_SHARED_SPILLED_RECORDS,
)

#: Model keys; each machine turns one into the key it stores.
NUMBERS = st.integers(0, 20)
VALUES = st.one_of(st.integers(-100, 100), st.text(max_size=8), st.none())


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


def _descending(a: Any, b: Any) -> int:
    return (a < b) - (a > b)


class SharedMachine(RuleBasedStateMachine):
    """Natural comparators, hashable keys, no Combiner."""

    comparator = default_comparator
    combiner: type[Combiner] | None = None
    values = VALUES

    @staticmethod
    def key_of(number: int, variant: bool) -> Any:
        return number

    def __init__(self) -> None:
        super().__init__()
        self.shared, self.counters = self._make_shared()
        self.twin, self.twin_counters = self._make_shared()
        #: reference model: number -> values, in insertion order
        self.model: dict[int, list] = {}

    def _make_shared(self) -> tuple[Shared, Counters]:
        counters = Counters()
        combining = self.combiner is not None
        shared = Shared(
            comparator=self.comparator,
            grouping_comparator=self.comparator,
            store=LocalStore(counters),
            counters=counters,
            memory_limit_bytes=96,  # spill every dozen pairs or so
            merge_threshold=2,  # merge runs often
            combiner=self.combiner() if combining else None,
            combine_context=(
                Context(counters, lambda k, v: None) if combining else None
            ),
            combine_batch_size=2,
        )
        return shared, counters

    # -- the model's side ---------------------------------------------------
    def _record(self, pairs: list[tuple[Any, Any]]) -> None:
        for key, value in pairs:
            self.twin.add(key, value)
            number = key[0] if isinstance(key, list) else key
            self.model.setdefault(number, []).append(value)

    def _model_min(self) -> int:
        return self.comparator.min(self.model)

    def _check_group(self, group: tuple[Any, list], twin_group) -> None:
        assert group == twin_group
        key, values = group
        number = self._model_min()
        expected = self.model.pop(number)
        assert key == self.key_of(number, False)
        if self.combiner is None:
            assert sorted(values, key=repr) == sorted(expected, key=repr)
        else:
            assert sum(values) == sum(expected)

    # -- ways in ------------------------------------------------------------
    @rule(number=NUMBERS, variant=st.booleans(), data=st.data())
    def add(self, number, variant, data) -> None:
        key, value = self.key_of(number, variant), data.draw(self.values)
        self.shared.add(key, value)
        self._record([(key, value)])

    @rule(
        numbers=st.lists(st.tuples(NUMBERS, st.booleans()), min_size=1, max_size=6),
        data=st.data(),
    )
    def add_group(self, numbers, data) -> None:
        keys = [self.key_of(number, variant) for number, variant in numbers]
        value = data.draw(self.values)
        self.shared.add_group(keys[0], keys[1:], value)
        self._record([(key, value) for key in keys])

    @rule(
        numbers=st.lists(st.tuples(NUMBERS, st.booleans()), max_size=8),
        same_value=st.booleans(),
        data=st.data(),
    )
    def add_pairs(self, numbers, same_value, data) -> None:
        # ``same_value``: one Map output tuple fanned out to many keys —
        # the very same object in consecutive pairs.
        shared_value = data.draw(self.values)
        pairs = [
            (
                self.key_of(number, variant),
                shared_value if same_value else data.draw(self.values),
            )
            for number, variant in numbers
        ]
        self.shared.add_pairs(pairs)
        self._record(pairs)

    # -- ways out -----------------------------------------------------------
    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self) -> None:
        self._check_group(
            self.shared.pop_min_key_values(), self.twin.pop_min_key_values()
        )

    @rule(bound=NUMBERS, inclusive=st.booleans())
    def pop_groups(self, bound, inclusive) -> None:
        groups = self.shared.pop_groups(self.key_of(bound, False), inclusive)
        cmp = self.comparator.cmp
        for group in groups:
            order = cmp(self._model_min(), bound)
            assert order < 0 or (inclusive and order == 0)
            self._check_group(group, self.twin.pop_min_key_values())
        if self.model:
            order = cmp(self._model_min(), bound)
            assert order > 0 or (order == 0 and not inclusive)

    # -- at every step --------------------------------------------------------
    @invariant()
    def peek_matches_model(self) -> None:
        if self.model:
            expected = self.key_of(self._model_min(), False)
            assert self.shared.peek_min_key() == expected
            assert not self.shared.is_empty()
        else:
            assert self.shared.peek_min_key() is None
            assert self.shared.is_empty()
        assert self.shared.idle == self.shared.is_empty()

    @invariant()
    def spills_where_the_twin_spills(self) -> None:
        for name in SPILL_COUNTERS:
            assert self.counters.get_int(name) == self.twin_counters.get_int(
                name
            ), name
        assert len(self.shared) == len(self.twin)


class NeighbourMachine(SharedMachine):
    """Unhashable keys: ``[n]`` and ``[float(n)]`` are order-equal (one
    group) yet two table entries — heap neighbours."""

    @staticmethod
    def key_of(number: int, variant: bool) -> Any:
        return [float(number)] if variant else [number]


class GenericMachine(SharedMachine):
    """An opaque (descending) comparator and a Combiner folding inside
    ``Shared`` every second value: the generic branches."""

    comparator = Comparator(_descending, name="opaque-descending")
    combiner = _SumCombiner
    values = st.integers(-100, 100)


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestSharedStateMachine = SharedMachine.TestCase
TestSharedStateMachine.settings = _SETTINGS
TestSharedNeighbourMachine = NeighbourMachine.TestCase
TestSharedNeighbourMachine.settings = _SETTINGS
TestSharedGenericMachine = GenericMachine.TestCase
TestSharedGenericMachine.settings = _SETTINGS
