"""The in-mapper combining design pattern under Anti-Combining.

Paper Section 1 notes that the limitations of Combiners "also apply to
the in-mapper combining design pattern [Lin & Dyer]": the mapper
aggregates in task-local state and emits from ``cleanup``.  The
AntiMapper must pass such out-of-call emissions through (as PLAIN
records, since they have no per-call sharing context) without losing or
reordering anything.
"""

from __future__ import annotations

from collections import Counter as PyCounter

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr import counters as C
from repro.mr.api import Context, Mapper, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records


class InMapperCombiningWordCount(Mapper):
    """The classic pattern: aggregate per task, emit at cleanup."""

    def setup(self, context: Context) -> None:
        self._counts: PyCounter = PyCounter()

    def map(self, key, line: str, context: Context) -> None:
        self._counts.update(line.split())

    def cleanup(self, context: Context) -> None:
        for word, count in sorted(self._counts.items()):
            context.write(word, count)


class SumReducer(Reducer):
    def reduce(self, key, values, context: Context) -> None:
        context.write(key, sum(values))


LINES = [
    "the quick brown fox",
    "the lazy dog and the quick cat",
    "a dog and a fox",
]


def _expected() -> dict[str, int]:
    counts: PyCounter = PyCounter()
    for line in LINES:
        counts.update(line.split())
    return dict(counts)


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=InMapperCombiningWordCount,
        reducer=SumReducer,
        num_reducers=3,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


def _splits():
    return split_records(list(enumerate(LINES)), num_splits=2)


class TestInMapperCombining:
    def test_pattern_works_on_plain_engine(self) -> None:
        result = LocalJobRunner().run(_job(), _splits())
        assert dict(result.output) == _expected()

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_passes_cleanup_emissions(self, strategy) -> None:
        anti = enable_anti_combining(_job(), strategy=strategy)
        result = LocalJobRunner().run(anti, _splits())
        assert dict(result.output) == _expected()

    def test_cleanup_emissions_are_plain_tagged(self) -> None:
        anti = enable_anti_combining(_job())
        result = LocalJobRunner().run(anti, _splits())
        counters = result.counters
        # the mapper emits nothing during map(); everything surfaces at
        # cleanup, so every record must be PLAIN (no sharing context)
        assert counters.get_int(C.ANTI_PLAIN_RECORDS) == (
            result.map_output_records
        )
        assert counters.get_int(C.ANTI_EAGER_RECORDS) == 0
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 0
