"""A noise-free budget for the bypass: extra calls per record on Sort.

``adaptive_vs_original_wall_x`` on the e2e benchmark's
``sort_passthrough`` workload is the number the paper's Section 7.1
claim is judged by, and it moves by a few percent run to run.  The
number of interpreter calls the AdaptiveSH job makes over the original
does not move at all, so that is what the tier-1 suite holds: Sort emits
one record per Map call and has nothing to share, every extra call is
overhead, and the PLAIN lane (DESIGN.md §8) keeps it to a fixed handful
per record.  ``tools/bypass_calls.py`` prints the same table.
"""

from __future__ import annotations

import importlib.util
import pathlib
from typing import Any, Iterator

from repro.datagen import generate_random_text
from repro.mr.api import Context, Mapper, Reducer
from repro.mr.config import JobConf

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bypass_calls.py"
_spec = importlib.util.spec_from_file_location("bypass_calls", _TOOL)
bypass_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bypass_calls)

#: Extra calls per Map input record AdaptiveSH may make on Sort.  36.0
#: before the PLAIN lane; the lane itself needs 11.
BUDGET = 16

#: The same on Query-Suggestion (Fig. 9), where nearly every record is
#: shared and the count is what encode, decode and ``Shared`` cost in
#: frames: 219.45 while every decoded pair entered ``Shared`` through a
#: call of its own and every drained group left through five; 124.92
#: with one insert loop per batch and one pop call per drain; 120.20
#: once the difference credited Original's savings too; 77.78 (80.03 at
#: 2,000 lines) with one partition memo per partitioner and process,
#: where every task had asked each of its keys afresh.
SHARING_BUDGET = 90


def test_sort_stays_within_the_call_budget() -> None:
    small_total, small = bypass_calls.extra_calls("sort", num_lines=2000)
    large_total, large = bypass_calls.extra_calls("sort", num_lines=4000)
    report = "\n".join(
        f"--- {lines} lines ---\n" + bypass_calls.format_table(total, table)
        for lines, total, table in (
            (2000, small_total, small),
            (4000, large_total, large),
        )
    )
    assert small_total <= BUDGET and large_total <= BUDGET, report

    # Per record means per record: the table is the same at both sizes
    # (what is paid per task or per job rounds away).
    def per_record(table: dict[str, float]) -> dict[str, int]:
        return {
            label: round(calls)
            for label, calls in table.items()
            if round(calls)
        }

    assert per_record(small) == per_record(large), report
    assert round(small_total) == round(large_total), report


def test_query_suggestion_stays_within_the_call_budget() -> None:
    """The sharing path's budget (DESIGN.md §8, *sharing path*)."""
    small_total, small = bypass_calls.extra_calls(
        "query_suggestion", num_lines=2000
    )
    large_total, large = bypass_calls.extra_calls(
        "query_suggestion", num_lines=4000
    )
    report = "\n".join(
        f"--- {lines} lines ---\n" + bypass_calls.format_table(total, table)
        for lines, total, table in (
            (2000, small_total, small),
            (4000, large_total, large),
        )
    )
    assert small_total <= SHARING_BUDGET, report
    assert large_total <= SHARING_BUDGET, report
    # Per record means per record.  How many pairs a query fans out to
    # is the log's shape, not its length, so unlike Sort's the table is
    # the same only to within a call per record per function.
    moved = {
        label: (small.get(label, 0.0), large.get(label, 0.0))
        for label in set(small) | set(large)
        if abs(small.get(label, 0.0) - large.get(label, 0.0)) > 1.0
    }
    assert not moved, f"{moved}\n{report}"


class _TallyMapper(Mapper):
    def map(self, key: Any, line: str, context: Context) -> None:
        for word in line.split():
            context.write(word, {"n": 1})


class _TallyReducer(Reducer):
    """Two dict-valued records per key: ``sorted(output)`` would have to
    order dicts to break the tie."""

    def reduce(
        self, key: Any, values: Iterator[dict], context: Context
    ) -> None:
        context.write(key, {"n": sum(value["n"] for value in values)})
        context.write(key, {"seen": True})


def test_extra_calls_compares_outputs_that_do_not_order(monkeypatch) -> None:
    monkeypatch.setitem(
        bypass_calls.JOBS,
        "tally",
        (
            lambda: JobConf(
                mapper=_TallyMapper,
                reducer=_TallyReducer,
                num_reducers=2,
                name="tally",
            ),
            lambda n, seed: generate_random_text(n, seed=seed),
        ),
    )
    total, table = bypass_calls.extra_calls("tally", num_lines=50)
    assert total > 0 and table
