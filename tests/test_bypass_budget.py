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

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bypass_calls.py"
_spec = importlib.util.spec_from_file_location("bypass_calls", _TOOL)
bypass_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bypass_calls)

#: Extra calls per Map input record AdaptiveSH may make on Sort.  36.0
#: before the PLAIN lane; the lane itself needs 11.
BUDGET = 16


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
