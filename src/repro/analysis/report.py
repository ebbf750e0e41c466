"""Tabular reporting for the per-table/figure experiment drivers.

Every experiment returns an :class:`ExperimentResult`: the paper
artefact it reproduces, ordered rows of named columns, and free-form
notes (e.g. the paper's reference factors).  ``table()`` renders the
rows the way ``repro run`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


def human_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary-unit suffix."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.2f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def reduction_factor(original: float, optimized: float) -> float:
    """How many times smaller/cheaper ``optimized`` is vs ``original``."""
    if optimized <= 0:
        return float("inf") if original > 0 else 1.0
    return original / optimized


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text aligned table (first column left, rest right)."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts)

    lines = [fmt_row(list(headers))]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """The outcome of one table/figure reproduction."""

    #: Paper artefact id, e.g. "Figure 9" or "Table 2".
    artifact: str
    title: str
    headers: list[str]
    rows: list[dict[str, Any]]
    #: Free-form observations (measured factors, paper reference values).
    notes: dict[str, Any] = field(default_factory=dict)

    def table(self) -> str:
        """Render the rows as an aligned plain-text table."""
        body = [
            [row.get(header, "") for header in self.headers]
            for row in self.rows
        ]
        return format_table(self.headers, body)

    def report(self) -> str:
        """Full report: heading, table, and notes."""
        lines = [f"== {self.artifact}: {self.title} ==", self.table()]
        if self.notes:
            lines.append("")
            for key, value in self.notes.items():
                lines.append(f"  {key}: {_render_cell(value)}")
        return "\n".join(lines)

    def column(self, header: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(header) for row in self.rows]

    def row_by(self, header: str, value: Any) -> dict[str, Any]:
        """The first row whose ``header`` column equals ``value``."""
        for row in self.rows:
            if row.get(header) == value:
                return row
        raise KeyError(f"no row with {header}={value!r}")
