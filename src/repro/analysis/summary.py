"""Aggregate persisted benchmark reports into one document.

Every benchmark writes its reproduced table to
``benchmarks/results/<driver>.txt``; this module collects them into a
single summary (the raw material for EXPERIMENTS.md), in a stable
order that follows the paper's evaluation section.
"""

from __future__ import annotations

import pathlib

#: Preferred presentation order; unknown reports sort after these.
_ORDER = [
    "run_fig9",
    "run_fig10",
    "run_table1",
    "run_table2",
    "run_fig11",
    "run_sec71",
    "run_wordcount_experiment",
    "run_pagerank_experiment",
    "run_fig12",
    "run_similarity_join_experiment",
    "run_multiquery_experiment",
    "run_hits_experiment",
    "run_star_join_experiment",
    "run_knn_join_experiment",
    "run_ablation_skew",
    "run_ablation_record_percent",
]


def collect_reports(results_dir: pathlib.Path) -> dict[str, str]:
    """Read every persisted report; returns ``{driver_name: text}``."""
    results_dir = pathlib.Path(results_dir)
    if not results_dir.is_dir():
        return {}
    return {
        path.stem: path.read_text().rstrip()
        for path in sorted(results_dir.glob("*.txt"))
    }


def _sort_key(name: str) -> tuple[int, str]:
    try:
        return _ORDER.index(name), name
    except ValueError:
        return len(_ORDER), name


def render_summary(reports: dict[str, str]) -> str:
    """One document with every report, in evaluation-section order."""
    if not reports:
        return (
            "No benchmark results found.\n"
            "Run `pytest benchmarks/ --benchmark-only` first.\n"
        )
    sections = [
        reports[name] for name in sorted(reports, key=_sort_key)
    ]
    header = (
        "# Reproduced results\n"
        f"# {len(sections)} experiments "
        "(regenerate with: pytest benchmarks/ --benchmark-only)\n"
    )
    return header + "\n" + "\n\n".join(sections) + "\n"


def write_summary(
    results_dir: pathlib.Path, out_path: pathlib.Path
) -> str:
    """Render and persist the summary; returns the rendered text."""
    text = render_summary(collect_reports(results_dir))
    out_path = pathlib.Path(out_path)
    out_path.write_text(text)
    return text
