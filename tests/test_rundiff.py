"""Tests for ``repro runs ls/show/diff`` and the rundiff renderers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.rundiff import (
    render_diff,
    render_run,
    runs_table,
)
from repro.cli import main
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    set_flight_recorder,
)
from repro.obs.metrics import validate_prometheus_text
from repro.obs.run_store import COMPLETED, RunStore
from repro.obs.server import render_metrics
from repro.workloads.wordcount import wordcount_job


def _record_wordcount(store: RunStore, num_lines: int) -> str:
    recorder = FlightRecorder(store, kind="experiment", name="wc")
    set_flight_recorder(recorder)
    try:
        lines = [(i, f"alpha beta {i % 3}") for i in range(num_lines)]
        job = wordcount_job(num_reducers=2, cost_meter=FixedCostMeter())
        LocalJobRunner().run(job, split_records(lines, num_splits=2))
    finally:
        clear_flight_recorder()
    return recorder.finalize(COMPLETED)


class TestRenderers:
    def test_empty_ledger_table(self) -> None:
        assert "empty ledger" in runs_table([])

    def test_runs_table_lists_runs(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run_id = _record_wordcount(store, 30)
        table = runs_table(store.load_all())
        assert run_id in table
        assert "completed" in table
        # A ledger written while `kind: bench` runs existed still reads
        # everywhere: the kind is a manifest string and `bench.*` a
        # counters dict — nothing keys on either.
        counters = {"bench.executor.oob.speedup": 16.5}
        legacy = store.create(
            {"schema": 1, "kind": "bench", "name": "bench-quick",
             "params": {"quick": True, "suites": []}, "argv": None}
        )
        store.append_row(
            legacy.run_id,
            "entries.jsonl",
            {"index": 0, "kind": "bench", "name": "executor.oob",
             "counters": counters, "derived": {}, "repeats": 3},
        )
        (legacy.path / "counters.json").write_text(
            json.dumps({"schema": 1, "counters": counters})
        )
        store.write_status(legacy.run_id, {"status": COMPLETED, "entries": 1})
        record = store.load(legacy.run_id)
        row = next(
            line
            for line in runs_table(store.load_all()).splitlines()
            if line.startswith(legacy.run_id)
        )
        assert row.split()[1:5] == ["bench", "bench-quick", "completed", "1"]
        assert "bench.executor.oob.speedup" in render_run(record)
        assert "bench.executor.oob.speedup" in render_diff(
            store.load(run_id), record
        )
        assert record.summary()["kind"] == "bench"  # GET /runs
        families = validate_prometheus_text(render_metrics(store))
        assert families["bench_executor_oob_speedup"]["samples"][0][2] == 16.5

    def test_render_run_sections(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run_id = _record_wordcount(store, 30)
        report = render_run(store.load(run_id))
        assert f"run {run_id}" in report
        assert "wordcount" in report
        assert "map.input.records" in report
        assert "replication" in report

    def test_render_running_run(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run = store.create({"kind": "experiment", "name": "live"})
        report = render_run(store.load(run.run_id))
        assert "still in flight" in report

    def test_diff_identical_runs(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        a = _record_wordcount(store, 30)
        b = _record_wordcount(store, 30)
        report = render_diff(store.load(a), store.load(b))
        assert "counters: identical" in report

    def test_diff_reports_moved_counters(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        a = _record_wordcount(store, 30)
        b = _record_wordcount(store, 60)
        report = render_diff(store.load(a), store.load(b))
        assert "map.input.records" in report
        assert "2.000x" in report  # 60 / 30 input records

    def test_diff_includes_phase_breakdown(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        a = _record_wordcount(store, 30)
        b = _record_wordcount(store, 60)
        report = render_diff(store.load(a), store.load(b))
        # Recorded runs carry spans, so the wall-clock phase section
        # (nondeterministic seconds: always a diff) is present.
        assert "per-phase span seconds" in report
        assert "map.phase.map" in report


class TestRunsCli:
    def test_ls_show_diff(self, capsys, tmp_path) -> None:
        store = RunStore(tmp_path)
        a = _record_wordcount(store, 30)
        b = _record_wordcount(store, 60)

        assert main(["runs", "ls", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out

        assert (
            main(["runs", "show", a, "--runs-dir", str(tmp_path)]) == 0
        )
        assert "map.input.records" in capsys.readouterr().out

        assert (
            main(["runs", "diff", a, b, "--runs-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "map.input.records" in out

    def test_show_unknown_run_exits_2(self, capsys, tmp_path) -> None:
        assert (
            main(["runs", "show", "zzz", "--runs-dir", str(tmp_path)])
            == 2
        )
        assert "no run matching" in capsys.readouterr().err

    def test_show_ambiguous_prefix_exits_2(
        self, capsys, tmp_path
    ) -> None:
        store = RunStore(tmp_path)
        store.create({"kind": "t", "name": "a", "started_unix": 1.0})
        store.create({"kind": "t", "name": "b", "started_unix": 1.0})
        assert (
            main(
                ["runs", "show", "19700101", "--runs-dir", str(tmp_path)]
            )
            == 2
        )
        assert "ambiguous" in capsys.readouterr().err

    def test_ls_empty_ledger(self, capsys, tmp_path) -> None:
        assert main(["runs", "ls", "--runs-dir", str(tmp_path)]) == 0
        assert "empty ledger" in capsys.readouterr().out
