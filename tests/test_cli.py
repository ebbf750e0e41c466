"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import EXPERIMENTS, _argv_params, _extract_runner_flags, main
from repro.experiments import resolve_params, run_fig9, tunable_params
from repro.mr.executor import default_jobs, set_default_jobs


class TestRegistry:
    def test_every_entry_is_callable(self) -> None:
        for name, (fn, description) in EXPERIMENTS.items():
            assert callable(fn), name
            assert description

    def test_names_are_cli_friendly(self) -> None:
        for name in EXPERIMENTS:
            assert " " not in name
            assert name == name.lower()


def _parse_argv(pairs: list[str]) -> dict:
    """What ``repro run fig9 <pairs>`` hands the driver."""
    return resolve_params(run_fig9, _argv_params(pairs))


class TestParamParsing:
    def test_tunable_params(self) -> None:
        params = tunable_params(run_fig9)
        assert params["num_queries"] == 6000
        assert params["num_reducers"] == 8

    def test_convert_types(self) -> None:
        def driver(n=0, rate=0.0, label="default", on=False, off=True):
            return None

        assert resolve_params(
            driver,
            {"n": "42", "rate": "2.5", "label": "text", "on": "true",
             "off": "off"},
        ) == {"n": 42, "rate": 2.5, "label": "text", "on": True,
              "off": False}

    def test_convert_bad_bool(self) -> None:
        with pytest.raises(ValueError):
            resolve_params(lambda on=True: None, {"on": "maybe"})

    def test_parse_overrides(self) -> None:
        overrides = _parse_argv(["--num-queries", "100", "--seed", "7"])
        assert overrides == {"num_queries": 100, "seed": 7}

    def test_parse_overrides_equals_form(self) -> None:
        overrides = _parse_argv(["--num-queries=100", "--seed", "7"])
        assert overrides == {"num_queries": 100, "seed": 7}

    def test_unknown_param(self) -> None:
        with pytest.raises(ValueError, match="unknown parameter"):
            _parse_argv(["--bogus", "1"])

    def test_unknown_param_lists_tunables(self) -> None:
        with pytest.raises(ValueError, match="--num-queries"):
            _parse_argv(["--bogus=1"])

    def test_bad_value_names_the_flag(self) -> None:
        with pytest.raises(ValueError, match="--num-queries"):
            _parse_argv(["--num-queries", "lots"])

    def test_missing_value(self) -> None:
        with pytest.raises(ValueError, match="missing value"):
            _parse_argv(["--num-queries"])

    def test_not_a_flag(self) -> None:
        with pytest.raises(ValueError, match="expected --param"):
            _parse_argv(["num-queries", "1"])


class TestJobsFlag:
    def test_extract_runner_flags(self) -> None:
        flags, rest = _extract_runner_flags(
            ["--num-queries", "100", "-j", "4", "--seed", "7"]
        )
        assert flags.jobs == 4
        assert rest == ["--num-queries", "100", "--seed", "7"]
        flags, rest = _extract_runner_flags(["--jobs", "2"])
        assert (flags.jobs, rest) == (2, [])
        flags, rest = _extract_runner_flags(["--num-queries", "100"])
        assert flags.jobs is None
        assert rest == ["--num-queries", "100"]

    def test_extract_trace_flag(self, capsys) -> None:
        """``run --trace`` is gone (a recorded run is traced after the
        fact): the flag is no runner flag, so it reaches the experiment
        as an unknown parameter — in either position."""
        _, rest = _extract_runner_flags(["--trace", "out.json"])
        assert rest == ["--trace", "out.json"]
        assert main(["run", "fig9", "--trace", "out.json"]) == 2
        assert "unknown parameter '--trace'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as usage:
            main(["run", "--trace", "out.json", "fig9"])
        assert usage.value.code == 2

    def test_extract_record_flags(self) -> None:
        flags, rest = _extract_runner_flags(
            ["--record", "--runs-dir", "ledger", "--seed", "7"]
        )
        assert flags.record is True
        assert flags.runs_dir == "ledger"
        assert rest == ["--seed", "7"]
        flags, rest = _extract_runner_flags(["--runs-dir=ledger"])
        assert (flags.record, flags.runs_dir, rest) == (False, "ledger", [])
        flags, _ = _extract_runner_flags(["--seed", "7"])
        assert flags.record is False
        assert flags.runs_dir is None

    def test_extract_jobs_flag_missing_value(self) -> None:
        with pytest.raises(ValueError, match="missing value"):
            _extract_runner_flags(["-j"])

    def test_run_with_jobs_installs_override(self, capsys) -> None:
        try:
            status = main(
                [
                    "run",
                    "sec71",
                    "-j",
                    "2",
                    "--num-lines",
                    "120",
                    "--num-reducers",
                    "2",
                    "--num-splits",
                    "2",
                ]
            )
            assert status == 0
            assert default_jobs() == 2
            assert "Section 7.1" in capsys.readouterr().out
        finally:
            set_default_jobs(None)


class TestCommands:
    def test_list(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_small_experiment(self, capsys) -> None:
        status = main(
            [
                "run",
                "sec71",
                "--num-lines",
                "120",
                "--num-reducers",
                "2",
                "--num-splits",
                "2",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "Section 7.1" in out

    def test_run_unknown(self, capsys) -> None:
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_bad_override(self, capsys) -> None:
        assert main(["run", "sec71", "--bogus", "1"]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "tunable parameters" in err
        assert "--num-lines" in err

    def test_run_all_rejects_overrides(self, capsys) -> None:
        assert main(["run", "all", "--num-lines", "120"]) == 2
        assert "do not apply to 'run all'" in capsys.readouterr().err

    def test_bench_subcommand_is_gone(self, capsys) -> None:
        """BENCHMARK.json is the only timed gate and `repro run` the only
        way to regenerate a table: the retired micro-benchmark and
        report-summary commands are usage errors, not stubs."""
        for verb in ("bench", "summary"):
            with pytest.raises(SystemExit) as usage:
                main([verb])
            assert usage.value.code == 2
            assert f"invalid choice: '{verb}'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as helped:
            main(["--help"])
        assert helped.value.code == 0
        help_words = re.split(r"[\s{},]+", capsys.readouterr().out)
        assert "bench" not in help_words
        assert "summary" not in help_words


def _only_bundle(ledger):
    (bundle,) = [p for p in ledger.iterdir() if p.is_dir()]
    return bundle


class TestTrace:
    def test_run_with_trace_then_report(self, capsys, tmp_path) -> None:
        ledger = tmp_path / "runs"
        status = main(
            [
                "run",
                "sec71",
                "--runs-dir",
                str(ledger),
                "--num-lines",
                "120",
                "--num-reducers",
                "2",
                "--num-splits",
                "2",
            ]
        )
        assert status == 0
        assert "Section 7.1" in capsys.readouterr().out
        bundle = _only_bundle(ledger)

        # By id prefix under --runs-dir, with the Chrome document ...
        chrome_path = tmp_path / "trace.json"
        argv = ["trace", bundle.name[:-3], "--runs-dir", str(ledger)]
        assert main([*argv, "--chrome", str(chrome_path)]) == 0
        captured = capsys.readouterr()
        report = captured.out
        assert "trace:" in captured.err
        # ... phases and the attempt table in one report ...
        assert "map.phase.map" in report
        assert "wasted_cpu_s" in report

        import json

        document = json.loads(chrome_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"wave.map", "map.phase.map", "map0 attempt 1"} <= names
        # ... and by bundle directory, same report.
        assert main(["trace", str(bundle)]) == 0
        assert capsys.readouterr().out == report

    def test_failing_run_still_flushes_partial_trace(
        self, capsys, tmp_path, monkeypatch
    ) -> None:
        """A post-mortem is exactly when the partial trace matters: the
        jobs recorded before the experiment died can be traced."""

        def exploding_experiment():
            from repro.mr.engine import LocalJobRunner
            from repro.mr.split import split_records
            from repro.workloads.wordcount import wordcount_job

            job = wordcount_job(num_reducers=2)
            splits = split_records([(0, "a b a"), (1, "b c")], num_splits=2)
            LocalJobRunner().run(job, splits)
            raise RuntimeError("boom after one traced job")

        monkeypatch.setitem(
            EXPERIMENTS, "exploding", (exploding_experiment, "test dummy")
        )
        ledger = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "exploding", "--runs-dir", str(ledger)])
        assert "status=failed" in capsys.readouterr().err

        chrome_path = tmp_path / "trace.json"
        bundle = _only_bundle(ledger)
        assert main(["trace", str(bundle), "--chrome", str(chrome_path)]) == 0
        assert "== job: wordcount ==" in capsys.readouterr().out

        import json

        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_trace_missing_file(self, capsys, tmp_path) -> None:
        """An unknown id, an ambiguous prefix and a directory that is no
        bundle are each a one-line error and exit 2."""
        ledger = tmp_path / "runs"
        for _ in range(2):
            main(["run", "wordcount", "--runs-dir", str(ledger),
                  "--num-lines", "20", "--num-splits", "2"])
        capsys.readouterr()
        for argv, message in (
            (["trace", "nope", "--runs-dir", str(ledger)], "no run matching"),
            (["trace", "20", "--runs-dir", str(ledger)], "ambiguous"),
            (["trace", str(ledger)], "no run matching"),
            (["trace", str(tmp_path / "nope.jsonl")], "no run matching"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_chrome_path_is_checked_before_rendering(
        self, capsys, tmp_path
    ) -> None:
        ledger = tmp_path / "runs"
        main(["run", "wordcount", "--runs-dir", str(ledger),
              "--num-lines", "20", "--num-splits", "2"])
        capsys.readouterr()
        bundle = _only_bundle(ledger)
        missing = tmp_path / "missing-dir" / "t.json"
        assert main(["trace", str(bundle), "--chrome", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "no such directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("artifact", ["spans.jsonl", "events.jsonl"])
    def test_torn_final_line_does_not_crash_a_reader(
        self, capsys, tmp_path, artifact
    ) -> None:
        """A crash mid-append tears at most the last line: `trace` and
        `runs diff` render every complete row, as `runs show` does."""
        ledger = tmp_path / "runs"
        main(["run", "wordcount", "--runs-dir", str(ledger),
              "--num-lines", "20", "--num-splits", "2"])
        capsys.readouterr()
        bundle = _only_bundle(ledger)

        from repro.analysis.rundiff import render_diff
        from repro.obs.export import load_jsonl
        from repro.obs.run_store import RunStore

        def rows(store: RunStore) -> int:
            jobs = load_jsonl(store.load(bundle.name))
            return sum(len(job.spans) + len(job.events) for job in jobs)

        whole = rows(RunStore(ledger))
        torn = bundle / artifact
        torn.write_bytes(torn.read_bytes()[:-37])

        assert main(["trace", str(bundle)]) == 0
        assert "== job: wordcount+anti[adaptive] ==" in capsys.readouterr().out
        argv = ["runs", "diff", bundle.name, bundle.name]
        assert main([*argv, "--runs-dir", str(ledger)]) == 0
        assert "counters: identical" in capsys.readouterr().out

        store = RunStore(ledger)
        assert rows(store) == whole - 1
        assert store.torn_tail_lines == 1
        record = store.load(bundle.name)
        render_diff(record, record)
        assert store.torn_tail_lines == 3
        # An undecodable line anywhere else is corruption: still raises.
        lines = torn.read_text().splitlines(keepends=True)
        torn.write_text(lines[0][:-20] + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError):
            load_jsonl(record)


class TestRecordFlag:
    def test_run_record_writes_bundle(self, capsys, tmp_path) -> None:
        ledger = tmp_path / "runs"
        status = main(
            [
                "run",
                "sec71",
                "--record",
                "--runs-dir",
                str(ledger),
                "--num-lines",
                "120",
                "--num-reducers",
                "2",
                "--num-splits",
                "2",
            ]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "Section 7.1" in captured.out
        assert "run ledger:" in captured.err

        import json

        run_dirs = [p for p in ledger.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        bundle = run_dirs[0]
        for artifact in (
            "manifest.json",
            "status.json",
            "entries.jsonl",
            "counters.json",
            "events.jsonl",
            "spans.jsonl",
        ):
            assert (bundle / artifact).exists(), artifact
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["name"] == "sec71"
        assert manifest["kind"] == "experiment"
        status_doc = json.loads((bundle / "status.json").read_text())
        assert status_doc["status"] == "completed"
        # The recorder hook was cleared on the way out.
        from repro.obs.flightrecorder import current_flight_recorder

        assert current_flight_recorder() is None

    def test_failing_run_keeps_failed_bundle(
        self, capsys, tmp_path, monkeypatch
    ) -> None:
        """A crash mid-experiment must still leave a status=failed run
        directory holding whatever jobs completed before the death."""

        def exploding_experiment():
            from repro.mr.engine import LocalJobRunner
            from repro.mr.split import split_records
            from repro.workloads.wordcount import wordcount_job

            job = wordcount_job(num_reducers=2)
            splits = split_records([(0, "a b a"), (1, "b c")], num_splits=2)
            LocalJobRunner().run(job, splits)
            raise RuntimeError("boom after one recorded job")

        monkeypatch.setitem(
            EXPERIMENTS, "exploding", (exploding_experiment, "test dummy")
        )
        ledger = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="boom"):
            main(
                [
                    "run",
                    "exploding",
                    "--record",
                    "--runs-dir",
                    str(ledger),
                ]
            )

        import json

        assert "status=failed" in capsys.readouterr().err
        run_dirs = [p for p in ledger.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        bundle = run_dirs[0]
        status_doc = json.loads((bundle / "status.json").read_text())
        assert status_doc["status"] == "failed"
        assert "boom after one recorded job" in status_doc["error"]
        # Partial artifacts: the one job that ran before the crash.
        entries = [
            json.loads(line)
            for line in (bundle / "entries.jsonl").read_text().splitlines()
        ]
        assert len(entries) == 1
        assert entries[0]["name"] == "wordcount"
        assert (bundle / "counters.json").exists()
        # The partial trace is in the bundle too.
        assert (bundle / "spans.jsonl").exists()
        from repro.obs.flightrecorder import current_flight_recorder

        assert current_flight_recorder() is None

