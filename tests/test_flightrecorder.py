"""Tests for the flight recorder and the persistent run ledger.

The load-bearing guarantees pinned here:

* **Observation only** — job counters are byte-identical with the
  recorder installed or not (the tracing on/off parity contract
  extends to recording).
* **Deterministic receipt** — two identical recorded runs produce
  bit-identical ``counters.json`` files: the receipt holds only the
  analytic counter fold, with the measured-CPU families filtered out
  and the entries whose LazySH choices read the clock named, not
  folded.  Every registered experiment is recorded serially and on a
  2-worker pool, and the two receipts must match byte for byte.
* **Crash-safe bundles** — entries/events/spans are appended as each
  job finishes, so a run that dies mid-way still leaves a usable
  post-mortem directory (exercised end-to-end in ``test_cli.py``).
* **Retention** — pruning removes only the oldest *finished* runs and
  never a run still marked ``running``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.transform import enable_anti_combining
from repro.experiments import EXPERIMENTS
from repro.mr.counters import MEASURED_CPU_COUNTERS, Counters
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.split import split_records
from repro.obs.export import load_jsonl
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    current_flight_recorder,
    deterministic_counters,
    describe_job_conf,
    set_flight_recorder,
)
from repro.obs.run_store import (
    COMPLETED,
    FAILED,
    RUNNING,
    RunStore,
    RunStoreError,
)
from repro.pipeline import Pipeline
from repro.workloads.wordcount import wordcount_job


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    yield
    clear_flight_recorder()


def _wordcount():
    lines = [
        (i, f"alpha beta gamma {i % 5} delta {i % 3}") for i in range(40)
    ]
    job = wordcount_job(num_reducers=2, cost_meter=FixedCostMeter())
    return job, split_records(lines, num_splits=3)


def _record_wordcount(store: RunStore) -> FlightRecorder:
    recorder = FlightRecorder(store, kind="experiment", name="wc")
    set_flight_recorder(recorder)
    try:
        job, splits = _wordcount()
        LocalJobRunner().run(job, splits)
    finally:
        clear_flight_recorder()
    recorder.finalize(COMPLETED)
    return recorder


# -- recording --------------------------------------------------------------
class TestRecording:
    def test_engine_hook_records_each_job(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = _record_wordcount(store)
        record = store.load(recorder.run_id)
        assert record.status_name == COMPLETED
        assert len(record.entries) == 1
        entry = record.entries[0]
        assert entry["kind"] == "job"
        assert entry["name"] == "wordcount"
        assert entry["counters"]["map.input.records"] == 40
        assert entry["conf"]["num_reducers"] == 2
        assert entry["conf"]["strategy"] == "original"
        assert "mr.derived.replication.rate" in entry["derived"]
        assert len(entry["shuffle_bytes_per_reducer"]) == 2

    def test_entry_names_the_executor_that_ran(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = FlightRecorder(store, kind="experiment", name="wc")
        set_flight_recorder(recorder)
        try:
            job, splits = _wordcount()
            with ParallelExecutor(max_workers=2) as pool:
                LocalJobRunner(executor=pool).run(job, splits)
            LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        finally:
            clear_flight_recorder()
        recorder.finalize(COMPLETED)
        confs = [entry["conf"] for entry in store.load(recorder.run_id).entries]
        assert [(conf["executor"], conf["workers"]) for conf in confs] == [
            ("process", 2),
            ("serial", 1),
        ]

    def test_disabled_recorder_is_none(self) -> None:
        assert current_flight_recorder() is None

    def test_recording_is_observation_only(self, tmp_path) -> None:
        job, splits = _wordcount()
        plain = LocalJobRunner().run(job, splits)

        recorder = FlightRecorder(
            RunStore(tmp_path), kind="experiment", name="wc"
        )
        set_flight_recorder(recorder)
        try:
            job2, splits2 = _wordcount()
            recorded = LocalJobRunner().run(job2, splits2)
        finally:
            clear_flight_recorder()
        recorder.finalize(COMPLETED)
        assert recorded.counters.as_dict() == plain.counters.as_dict()
        assert recorded.output == plain.output

    def test_spans_jsonl_is_trace_compatible(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = _record_wordcount(store)
        jobs = load_jsonl(store.load(recorder.run_id))
        assert len(jobs) == 1
        assert jobs[0].job_name == "wordcount"
        assert jobs[0].spans
        assert len(jobs[0].events) >= 5

    def test_events_jsonl_has_attempt_rows(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = _record_wordcount(store)
        rows = [
            json.loads(line)
            for line in (recorder.path / "events.jsonl")
            .read_text()
            .splitlines()
        ]
        assert rows
        assert all(row["type"] == "event" for row in rows)
        kinds = {row["kind"] for row in rows}
        assert "map" in kinds and "reduce" in kinds


    def test_a_job_costs_one_write_per_artifact(
        self, tmp_path, monkeypatch
    ) -> None:
        store = RunStore(tmp_path)
        written: list[str] = []
        append_rows = store.append_rows

        def counting(run_id, file_name, rows):
            written.append(file_name)
            append_rows(run_id, file_name, rows)

        monkeypatch.setattr(store, "append_rows", counting)
        recorder = _record_wordcount(store)
        assert written == ["entries.jsonl", "spans.jsonl", "events.jsonl"]
        # ... and the batches hold a row per span and per attempt event.
        spans = (recorder.path / "spans.jsonl").read_text().splitlines()
        events = (recorder.path / "events.jsonl").read_text().splitlines()
        assert len(spans) > 10 and len(events) >= 5


# -- the deterministic receipt ----------------------------------------------
#: One row per registered experiment: the overrides it is recorded at
#: (small, so all of them run in seconds) and a counter its receipt
#: must carry.
_QUERIES = ["--num-queries", "200", "--num-splits", "2"]
RECEIPT_ROWS: dict[str, tuple[list[str], str]] = {
    "fig9": (_QUERIES, "anti.eager.records"),
    "fig10": (_QUERIES, "combine.input.records"),
    "table1": (_QUERIES, "map.output.materialized.bytes"),
    "table2": (_QUERIES, "map.spills"),
    "fig11": (
        [*_QUERIES, "--iterations-per-unit", "100"], "anti.lazy.records"
    ),
    "sec71": (["--num-lines", "2000"], "reduce.output.bytes"),
    "wordcount": (
        ["--num-lines", "200", "--num-splits", "4", "--num-reducers", "4"],
        "combine.input.records",
    ),
    "pagerank": (
        ["--num-nodes", "200", "--iterations", "3"],
        "pipeline.dataset.encode.misses",
    ),
    "fig12": (
        ["--num-records", "200", "--grid-rows", "6", "--grid-cols", "6"],
        "anti.reduce.map.reexecutions",
    ),
    "ablation-skew": (
        ["--num-records", "300"], "anti.reduce.map.reexecutions"
    ),
    "ablation-record-percent": (["--num-lines", "200"], "map.spilled.records"),
    "claim-similarity-join": (["--num-records", "100"], "anti.lazy.records"),
    "claim-multiquery": (["--num-lines", "200"], "anti.eager.records"),
    "claim-hits": (["--num-nodes", "100"], "anti.eager.records"),
    "claim-star-join": (
        ["--num-r", "60", "--num-s", "80", "--num-t", "60"],
        "anti.lazy.records",
    ),
    "claim-knn-join": (
        ["--num-data", "60", "--num-queries", "20"], "anti.lazy.records"
    ),
}


class TestCountersReceipt:
    def test_receipt_filters_measured_cpu(self) -> None:
        counters = {"map.input.records": 3.0}
        for name in MEASURED_CPU_COUNTERS:
            counters[name] = 1.23
        counters["cpu.framework.seconds"] = 0.5
        receipt = deterministic_counters(counters)
        assert receipt == {
            "map.input.records": 3.0,
            "cpu.framework.seconds": 0.5,
        }

    def test_counters_json_matches_run_fold(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = _record_wordcount(store)
        doc = json.loads((recorder.path / "counters.json").read_text())
        assert doc["schema"] == 1
        assert not MEASURED_CPU_COUNTERS & set(doc["counters"])
        assert set(doc) == {"schema", "counters"}
        record = store.load(recorder.run_id)
        entry_counters = record.entries[0]["counters"]
        for name, value in doc["counters"].items():
            assert entry_counters[name] == value

    def test_clock_decided_entries_are_named_not_folded(
        self, tmp_path
    ) -> None:
        """AdaptiveSH with 0 < T < inf under the real clock picks
        LazySH by measured Map cost (Section 6.1), so its byte counters
        follow the host's timing: the entry keeps its counters in
        entries.jsonl, and the receipt names it instead of folding it.
        A deterministic meter, T = 0 and T = inf stay in the fold."""
        lines = [(i, f"alpha beta gamma {i % 5} delta") for i in range(40)]
        splits = split_records(lines, num_splits=3)
        job = wordcount_job(num_reducers=2)
        jobs = [
            enable_anti_combining(job, threshold_t=1e-3),
            enable_anti_combining(
                job.clone(cost_meter=FixedCostMeter()), threshold_t=1e-3
            ),
            enable_anti_combining(job, threshold_t=0.0),
            enable_anti_combining(job),
        ]
        store = RunStore(tmp_path)
        recorder = FlightRecorder(store, kind="experiment", name="wc")
        with recorder.recording():
            results = [LocalJobRunner().run(j, splits) for j in jobs]
        doc = json.loads((recorder.path / "counters.json").read_text())
        assert doc["clock_decided_entries"] == [
            {"index": 0, "name": results[0].job_name}
        ]
        folded = Counters()
        for result in results[1:]:
            folded.merge(result.counters)
        assert doc["counters"] == deterministic_counters(folded.as_dict())
        entries = store.load(recorder.run_id).entries
        assert entries[0]["counters"] == results[0].counters.as_dict()

    def test_two_identical_fig9_runs_bit_identical(
        self, capsys, tmp_path
    ) -> None:
        """The acceptance criterion: same workload, same knobs, default
        (measured) cost meter — the receipts must match byte for byte."""
        ledger = tmp_path / "runs"
        argv = [
            "run",
            "fig9",
            "--record",
            "--runs-dir",
            str(ledger),
            "--num-queries",
            "120",
            "--num-splits",
            "2",
        ]
        assert main(list(argv)) == 0
        assert main(list(argv)) == 0
        capsys.readouterr()
        receipts = sorted(ledger.glob("*/counters.json"))
        assert len(receipts) == 2
        assert receipts[0].read_bytes() == receipts[1].read_bytes()

    def test_every_experiment_has_a_receipt_row(self) -> None:
        assert set(RECEIPT_ROWS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(RECEIPT_ROWS))
    def test_receipt_serial_equals_two_workers(
        self, name, capsys, tmp_path
    ) -> None:
        """An experiment recorded serially and on a 2-worker pool
        writes byte-identical receipts: the executor and the pool's
        transport never change an analytic counter."""
        overrides, counter = RECEIPT_ROWS[name]
        receipts = []
        for jobs, executor in (("1", "serial"), ("2", "process")):
            ledger = tmp_path / executor
            argv = ["run", name, "-j", jobs, "--record"]
            argv += ["--runs-dir", str(ledger), *overrides]
            assert main(argv) == 0
            (receipt,) = ledger.glob("*/counters.json")
            receipts.append(receipt.read_bytes())
            entries = receipt.with_name("entries.jsonl").read_text()
            rows = [json.loads(line) for line in entries.splitlines()]
            assert {
                row["conf"]["executor"] for row in rows if row["kind"] == "job"
            } == {executor}
        capsys.readouterr()
        assert receipts[0] == receipts[1]
        assert counter in json.loads(receipts[0])["counters"]

    def test_finalize_is_idempotent(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = _record_wordcount(store)
        assert recorder.finalize(FAILED) == recorder.run_id
        assert store.load(recorder.run_id).status_name == COMPLETED


# -- pipeline + bench entries ------------------------------------------------
class TestOtherEntryKinds:
    def test_pipeline_entry_folds_only_pipeline_counters(
        self, tmp_path
    ) -> None:
        store = RunStore(tmp_path)
        recorder = FlightRecorder(store, kind="experiment", name="pl")
        set_flight_recorder(recorder)
        try:
            pipeline = Pipeline("wc")
            lines = pipeline.source(
                "lines", [(i, f"a b {i % 3}") for i in range(12)]
            )
            pipeline.mapreduce(
                "count",
                wordcount_job(num_reducers=2, cost_meter=FixedCostMeter()),
                lines,
                num_splits=2,
            )
            pipeline.run()
        finally:
            clear_flight_recorder()
        recorder.finalize(COMPLETED)

        record = store.load(recorder.run_id)
        kinds = [entry["kind"] for entry in record.entries]
        # The stage job via the engine hook, then the pipeline entry.
        assert kinds == ["job", "pipeline"]
        pipeline_entry = record.entries[1]
        assert pipeline_entry["name"] == "pipeline:wc"
        assert pipeline_entry["stages"] == ["lines", "count"]
        assert all(
            name.startswith("pipeline.")
            for name in pipeline_entry["counters"]
        )
        # Job counters are not double-counted in the run receipt.
        doc = json.loads((recorder.path / "counters.json").read_text())
        job_counters = record.entries[0]["counters"]
        assert (
            doc["counters"]["map.input.records"]
            == job_counters["map.input.records"]
        )


# -- manifest ---------------------------------------------------------------
class TestManifest:
    def test_manifest_provenance_and_conf(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        recorder = FlightRecorder(
            store,
            kind="experiment",
            name="wc",
            params={"wc": {"num_lines": 40}},
            argv=["run", "wc", "--num-lines", "40"],
        )
        recorder.finalize(COMPLETED)
        manifest = store.load(recorder.run_id).manifest
        assert manifest["schema"] == 1
        assert manifest["params"] == {"wc": {"num_lines": 40}}
        assert manifest["argv"] == ["run", "wc", "--num-lines", "40"]
        assert "python" in manifest["env"]
        assert manifest["run_id"] == recorder.run_id

    def test_manifest_env_and_boot(self, tmp_path) -> None:
        import os
        import platform

        from repro.obs.flightrecorder import BOOT_ID

        store = RunStore(tmp_path)
        first = FlightRecorder(store, kind="experiment", name="a")
        second = FlightRecorder(store, kind="experiment", name="b")
        manifest = store.load(first.run_id).manifest
        assert manifest["env"] == {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        # One boot id per process, beside the pid it disambiguates.
        assert manifest["pid"] == os.getpid()
        assert manifest["boot"] == BOOT_ID
        assert store.load(second.run_id).manifest["boot"] == BOOT_ID

    def test_describe_job_conf_anti_strategy(self) -> None:
        from repro.core.config import Strategy
        from repro.core.transform import enable_anti_combining

        job = wordcount_job(num_reducers=2)
        described = describe_job_conf(job)
        assert described["strategy"] == "original"
        anti = enable_anti_combining(
            job, strategy=Strategy.LAZY, use_shared_combiner=False
        )
        described = describe_job_conf(anti)
        assert described["strategy"] == "lazy"
        assert described["threshold_t"] == "inf"


# -- the store: lookup + retention -------------------------------------------
class TestRunStore:
    def _finished_run(self, store: RunStore, tag: int) -> str:
        run = store.create({"kind": "t", "name": f"r{tag}", "started_unix": float(tag)})
        store.write_status(run.run_id, {"status": COMPLETED})
        return run.run_id

    def test_resolve_prefix(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run_id = self._finished_run(store, 1)
        assert store.resolve(run_id[:12]) == run_id
        with pytest.raises(RunStoreError, match="no run matching"):
            store.resolve("zzz")

    def test_resolve_ambiguous(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        a = self._finished_run(store, 1)
        b = store.create(
            {"kind": "t", "name": "other", "started_unix": 1.0}
        ).run_id
        assert a[:16] == b[:16]  # same timestamp prefix
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.resolve(a[:16])

    def test_identical_manifests_get_distinct_ids(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        manifest = {"kind": "t", "name": "same", "started_unix": 5.0}
        a = store.create(dict(manifest))
        b = store.create(dict(manifest))
        assert a.run_id != b.run_id

    def test_prune_keeps_newest_and_running(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=2)
        ids = [self._finished_run(store, tag) for tag in range(1, 5)]
        running = store.create(
            {"kind": "t", "name": "live", "started_unix": 0.5}
        ).run_id
        removed = store.prune()
        assert sorted(removed) == sorted(ids[:2])
        survivors = set(store.run_ids())
        assert running in survivors
        assert set(ids[2:]) <= survivors

    def test_prune_never_drops_below_one(self, tmp_path) -> None:
        with pytest.raises(RunStoreError, match="at least one"):
            RunStore(tmp_path, keep=0)

    def test_env_overrides(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env-root"))
        monkeypatch.setenv("REPRO_RUNS_KEEP", "7")
        store = RunStore()
        assert store.root == tmp_path / "env-root"
        assert store.keep == 7

    def test_load_unknown_run(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        with pytest.raises(RunStoreError, match="no run matching"):
            store.load("nope")

    def test_delete(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run_id = self._finished_run(store, 1)
        store.delete(run_id)
        assert store.run_ids() == []
        with pytest.raises(RunStoreError):
            store.delete(run_id)

    def test_running_record_has_no_counters(self, tmp_path) -> None:
        store = RunStore(tmp_path)
        run = store.create({"kind": "t", "name": "live"})
        record = store.load(run.run_id)
        assert record.status_name == RUNNING
        assert record.counters is None
        assert record.summary()["status"] == RUNNING
