"""Tests for the observability layer: tracing, metrics, export.

The load-bearing guarantees pinned here:

* **Zero cost when disabled** — with no tracer active the job's
  counters are byte-identical to a traced run's counters (the
  executor-parity contract extends to tracing on/off).
* **Spans cross the process boundary** — a traced run on the
  :class:`~repro.mr.executor.ParallelExecutor` yields the same span
  names as a serial run, re-based onto the job timeline.
* **One ledger** — the Prometheus dump and ``JobResult.counters`` are
  derived from the same registry and agree exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen import generate_query_log
from repro.mr import counters as C
from repro.mr import events as E
from repro.mr.api import Context, Mapper
from repro.mr.counters import Counters
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import JobResult, LocalJobRunner
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.scheduler import ScriptedFaults
from repro.mr.split import split_records
from repro.obs.export import JobTrace, chrome_trace, load_jsonl
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    escape_label_value,
    parse_prometheus_text,
    prometheus_name,
    validate_prometheus_text,
)
from repro.obs.run_store import RunStore
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    activated,
    current_tracer,
)
from repro.workloads.query_suggestion import query_suggestion_job
from repro.workloads.wordcount import wordcount_job


def _anti_job(**anti_kwargs):
    """A small Anti-Combining job that exercises Shared spilling."""
    queries = generate_query_log(num_queries=150, seed=7)
    job = query_suggestion_job(
        k=3, num_reducers=2, cost_meter=FixedCostMeter()
    )
    anti = enable_anti_combining(
        job,
        strategy=Strategy.EAGER,
        use_shared_combiner=False,
        shared_memory_bytes=1024,
        **anti_kwargs,
    )
    return anti, split_records(queries, num_splits=3)


def _wordcount():
    lines = [
        (i, f"alpha beta gamma {i % 5} delta {i % 3}") for i in range(40)
    ]
    job = wordcount_job(num_reducers=2, cost_meter=FixedCostMeter())
    return job, split_records(lines, num_splits=3)


def _timeout_and_kill_trace() -> JobTrace:
    """A hand-built event log (no sleeping): ``map0`` hangs past the
    task timeout and is retried; ``map1``'s speculative backup wins and
    the original is killed; ``reduce0`` fails once."""

    def event(task, what, attempt, t, **fields):
        return E.TaskEvent(
            task_id=task,
            kind=E.MAP if task.startswith("map") else E.REDUCE,
            event=what,
            attempt=attempt,
            t_seconds=t,
            **fields,
        )

    log = E.EventLog(
        [
            event("map0", E.START, 1, 0.0),
            event("map1", E.START, 1, 0.0),
            event("map0", E.TIMEOUT, 1, 0.3),
            event("map0", E.START, 2, 0.3),
            event("map1", E.START, 2, 0.35, speculative=True),
            event("map0", E.FINISH, 2, 0.4, cpu_seconds=0.05),
            event("map1", E.FINISH, 2, 0.45, cpu_seconds=0.05),
            event("map1", E.KILLED, 1, 0.5),
            event("reduce0", E.START, 1, 0.5),
            event("reduce0", E.FAIL, 1, 0.6, cpu_seconds=0.02, error="boom"),
            event("reduce0", E.START, 2, 0.6),
            event("reduce0", E.FINISH, 2, 0.7, cpu_seconds=0.03),
        ]
    )
    return JobTrace(job_name="faulty", spans=[], events=log)


def _trace_of(result: JobResult) -> JobTrace:
    return JobTrace(result.job_name, result.spans, result.events)


def _plain_samples(text: str) -> dict[str, float]:
    """Every unlabelled sample of an exposition, by sample name."""
    return {
        name: value
        for family in parse_prometheus_text(text).values()
        for name, labels, value in family["samples"]
        if not labels
    }


def _recorded(tmp_path, *results) -> list[JobTrace]:
    """``results`` written into a fresh bundle and loaded back."""
    store = RunStore(tmp_path)
    recorder = FlightRecorder(store, kind="test", name="roundtrip")
    for result in results:
        recorder.record_job(None, result)
    recorder.finalize()
    return load_jsonl(store.load(recorder.run_id))


# -- tracer unit tests -----------------------------------------------------


class TestTracer:
    def test_records_spans(self) -> None:
        ticks = iter(float(n) for n in range(10))
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("outer", category="test", task="map0"):
            with tracer.span("inner") as span:
                span.set(records=3)
        records = tracer.records()
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner.attrs == {"records": 3}
        assert outer.category == "test"
        assert outer.duration == pytest.approx(3.0)
        assert inner.start >= outer.start

    def test_sync_adopts_clock(self) -> None:
        tracer = Tracer()
        tracer.sync(lambda: 42.0)
        assert tracer.now() == 42.0

    def test_shifted_rebases_and_merges_attrs(self) -> None:
        span = SpanRecord(name="s", start=1.0, duration=2.0, attrs={"a": 1})
        moved = span.shifted(10.0, task="map1")
        assert moved.start == 11.0
        assert moved.duration == 2.0
        assert moved.attrs == {"a": 1, "task": "map1"}
        assert span.attrs == {"a": 1}  # original untouched

    def test_extend_rebases(self) -> None:
        tracer = Tracer()
        tracer.extend(
            [SpanRecord(name="s", start=0.5, duration=0.1)],
            offset=2.0,
            task="map0",
        )
        (record,) = tracer.records()
        assert record.start == 2.5
        assert record.attrs["task"] == "map0"

    def test_null_tracer_is_inert(self) -> None:
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", records=1)
        with span as inner:
            inner.set(more=2)
        assert NULL_TRACER.span("other") is span  # one shared instance
        assert NULL_TRACER.records() == []
        assert len(NULL_TRACER) == 0

    def test_activation_restores_previous(self) -> None:
        tracer = Tracer()
        assert current_tracer() is NULL_TRACER
        with activated(tracer):
            assert current_tracer() is tracer
            nested = Tracer()
            with activated(nested):
                assert current_tracer() is nested
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_activation_is_per_thread(self) -> None:
        """Two ``activated`` blocks interleaved on two threads — A
        enters, B enters, A exits, B exits — each see their own tracer
        and leave nothing active (with one process-wide slot, B's exit
        restored A's tracer for good)."""
        import threading

        tracers = {"a": Tracer(), "b": Tracer()}
        seen: dict[str, list] = {"a": [], "b": []}
        steps = {
            name: threading.Event()
            for name in ("a-in", "b-in", "a-out", "b-out")
        }

        def worker(name, entered, wait_before_exit, exited) -> None:
            with activated(tracers[name]):
                seen[name].append(current_tracer())
                steps[entered].set()
                assert steps[wait_before_exit].wait(5)
                seen[name].append(current_tracer())
            seen[name].append(current_tracer())
            steps[exited].set()

        threads = [
            threading.Thread(target=worker, args=("a", "a-in", "b-in", "a-out")),
            threading.Thread(target=worker, args=("b", "b-in", "a-out", "b-out")),
        ]
        threads[0].start()
        assert steps["a-in"].wait(5)
        threads[1].start()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        for name, tracer in tracers.items():
            assert seen[name] == [tracer, tracer, NULL_TRACER]
        assert current_tracer() is NULL_TRACER


# -- metrics registry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.counter("c").add(0.5)
        registry.gauge("g").set(7)
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert registry.counter_values() == {"c": 2.5}
        assert registry.gauge_values() == {"g": 7}
        snapshot = registry.histogram_snapshots()["h"]
        assert snapshot["counts"] == [1, 1]  # 50.0 overflows to +Inf
        assert snapshot["count"] == 3
        assert snapshot["sum"] == pytest.approx(55.5)

    def test_cross_type_name_collision_rejected(self) -> None:
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError, match="another type"):
            registry.gauge("name")

    def test_bad_buckets_rejected(self) -> None:
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("h", buckets=(2.0, 1.0))

    def test_merge_counters_matches_counters_merge(self) -> None:
        bags = []
        for seed in range(3):
            bag = Counters()
            bag.add("bytes", 100 * seed + 1)
            bag.add("cpu.seconds", 0.1 * seed + 0.017)
            bags.append(bag)
        direct = Counters()
        registry = MetricsRegistry()
        for bag in bags:
            direct.merge(bag)
            registry.merge_counters(bag)
        # Bit-identical float totals: same values, same fold order.
        assert registry.job_counters().as_dict() == direct.as_dict()

    def test_job_counters_excludes_observational_metrics(self) -> None:
        registry = MetricsRegistry()
        bag = Counters()
        bag.add("real.counter", 1)
        registry.merge_counters(bag)
        registry.counter("observational.only").add(5)
        assert registry.job_counters().as_dict() == {"real.counter": 1.0}

    def test_prometheus_text_roundtrip(self) -> None:
        registry = MetricsRegistry()
        bag = Counters()
        bag.add("map.output.bytes", 1234)
        bag.add("cpu.seconds", 0.25)
        registry.merge_counters(bag)
        registry.gauge("mr.derived.shuffle.skew").set(4)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.prometheus_text()
        assert "# TYPE map_output_bytes counter" in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        parsed = _plain_samples(text)
        assert parsed["map_output_bytes"] == 1234
        assert parsed["cpu_seconds"] == 0.25
        assert parsed["mr_derived_shuffle_skew"] == 4

    def test_prometheus_name_sanitization(self) -> None:
        assert prometheus_name("anti.shared.spills") == "anti_shared_spills"
        assert prometheus_name("9lives") == "_9lives"


# -- traced runs across executors ------------------------------------------


def _traced_run(job, splits, executor=None):
    tracer = Tracer()
    result = LocalJobRunner(executor=executor, tracer=tracer).run(job, splits)
    return result


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            yield executor

    def _assert_anti_trace(self, result) -> None:
        names = {span.name for span in result.spans}
        # Scheduler-level spans.
        assert "wave.map" in names
        assert "wave.reduce" in names
        assert "shuffle.plan" in names
        # Intra-task phase spans from both task kinds.
        assert "map.phase.map" in names
        assert "map.phase.merge" in names
        assert "reduce.phase.fetch" in names
        assert "reduce.phase.reduce" in names
        # Anti-combining internals: decode + Shared spills.
        assert "shared.decode" in names
        assert "shared.spill" in names
        # Every task-side span was re-based and tagged with its task.
        task_spans = [s for s in result.spans if "task" in s.attrs]
        assert task_spans
        assert all(s.start >= 0 for s in result.spans)

    def test_serial_trace_has_all_span_kinds(self) -> None:
        job, splits = _anti_job()
        result = _traced_run(job, splits)
        self._assert_anti_trace(result)

    def test_parallel_trace_matches_serial_span_names(self, pool) -> None:
        job, splits = _anti_job()
        serial = _traced_run(job, splits)
        parallel = _traced_run(job, splits, executor=pool)
        self._assert_anti_trace(parallel)
        serial_names = sorted(span.name for span in serial.spans)
        parallel_names = sorted(span.name for span in parallel.spans)
        assert parallel_names == serial_names

    def test_tracing_does_not_change_counters(self, pool) -> None:
        job, splits = _anti_job()
        plain = LocalJobRunner().run(job, splits)
        traced = _traced_run(job, splits)
        assert traced.counters.as_dict() == plain.counters.as_dict()
        traced_pool = _traced_run(job, splits, executor=pool)
        assert traced_pool.counters.as_dict() == plain.counters.as_dict()

    def test_untraced_run_records_no_spans(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        assert result.spans == []

    def test_prometheus_dump_agrees_with_counters(self) -> None:
        job, splits = _anti_job()
        result = LocalJobRunner().run(job, splits)
        parsed = _plain_samples(result.metrics.prometheus_text())
        for name, value in result.counters.as_dict().items():
            assert parsed[prometheus_name(name)] == pytest.approx(
                value
            ), name
        # The event log holds one wall duration per task.
        assert len(result.events.wall_durations(E.MAP)) == 3
        assert len(result.events.wall_durations(E.REDUCE)) == 2

    def test_failed_attempt_spans_marked_and_cpu_attributed(self) -> None:
        job, splits = _wordcount()
        _FLAKY_ATTEMPTS.clear()
        flaky = job.clone(
            mapper=FlakyMapper, name="flaky-wordcount", max_task_attempts=2
        )
        result = LocalJobRunner(executor=SerialExecutor()).run(flaky, splits)
        failures = result.events.failures(E.MAP)
        assert len(failures) == 1
        # The failed attempt burned metered CPU before dying, and that
        # wasted work is recorded on the FAIL event.
        assert failures[0].cpu_seconds > 0
        wasted = result.events.attempt_counts()["map"]["wasted_cpu_s"]
        assert wasted == pytest.approx(failures[0].cpu_seconds)
        # A clean run is unaffected — and says so: its wasted CPU
        # reads zero, it is not absent.
        clean = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        assert result.counters.as_dict() == clean.counters.as_dict()
        assert clean.events.attempt_counts()["map"]["wasted_cpu_s"] == 0.0

    def test_failed_attempt_spans_survive_in_trace(self) -> None:
        job, splits = _wordcount()
        _FLAKY_ATTEMPTS.clear()
        flaky = job.clone(
            mapper=FlakyMapper, name="flaky-wordcount", max_task_attempts=2
        )
        tracer = Tracer()
        LocalJobRunner(executor=SerialExecutor(), tracer=tracer).run(
            flaky, splits
        )
        failed = [
            span
            for span in tracer.records()
            if span.attrs.get("failed") is True
        ]
        assert failed
        assert any(span.name == "map.phase.setup" for span in failed)


#: Per-task attempt counter for :class:`FlakyMapper` (serial mode only:
#: the state lives in the scheduling process).
_FLAKY_ATTEMPTS: dict[str, int] = {}


class FlakyMapper(Mapper):
    """Emits some records, then dies on ``map0``'s first attempt."""

    def map(self, key, line: str, context: Context) -> None:
        for word in line.split():
            context.write(word, 1)
        if context.task_id == "map0":
            attempt = _FLAKY_ATTEMPTS.get(context.task_id, 1)
            if attempt == 1:
                _FLAKY_ATTEMPTS[context.task_id] = 2
                raise RuntimeError("flaky mapper: first attempt dies")


# -- export ----------------------------------------------------------------


class TestExport:
    def _run(self, executor=None):
        job, splits = _anti_job()
        return LocalJobRunner(executor=executor, tracer=Tracer()).run(
            job, splits
        )

    def test_chrome_trace_document(self) -> None:
        result = self._run()
        document = chrome_trace([_trace_of(result)])
        # Loadable: serialises to JSON and back.
        document = json.loads(json.dumps(document))
        events = document["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        # Scheduler wave slices and nested intra-task spans.
        assert "wave.map" in names
        assert "shared.decode" in names
        assert "shared.spill" in names
        # Per-attempt slices folded in from the event log.
        assert "map0 attempt 1" in names
        # Metadata rows name the process after the job.
        process_names = [
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert process_names == [result.job_name]
        # Slices are well-formed complete events.
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_chrome_trace_parallel_executor(self) -> None:
        with ParallelExecutor(max_workers=2) as pool:
            result = self._run(executor=pool)
        names = {
            event["name"]
            for event in chrome_trace([_trace_of(result)])["traceEvents"]
        }
        assert "wave.map" in names
        assert "shared.decode" in names
        assert "shared.spill" in names

    def test_jsonl_roundtrip(self, tmp_path) -> None:
        original = self._run()
        (restored,) = _recorded(tmp_path, original)
        assert restored.job_name == original.job_name
        assert restored.spans == original.spans
        assert list(restored.events) == list(original.events)

    def test_empty_jobs_export(self) -> None:
        document = chrome_trace([])
        assert document["traceEvents"] == []

    def test_failed_attempt_slice_is_labelled(self) -> None:
        job, splits = _wordcount()
        job = job.clone(max_task_attempts=2)
        tracer = Tracer()
        runner = LocalJobRunner(
            fault_policy=ScriptedFaults({"map1": 1}), tracer=tracer
        )
        result = runner.run(job, splits)
        trace = JobTrace(
            job_name=job.name,
            spans=tracer.records(),
            events=result.events,
        )
        names = {
            event["name"] for event in chrome_trace([trace])["traceEvents"]
        }
        assert "map1 attempt 1 [FAILED]" in names
        assert "map1 attempt 2" in names


# -- trace report ----------------------------------------------------------


class TestTraceReport:
    def test_phase_breakdown(self) -> None:
        from repro.analysis.tracereport import (
            attempt_rows,
            phase_rows,
            render_trace_report,
        )

        job, splits = _anti_job()
        tracer = Tracer()
        result = LocalJobRunner(tracer=tracer).run(job, splits)
        trace = JobTrace(
            job_name=job.name,
            spans=tracer.records(),
            events=result.events,
        )
        rows = phase_rows(trace)
        phases = {row["phase"] for row in rows}
        assert "map.phase.map" in phases
        assert "shared.decode" in phases
        shares = [row["share_%"] for row in rows]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(100.0)

        attempts = attempt_rows(trace)
        by_kind = {row["kind"]: row for row in attempts}
        assert by_kind["map"]["started"] == 3
        assert by_kind["reduce"]["started"] == 2

        report = render_trace_report([trace])
        assert job.name in report
        assert "map.phase.map" in report

    def test_attempt_table_counts_every_way_an_attempt_ends(self) -> None:
        from repro.analysis.tracereport import (
            attempt_rows,
            render_trace_report,
        )

        trace = _timeout_and_kill_trace()
        assert attempt_rows(trace) == [
            {"kind": "map", "started": 4, "failed": 0, "timed_out": 1,
             "killed": 1, "wasted_cpu_s": 0.0},
            {"kind": "reduce", "started": 2, "failed": 1, "timed_out": 0,
             "killed": 0, "wasted_cpu_s": 0.02},
        ]
        header = next(
            line
            for line in render_trace_report([trace]).splitlines()
            if line.lstrip().startswith("kind")
        )
        assert header.split() == [
            "kind", "started", "failed", "timed_out", "killed",
            "wasted_cpu_s",
        ]

    def test_empty_report(self) -> None:
        from repro.analysis.tracereport import render_trace_report

        assert "empty trace" in render_trace_report([])


# -- satellites ------------------------------------------------------------


class TestSharedSpilledRecords:
    def test_spilled_records_counter(self) -> None:
        job, splits = _anti_job()
        result = LocalJobRunner().run(job, splits)
        spills = result.counters.get_int(C.ANTI_SHARED_SPILLS)
        records = result.counters.get_int(C.ANTI_SHARED_SPILLED_RECORDS)
        assert spills > 0
        # Every spill wrote at least one record.
        assert records >= spills
        assert result.counters.get_int(C.ANTI_SHARED_SPILLED_BYTES) > 0

    def test_no_spills_when_memory_ample(self) -> None:
        queries = generate_query_log(num_queries=150, seed=7)
        base = query_suggestion_job(
            k=3, num_reducers=2, cost_meter=FixedCostMeter()
        )
        roomy = enable_anti_combining(
            base, strategy=Strategy.EAGER, shared_memory_bytes=64 * 1024 * 1024
        )
        result = LocalJobRunner().run(
            roomy, split_records(queries, num_splits=3)
        )
        assert result.counters.get_int(C.ANTI_SHARED_SPILLED_RECORDS) == 0


class TestEventLogUnderParallelExecutor:
    """EventLog invariants must hold when attempts run on a pool."""

    @pytest.fixture(scope="class")
    def pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            yield executor

    def test_monotonic_and_paired(self, pool) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner(executor=pool).run(job, splits)
        events = list(result.events)
        assert events
        times = [event.t_seconds for event in events]
        assert times == sorted(times)
        starts = {
            (e.task_id, e.attempt) for e in events if e.event == E.START
        }
        ends = [
            (e.task_id, e.attempt)
            for e in events
            if e.event in (E.FINISH, E.FAIL)
        ]
        # Exactly one START per FINISH/FAIL, no unmatched ends.
        assert len(ends) == len(set(ends))
        assert set(ends) == starts

    def test_attempt_numbering_matches_scripted_faults(self, pool) -> None:
        job, splits = _wordcount()
        faults = ScriptedFaults({"map0": 2, "reduce1": 1})
        runner = LocalJobRunner(executor=pool, fault_policy=faults)
        result = runner.run(job.clone(max_task_attempts=3), splits)
        assert result.events.attempts("map0") == 3
        assert result.events.attempts("reduce1") == 2
        assert faults.injected == [
            ("map0", 1, "fail"),
            ("map0", 2, "fail"),
            ("reduce1", 1, "fail"),
        ]
        failed = [
            (e.task_id, e.attempt, "fail") for e in result.events.failures()
        ]
        assert failed == faults.injected
        # Injected kills never ran user code: no CPU was wasted.
        assert all(e.cpu_seconds == 0.0 for e in result.events.failures())
        # The retried run still matches a clean serial run.
        clean = LocalJobRunner().run(job, splits)
        assert result.counters.as_dict() == clean.counters.as_dict()


# -- exposition-format audit (text format 0.0.4) ---------------------------


class TestExpositionFormat:
    """Parser-based audit of ``prometheus_text`` against format 0.0.4."""

    def _job_dump(self) -> str:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        return result.metrics.prometheus_text()

    def test_job_dump_validates(self) -> None:
        families = validate_prometheus_text(self._job_dump())
        # Every family in an engine dump is explicitly typed.
        assert families
        assert all(
            family["type"] != "untyped" for family in families.values()
        )

    def test_histogram_series_complete(self) -> None:
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "task.seconds", "per-task latency", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        families = validate_prometheus_text(registry.prometheus_text())
        samples = families["task_seconds"]["samples"]
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        # Cumulative buckets with an explicit +Inf equal to _count.
        buckets = {
            labels["le"]: value
            for labels, value in by_name["task_seconds_bucket"]
        }
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        assert by_name["task_seconds_count"] == [({}, 3.0)]
        assert by_name["task_seconds_sum"][0][1] == pytest.approx(5.55)

    def test_help_escaping_roundtrip(self) -> None:
        registry = MetricsRegistry()
        registry.counter(
            "odd.counter", 'help with \\backslash and\nnewline'
        ).add(1)
        families = validate_prometheus_text(registry.prometheus_text())
        assert (
            families["odd_counter"]["help"]
            == "help with \\backslash and\nnewline"
        )

    def test_label_value_escaping_roundtrip(self) -> None:
        name = 'job "A"\\with\nall three'
        text = (
            "# TYPE demo gauge\n"
            f'demo{{entry="{escape_label_value(name)}"}} 1\n'
        )
        families = validate_prometheus_text(text)
        assert families["demo"]["samples"][0][1]["entry"] == name

    def test_parser_rejects_malformed(self) -> None:
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text(
                "# TYPE a counter\n# TYPE a counter\na 1\n"
            )
        with pytest.raises(ValueError, match="after its samples"):
            parse_prometheus_text("a 1\n# TYPE a counter\n")
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("not a sample !!\n")
        with pytest.raises(ValueError, match="unknown TYPE"):
            parse_prometheus_text("# TYPE a widget\n")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus_text("a one\n")

    def test_validator_rejects_broken_histograms(self) -> None:
        with pytest.raises(ValueError, match="missing explicit"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
            )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 2\nh_bucket{le="+Inf"} 1\n'
                "h_sum 1\nh_count 1\n"
            )
        with pytest.raises(ValueError, match="missing _sum"):
            validate_prometheus_text(
                '# TYPE h histogram\nh_bucket{le="+Inf"} 1\n'
            )
        with pytest.raises(ValueError, match="\\+Inf bucket != _count"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 1\nh_sum 1\nh_count 2\n'
            )


# -- derived analytics (mr.derived.* gauges) -------------------------------


class TestDerivedMetrics:
    def test_replication_rate_matches_counters(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        gauges = result.metrics.gauge_values()
        counters = result.counters.as_dict()
        assert gauges["mr.derived.replication.rate"] == (
            counters["map.output.records"] / counters["map.input.records"]
        )

    def test_shuffle_skew_matches_partitions(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        gauges = result.metrics.gauge_values()
        partitions = result.shuffle_bytes_per_reducer
        mean = sum(partitions) / len(partitions)
        assert gauges["mr.derived.shuffle.partition.max.bytes"] == max(
            partitions
        )
        assert gauges["mr.derived.shuffle.partition.mean.bytes"] == mean
        assert gauges["mr.derived.shuffle.skew"] == max(partitions) / mean

    def test_wave_quantiles_present(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        gauges = result.metrics.gauge_values()
        for kind in ("map", "reduce"):
            p50 = gauges[f"mr.derived.{kind}.wall.p50.seconds"]
            p95 = gauges[f"mr.derived.{kind}.wall.p95.seconds"]
            peak = gauges[f"mr.derived.{kind}.wall.max.seconds"]
            assert 0 <= p50 <= p95 <= peak
            assert gauges[f"mr.derived.{kind}.straggler.ratio"] >= 1.0

    def test_anti_decision_counts(self) -> None:
        job, splits = _anti_job()
        result = LocalJobRunner().run(job, splits)
        gauges = result.metrics.gauge_values()
        counters = result.counters.as_dict()
        assert (
            gauges["mr.derived.anti.eager.records"]
            == counters[C.ANTI_EAGER_RECORDS]
        )
        assert gauges["mr.derived.anti.eager.records"] > 0
        assert gauges["mr.derived.anti.plain.records"] == counters.get(
            C.ANTI_PLAIN_RECORDS, 0.0
        )

    def test_derived_gauges_stay_out_of_job_counters(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        assert not any(
            name.startswith("mr.derived.")
            for name in result.counters.as_dict()
        )


# -- export edge cases ------------------------------------------------------


class TestExportEdgeCases:
    def test_zero_job_jsonl_roundtrip(self, tmp_path) -> None:
        assert _recorded(tmp_path) == []

    def test_unicode_span_names_roundtrip(self, tmp_path) -> None:
        trace = JobTrace(
            job_name="naïve—job ✓",
            spans=[
                SpanRecord(
                    name="φάση.μap 🚀",
                    category="task",
                    start=0.0,
                    duration=1.0,
                    attrs={"task": "map0", "note": "héllo"},
                )
            ],
        )
        (restored,) = _recorded(
            tmp_path,
            JobResult(trace.job_name, {}, Counters(), spans=trace.spans),
        )
        assert restored.job_name == trace.job_name
        assert restored.spans == trace.spans
        # The Chrome document survives a strict JSON round-trip too.
        document = json.loads(json.dumps(chrome_trace([trace])))
        names = {e["name"] for e in document["traceEvents"]}
        assert "φάση.μap 🚀" in names

    def test_failed_attempt_slice_carries_error(self) -> None:
        job, splits = _wordcount()
        job = job.clone(max_task_attempts=2)
        runner = LocalJobRunner(fault_policy=ScriptedFaults({"map0": 1}))
        result = runner.run(job, splits)
        trace = JobTrace(job_name=job.name, spans=[], events=result.events)
        slices = [
            e
            for e in chrome_trace([trace])["traceEvents"]
            if e["ph"] == "X" and e["name"].endswith("[FAILED]")
        ]
        assert len(slices) == 1
        assert "error" in slices[0]["args"]
        assert "injected fault" in slices[0]["args"]["error"]

    def test_timed_out_and_killed_attempts_keep_their_slices(self) -> None:
        """Every member of ``ATTEMPT_ENDS`` closes a slice: the 0.3 s a
        wave waited on a hung attempt is on the track it was spent on."""
        slices = {
            e["name"]: e
            for e in chrome_trace([_timeout_and_kill_trace()])["traceEvents"]
            if e["ph"] == "X"
        }
        assert sorted(slices) == [
            "map0 attempt 1 [TIMEOUT]",
            "map0 attempt 2",
            "map1 attempt 1 [KILLED]",
            "map1 attempt 2",
            "reduce0 attempt 1 [FAILED]",
            "reduce0 attempt 2",
        ]
        timed_out = slices["map0 attempt 1 [TIMEOUT]"]
        assert (timed_out["ts"], timed_out["dur"]) == (0.0, 300_000.0)
        assert timed_out["tid"] == slices["map0 attempt 2"]["tid"]
        killed = slices["map1 attempt 1 [KILLED]"]
        assert (killed["ts"], killed["dur"]) == (0.0, 500_000.0)
        # Only a FAIL carries an error, only a FINISH output bytes.
        assert set(timed_out["args"]) == {"attempt", "cpu_seconds"}
        assert set(killed["args"]) == {"attempt", "cpu_seconds"}
        assert slices["reduce0 attempt 1 [FAILED]"]["args"]["error"] == "boom"
        assert "output_bytes" in slices["map0 attempt 2"]["args"]

    def test_chrome_trace_json_is_strictly_valid(self) -> None:
        job, splits = _anti_job()
        result = LocalJobRunner(tracer=Tracer()).run(job, splits)
        payload = json.dumps(chrome_trace([_trace_of(result)]))
        document = json.loads(payload)
        assert document["traceEvents"]
        # allow_nan=False would have raised on Infinity/NaN; check
        # explicitly that the payload is interchange-safe JSON.
        json.dumps(document, allow_nan=False)
