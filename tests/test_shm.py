"""Shared-memory shuffle plane: transport, leases, leaks, fused dispatch.

The plane's contract (DESIGN.md §13) is transport-only equivalence
plus airtight block lifecycle: every ``SharedMemory`` block a job
publishes is unlinked by the time the job ends — after successful
runs, failed runs, task timeouts and worker-crash pool rebuilds — with
no ``/dev/shm`` residue and no resource-tracker warnings.  The
counter-equivalence half of the contract lives in
``tests/test_counter_invariance.py``; this module pins the mechanics.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.datagen.qlog import generate_query_log
from repro.mr import shm
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import (
    ParallelExecutor,
    SerialExecutor,
    WorkerCrashError,
)
from repro.mr.scheduler import ScriptedFaults, TaskFailedError
from repro.mr.segment import SegmentPayload
from repro.mr.split import split_records
from repro.workloads.query_suggestion import query_suggestion_job


def _shm_residue() -> list[str]:
    """Blocks of *any* repro job currently lingering in /dev/shm."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-POSIX host
        return []
    return [name for name in names if name.startswith("repro-shm-")]


def _job_and_splits(**knobs):
    records = generate_query_log(150, seed=7)
    job = query_suggestion_job(
        num_reducers=2,
        sort_buffer_bytes=4096,
        cost_meter=FixedCostMeter(),
        **knobs,
    )
    return job, split_records(records, num_splits=4)


def _payload(partition: int, data: bytes) -> SegmentPayload:
    return SegmentPayload(
        name=f"map0/out{partition}",
        partition=partition,
        record_count=3,
        raw_bytes=len(data),
        codec_name=None,
        data=data,
        origin="map0",
    )


pytestmark = pytest.mark.skipif(
    not shm.available(), reason="POSIX shared memory unavailable"
)


class TestPublishAttach:
    def test_round_trip_preserves_bytes_and_metadata(self) -> None:
        arena = shm.SegmentArena()
        try:
            segments = {
                0: _payload(0, b"alpha-bytes"),
                1: _payload(1, b"beta"),
            }
            published = shm.publish_segments(arena.prefix, segments)
            assert published is not None
            arena.adopt_segments(published)
            for partition, payload in published.items():
                original = segments[partition]
                assert isinstance(payload, shm.ShmSegmentPayload)
                assert bytes(payload.data) == original.data
                assert payload.size_bytes == original.size_bytes
                assert payload.record_count == original.record_count
                assert payload.raw_bytes == original.raw_bytes
                assert payload.name == original.name
            # Both partitions share one block.
            assert arena.stats.blocks == 1
            assert arena.stats.bytes == len(b"alpha-bytes") + len(b"beta")
        finally:
            shm.release_attachments()
            arena.close()
        assert not _shm_residue()

    def test_descriptor_pickles_without_the_bytes(self) -> None:
        arena = shm.SegmentArena()
        try:
            data = os.urandom(64 * 1024)
            published = shm.publish_segments(
                arena.prefix, {0: _payload(0, data)}
            )
            assert published is not None
            blob = pickle.dumps(published[0], protocol=5)
            # The descriptor is coordinates + metadata, not payload.
            assert len(blob) < 1024
            clone = pickle.loads(blob)
            assert bytes(clone.data) == data
        finally:
            shm.release_attachments()
            arena.close()
        assert not _shm_residue()

    def test_empty_segments_publish_nothing(self) -> None:
        assert shm.publish_segments("repro-shm-test-", {}) is None

    def test_lease_lifecycle_unlinks_at_zero(self) -> None:
        arena = shm.SegmentArena()
        published = shm.publish_segments(
            arena.prefix, {0: _payload(0, b"x" * 128)}
        )
        assert published is not None
        arena.adopt_segments(published)
        plan = [[published[0]], [published[0]]]
        arena.lease_plan(plan)
        assert arena.stats.leases_granted == 2
        arena.release_plan_entry(plan[0])
        # One consumer left: the block must still exist.
        assert _shm_residue()
        arena.release_plan_entry(plan[1])
        assert not _shm_residue()
        assert arena.close().swept == 0

    def test_close_sweeps_unreleased_blocks(self) -> None:
        arena = shm.SegmentArena()
        published = shm.publish_segments(
            arena.prefix, {0: _payload(0, b"y" * 128)}
        )
        assert published is not None
        arena.adopt_segments(published)
        arena.lease_plan([[published[0]]])
        # No release: close() must unlink anyway (failed-run path).
        stats = arena.close()
        assert not _shm_residue()
        assert stats.blocks == 1


class TestJobLifecycle:
    """End-to-end: no /dev/shm residue whatever the job's fate."""

    def test_successful_pool_run_leaves_no_residue(self) -> None:
        job, splits = _job_and_splits()
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(executor=pool).run(job, splits)
        assert not _shm_residue()
        gauges = result.metrics.gauge_values()
        assert gauges["mr.shm.blocks"] >= 1.0
        assert gauges["mr.shm.fallbacks"] == 0.0
        assert (
            gauges["mr.shm.leases.granted"]
            == gauges["mr.shm.leases.released"]
        )
        # The plane really carried the shuffle.
        assert gauges["mr.shm.bytes"] > 0.0
        serial = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        assert result.sorted_output() == serial.sorted_output()
        assert result.counters.as_dict() == serial.counters.as_dict()

    def test_failed_run_leaves_no_residue(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=1)
        with ParallelExecutor(max_workers=2) as pool:
            with pytest.raises(Exception):
                LocalJobRunner(
                    executor=pool,
                    fault_policy=ScriptedFaults(
                        faults={"reduce0": ["fail"]}
                    ),
                ).run(job, splits)
        assert not _shm_residue()

    def test_exhausted_retries_leave_no_residue(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=2)
        with ParallelExecutor(max_workers=2) as pool:
            with pytest.raises(TaskFailedError):
                LocalJobRunner(
                    executor=pool,
                    fault_policy=ScriptedFaults(
                        faults={"reduce1": ["fail", "fail"]}
                    ),
                ).run(job, splits)
        assert not _shm_residue()

    def test_task_timeout_leaves_no_residue(self) -> None:
        job, splits = _job_and_splits(
            max_task_attempts=2,
            task_timeout_seconds=0.3,
        )
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(
                    faults={"reduce0": [("hang", 1.5)]}
                ),
            ).run(job, splits)
        assert not _shm_residue()
        serial = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        assert result.sorted_output() == serial.sorted_output()

    def test_late_publish_after_map_timeout_is_discarded(self) -> None:
        """A map attempt abandoned by the task timeout keeps running on
        a caller-owned pool that outlives the job, and publishes its
        block after the job's arena has closed and swept.  The executor
        issued the prefix and took the abandon: it unlinks the block
        when the attempt lands, and again on ``close()``."""
        job, splits = _job_and_splits(
            max_task_attempts=3,
            task_timeout_seconds=0.3,
        )
        pool = ParallelExecutor(3)
        try:
            result = LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(
                    faults={"map0": [("hang", 1.5)]}
                ),
            ).run(job, splits)
            assert len(result.events.timeouts()) == 1
            assert not _shm_residue()
            # The hung attempt wakes ~1.2 s after the job ended, runs
            # the map task and publishes under the closed job's prefix.
            time.sleep(2.0)
            assert not _shm_residue()
        finally:
            pool.close()
        assert not _shm_residue()
        serial = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        assert result.sorted_output() == serial.sorted_output()

    def test_worker_crash_rebuild_leaves_no_residue(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=2)
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(
                    faults={"map0": ["crash"]}
                ),
            ).run(job, splits)
        assert not _shm_residue()
        serial = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
        assert result.sorted_output() == serial.sorted_output()
        assert result.counters.as_dict() == serial.counters.as_dict()

    def test_serial_executor_bypasses_the_plane(self) -> None:
        job, splits = _job_and_splits()
        result = LocalJobRunner(executor=SerialExecutor()).run(
            job, splits
        )
        assert "mr.shm.blocks" not in result.metrics.gauge_values()
        assert not _shm_residue()

    def test_disabled_plane_keeps_pickle_path(self, monkeypatch) -> None:
        """A host without POSIX shared memory gets no arena: the pool
        ships segment bytes inline (pickle-5 out-of-band) instead."""
        job, splits = _job_and_splits()
        with ParallelExecutor(max_workers=2) as pool:
            with_plane = LocalJobRunner(executor=pool).run(job, splits)
            monkeypatch.setattr(shm, "available", lambda: False)
            assert pool.open_arena() is None
            result = LocalJobRunner(executor=pool).run(job, splits)
        assert "mr.shm.blocks" not in result.metrics.gauge_values()
        assert "mr.shm.blocks" in with_plane.metrics.gauge_values()
        assert result.sorted_output() == with_plane.sorted_output()
        assert result.counters.as_dict() == with_plane.counters.as_dict()
        assert not _shm_residue()


def test_no_resource_tracker_warnings() -> None:
    """A recorded pool run under ``-W error`` emits no ResourceWarning
    and no resource-tracker leak chatter on stderr."""
    code = (
        "import warnings\n"
        "warnings.simplefilter('error', ResourceWarning)\n"
        "from repro.datagen.qlog import generate_query_log\n"
        "from repro.mr.split import split_records\n"
        "from repro.mr.engine import LocalJobRunner\n"
        "from repro.mr.executor import ParallelExecutor\n"
        "from repro.workloads.query_suggestion import query_suggestion_job\n"
        "records = generate_query_log(120, seed=3)\n"
        "splits = split_records(records, num_splits=4)\n"
        "job = query_suggestion_job(num_reducers=2)\n"
        "with ParallelExecutor(max_workers=2) as pool:\n"
        "    LocalJobRunner(executor=pool).run(job, splits)\n"
        "print('done')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "done" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr


# -- fused dispatch ---------------------------------------------------------


_MARKER_VALUE = 17


def _fused_square(value: int) -> int:
    return value * value


def _fused_maybe_fail(value: int) -> int:
    if value == _MARKER_VALUE:
        raise ValueError("scripted task failure")
    return value + 1


def _crash_unless_marker(marker: str, sibling: str, value: int) -> int:
    """Crash the hosting worker once per marker file, then run clean.

    A dying worker breaks the pool, which kills the other workers
    wherever they are — so before dying, wait (bounded) for the
    ``sibling`` marker: both crashes then happen for certain, whichever
    worker the pool notices first.
    """
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        deadline = time.monotonic() + 10.0
        while not os.path.exists(sibling) and time.monotonic() < deadline:
            time.sleep(0.005)
        os._exit(13)
    return value * 10


class TestFusedDispatch:
    def test_results_in_submission_order(self) -> None:
        with ParallelExecutor(max_workers=2) as pool:
            futures = pool.submit_many(
                _fused_square, [(i,) for i in range(7)]
            )
            assert [f.result() for f in futures] == [
                i * i for i in range(7)
            ]

    def test_task_failure_stays_in_its_slice(self) -> None:
        with ParallelExecutor(max_workers=1) as pool:
            # One worker → one fused chunk: the failure must not
            # poison its chunk-mates.
            futures = pool.submit_many(
                _fused_maybe_fail, [(1,), (_MARKER_VALUE,), (3,)]
            )
            assert futures[0].result() == 2
            with pytest.raises(ValueError):
                futures[1].result()
            assert futures[2].result() == 4

    def test_slice_cancel_always_fails(self) -> None:
        with ParallelExecutor(max_workers=1) as pool:
            futures = pool.submit_many(_fused_square, [(1,), (2,)])
            assert futures[0].cancel() is False
            [f.result() for f in futures]

    def test_chunk_crash_surfaces_worker_crash_and_rebuilds(
        self, tmp_path
    ) -> None:
        with ParallelExecutor(max_workers=2) as pool:
            markers = [str(tmp_path / "a"), str(tmp_path / "b")]
            # Two chunks of two; each chunk's first task kills its
            # worker, losing the chunk-mate with it.
            argsets = [
                (markers[0], markers[1], 0),
                (markers[0], markers[1], 1),
                (markers[1], markers[0], 2),
                (markers[1], markers[0], 3),
            ]
            futures = pool.submit_many(_crash_unless_marker, argsets)
            crashed = 0
            for future in futures:
                try:
                    future.result()
                except WorkerCrashError:
                    crashed += 1
            assert crashed == len(futures)
            assert pool.rebuild()
            retry = pool.submit_many(_crash_unless_marker, argsets)
            assert [f.result() for f in retry] == [0, 10, 20, 30]

    def test_serial_submit_many_matches_submit(self) -> None:
        pool = SerialExecutor()
        futures = pool.submit_many(_fused_square, [(2,), (3,)])
        assert [f.result() for f in futures] == [4, 9]
