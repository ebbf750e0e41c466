"""Concurrency and crash-robustness tests for the run ledger.

The store's contract under many writers (the ``repro serve`` job
service, parallel CLI runs sharing one root):

* **No create TOCTOU** — ``mkdir`` is the claim; two processes racing
  the same manifest both succeed with distinct sequence-bumped ids.
* **Torn tails don't poison** — a crash mid-append leaves at most one
  partial final JSONL line; reads skip and count it instead of raising
  ``json.JSONDecodeError`` at every ``/runs``/``/metrics`` scrape.
* **Readers tolerate vanishing runs** — ``load_all`` racing a
  ``prune``/``delete`` skips the removed run instead of erroring the
  whole listing.
* **Config errors are loud** — a malformed ``REPRO_RUNS_KEEP`` raises
  a clear error instead of a bare ``ValueError`` (the ``REPRO_JOBS``
  precedent).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.run_store import (
    COMPLETED,
    ENTRIES_FILE,
    RunStore,
    RunStoreError,
)
from repro.obs.server import render_metrics


def _create_batch(args: tuple[str, int]) -> list[str]:
    """Create ``n`` runs from one process, all with the same manifest.

    A pinned ``started_unix`` makes every create hash to the same base
    run id, so every call contends on the same directory names —
    maximal pressure on the create loop.
    """
    root, n = args
    store = RunStore(root, keep=500)
    return [
        store.create(
            {"kind": "stress", "name": "same", "started_unix": 1000.0}
        ).run_id
        for _ in range(n)
    ]


class TestConcurrentCreate:
    def test_same_manifest_across_processes(self, tmp_path) -> None:
        # The old exists()-then-mkdir pre-check crashed a loser of this
        # race with FileExistsError; the claim-by-mkdir loop must give
        # every create a distinct id.
        procs, per_proc = 4, 5
        with ProcessPoolExecutor(max_workers=procs) as pool:
            batches = list(
                pool.map(
                    _create_batch,
                    [(str(tmp_path), per_proc)] * procs,
                )
            )
        ids = [run_id for batch in batches for run_id in batch]
        assert len(ids) == procs * per_proc
        assert len(set(ids)) == len(ids)
        store = RunStore(tmp_path, keep=500)
        assert sorted(store.run_ids()) == sorted(ids)
        # Every run directory has a readable manifest naming itself.
        for record in store.load_all():
            assert record.manifest["run_id"] == record.run_id

    def test_same_manifest_across_threads(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=500)
        ids: list[str] = []
        lock = threading.Lock()

        def create_some() -> None:
            for _ in range(8):
                run = store.create(
                    {"kind": "t", "name": "same", "started_unix": 2.0}
                )
                with lock:
                    ids.append(run.run_id)

        threads = [
            threading.Thread(target=create_some) for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(ids)) == len(ids) == 48


class TestTornTail:
    def _run_with_rows(self, tmp_path, rows: int = 2):
        store = RunStore(tmp_path, keep=500)
        run = store.create({"kind": "x", "name": "torn"})
        for index in range(rows):
            store.append_row(
                run.run_id,
                ENTRIES_FILE,
                {"index": index, "kind": "job", "name": f"j{index}",
                 "counters": {"c": 1.0}, "derived": {}},
            )
        return store, run

    def test_partial_final_line_is_skipped_and_counted(
        self, tmp_path
    ) -> None:
        store, run = self._run_with_rows(tmp_path)
        with (run.path / ENTRIES_FILE).open("ab") as handle:
            handle.write(b'{"index": 2, "cou')  # crash mid-append
        record = store.load(run.run_id)
        assert [entry["index"] for entry in record.entries] == [0, 1]
        assert store.torn_tail_lines == 1
        # Reloading counts again — the gauge tracks reads, not files.
        store.load(run.run_id)
        assert store.torn_tail_lines == 2

    def test_torn_tail_does_not_poison_the_scrape(self, tmp_path) -> None:
        from repro.obs.metrics import validate_prometheus_text

        store, run = self._run_with_rows(tmp_path)
        with (run.path / ENTRIES_FILE).open("ab") as handle:
            handle.write(b'{"truncated')
        store.write_status(run.run_id, {"status": COMPLETED})
        families = validate_prometheus_text(render_metrics(store))
        assert families["c"]["samples"][0][2] == 2.0
        torn = families["repro_store_torn_tail_lines"]["samples"]
        assert torn[0][2] == 1.0

    def test_corrupt_middle_line_still_raises(self, tmp_path) -> None:
        store, run = self._run_with_rows(tmp_path, rows=1)
        path = run.path / ENTRIES_FILE
        with path.open("ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"index": 1, "kind": "job", "name": "j1", '
                         b'"counters": {}, "derived": {}}\n')
        with pytest.raises(json.JSONDecodeError):
            store.load(run.run_id)

    def test_appended_rows_are_single_lines(self, tmp_path) -> None:
        store, run = self._run_with_rows(tmp_path, rows=3)
        lines = (run.path / ENTRIES_FILE).read_bytes().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


class TestAppendRows:
    """A job's rows land as one batch: the same torn-tail contract
    must hold for a batch as for a row."""

    ROWS = [
        {"index": index, "kind": "job", "name": f"j{index}",
         "counters": {"c": 1.0}, "derived": {}}
        for index in range(3)
    ]

    def _run_with_batch(self, tmp_path):
        store = RunStore(tmp_path, keep=500)
        run = store.create({"kind": "x", "name": "batch"})
        store.append_rows(run.run_id, ENTRIES_FILE, self.ROWS)
        return store, run

    def test_batch_is_the_rows_one_per_line(self, tmp_path) -> None:
        store, run = self._run_with_batch(tmp_path)
        single = store.create({"kind": "x", "name": "single"})
        for row in self.ROWS:
            store.append_row(single.run_id, ENTRIES_FILE, row)
        assert (run.path / ENTRIES_FILE).read_bytes() == (
            single.path / ENTRIES_FILE
        ).read_bytes()
        assert store.load(run.run_id).entries == self.ROWS

    def test_batch_truncated_mid_row_keeps_every_complete_row(
        self, tmp_path
    ) -> None:
        store, run = self._run_with_batch(tmp_path)
        path = run.path / ENTRIES_FILE
        with path.open("r+b") as handle:  # crash mid-write
            handle.truncate(path.stat().st_size - 9)
        record = store.load(run.run_id)
        assert record.entries == self.ROWS[:2]
        assert store.torn_tail_lines == 1

    def test_rows_after_a_torn_batch_still_raise(self, tmp_path) -> None:
        # The torn row is no longer the last line once anyone appends
        # behind it: that is corruption, not a crash tail.
        store, run = self._run_with_batch(tmp_path)
        path = run.path / ENTRIES_FILE
        with path.open("r+b") as handle:
            handle.truncate(path.stat().st_size - 9)
        store.append_rows(run.run_id, ENTRIES_FILE, self.ROWS)
        with pytest.raises(json.JSONDecodeError):
            store.load(run.run_id)

    def test_empty_batch_writes_nothing(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=500)
        run = store.create({"kind": "x", "name": "empty"})
        store.append_rows(run.run_id, ENTRIES_FILE, [])
        store.append_rows(run.run_id, ENTRIES_FILE, iter(()))
        assert not (run.path / ENTRIES_FILE).exists()


class TestVanishingRuns:
    def _store_with_finished(self, tmp_path, count: int) -> RunStore:
        store = RunStore(tmp_path, keep=500)
        for index in range(count):
            run = store.create(
                {"kind": "x", "name": f"r{index}",
                 "started_unix": 100.0 + index}
            )
            store.write_status(run.run_id, {"status": COMPLETED})
        return store

    def test_load_of_removed_run_raises_store_error(
        self, tmp_path
    ) -> None:
        store = self._store_with_finished(tmp_path, 1)
        (run_id,) = store.run_ids()
        store.delete(run_id)
        with pytest.raises(RunStoreError):
            store.load(run_id)

    def test_load_all_skips_runs_removed_underneath(
        self, tmp_path
    ) -> None:
        store = self._store_with_finished(tmp_path, 4)
        ids = store.run_ids()
        # Simulate the race: the listing is taken, then a concurrent
        # prune removes a run before the loads happen.
        store.delete(ids[1])
        records = store.load_all()
        assert [record.run_id for record in records] == [
            ids[0], ids[2], ids[3],
        ]

    def test_scrapes_survive_prune_and_delete_under_load(
        self, tmp_path
    ) -> None:
        store = self._store_with_finished(tmp_path, 24)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    store.load_all()
                    render_metrics(store)
            except BaseException as exc:  # noqa: BLE001 - test net
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            # Two writers prune concurrently down to 1 run while the
            # readers keep listing/scraping.
            pruners = [
                threading.Thread(target=store.prune, args=(1,))
                for _ in range(2)
            ]
            for thread in pruners:
                thread.start()
            for thread in pruners:
                thread.join()
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not errors
        assert len(store.run_ids()) == 1

    def test_concurrent_prunes_tolerate_lost_rmtree_race(
        self, tmp_path
    ) -> None:
        store = self._store_with_finished(tmp_path, 10)
        results: list[list[str]] = []
        lock = threading.Lock()

        def prune() -> None:
            removed = store.prune(2)
            with lock:
                results.append(removed)

        threads = [threading.Thread(target=prune) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.run_ids()) == 2


class TestRetentionConfig:
    def test_malformed_keep_env_raises_clear_error(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_RUNS_KEEP", "sixty-four")
        with pytest.raises(RunStoreError, match="REPRO_RUNS_KEEP"):
            RunStore(tmp_path)

    def test_zero_keep_rejected(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_RUNS_KEEP", "0")
        with pytest.raises(RunStoreError, match="at least one"):
            RunStore(tmp_path)

    def test_valid_keep_env_still_parses(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_RUNS_KEEP", " 7 ")
        assert RunStore(tmp_path).keep == 7
