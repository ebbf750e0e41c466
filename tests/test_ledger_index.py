"""The ledger index: a warm store must be indistinguishable from a cold one.

``RunStore`` keeps the record of every finished run it has read (a
bundle whose ``status.json`` is not ``running`` can no longer change)
and validates each lookup against one directory listing.  The oracle
for all of it is a **fresh** ``RunStore`` on the same root, which has
no index to be wrong:

* **Differential** — after every step of a seeded interleaving of
  creates, appends, finalisations, deletes, prunes and torn tails,
  issued through the warm store, through a second store and through
  another *process*, the warm store answers ``load_all`` / ``run_ids``
  / ``resolve`` / ``render_metrics`` exactly as a cold one does.
* **Exact sums** — the ledger aggregate's counter sums are kept as
  runs come and go, so the same differential runs again with weights
  whose float sum depends on order, and the accumulator alone is held
  to ``math.fsum`` of whatever is still in it.
* **Work count** — bundles read from disk per {finalize, scrape,
  ``GET /runs``, ``GET /runs/<id>``} do not depend on ledger size, and
  neither do a scrape's lines, bytes and ``mr_derived_*`` samples.
* **Read order** — ``status.json`` is read first, so nothing stale is
  ever kept beside a finished status.
* **Stress** — scrapes stay valid and the index stays right while
  recorders finalize and retention deletes underneath them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.obs import run_store
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.metrics import validate_prometheus_text
from repro.obs.run_store import (
    COMPLETED,
    ENTRIES_FILE,
    FAILED,
    RUNNING,
    ExactSum,
    RunStore,
    RunStoreError,
)
from repro.obs.server import ObservabilityServer, render_metrics
from tests import ledger_ops

#: The caller's environment with this checkout's ``src`` importable.
ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
}


def _in_another_process(root: Path, ops: list[dict]) -> None:
    subprocess.run(
        [sys.executable, ledger_ops.__file__, str(root), json.dumps(ops)],
        check=True,
        env=ENV,
        timeout=60,
    )


def _get(server: ObservabilityServer, path: str) -> str:
    with urllib.request.urlopen(server.url + path) as response:
        return response.read().decode()


def _resolve(store: RunStore, prefix: str) -> str:
    try:
        return store.resolve(prefix)
    except RunStoreError as exc:
        return f"error: {exc}"


def _load(store: RunStore, run_id: str) -> object:
    try:
        return store.load(run_id)
    except RunStoreError as exc:
        return f"error: {exc}"


def _view(store: RunStore, ever: frozenset[str] = frozenset()) -> dict:
    """Everything a reader can ask of the ledger, minus the store's
    own read counters (which are what differs by design).  ``ever``
    names runs to ask for by id whether or not they still exist."""
    run_ids = store.run_ids()
    return {
        "records": store.load_all(),
        "loads": [_load(store, run_id) for run_id in sorted(ever)],
        "run_ids": run_ids,
        "resolve": [
            _resolve(store, prefix)
            for prefix in ["1970", "nope", *run_ids]
        ],
        "metrics": [
            line
            for line in render_metrics(store).splitlines()
            if not line.startswith("repro_store_")
        ],
    }


def _finished_run(store: RunStore, tag: int) -> str:
    run = store.create(
        {"kind": "t", "name": f"r{tag}", "started_unix": 1000.0 + tag}
    )
    for op in (
        {"op": "append", "indexes": [0, 1], "weight": float(tag)},
        {"op": "finish", "status": COMPLETED, "total": float(tag)},
    ):
        ledger_ops.apply(store, {**op, "run": run.run_id})
    return run.run_id


# -- the differential ---------------------------------------------------------
class TestWarmEqualsCold:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_interleaving(self, tmp_path, seed: int) -> None:
        rng = random.Random(seed)
        stores = {
            "warm": RunStore(tmp_path, keep=1000),
            "second": RunStore(tmp_path, keep=1000),
        }
        warm = stores["warm"]
        torn: set[str] = set()
        ever: set[str] = set()
        for step in range(30):
            ledger = RunStore(tmp_path, keep=1000).load_all()
            ever.update(record.run_id for record in ledger)
            running = [r for r in ledger if r.status_name == RUNNING]
            # A torn tail means its writer died: nobody appends again.
            writable = [r for r in running if r.run_id not in torn]
            finished = len(ledger) - len(running)
            kind = rng.choice(
                ["create"]
                + ["append", "append", "tear"] * bool(writable)
                + ["finish", "finish"] * bool(running)
                + ["delete"] * bool(ledger)
                + ["prune"] * (finished > 2)
            )
            op: dict = {"op": kind}
            if kind == "create":
                op.update(name=f"r{step}", started=1000.0 + step)
            elif kind == "append":
                record = rng.choice(writable)
                have = len(record.entries)
                op.update(
                    run=record.run_id,
                    indexes=list(range(have, have + rng.randint(0, 3))),
                    weight=float(step),
                )
            elif kind == "tear":
                op.update(run=rng.choice(writable).run_id)
                torn.add(op["run"])
            elif kind == "finish":
                op.update(
                    run=rng.choice(running).run_id,
                    status=rng.choice([COMPLETED, FAILED]),
                    total=float(step),
                )
            elif kind == "delete":
                op.update(run=rng.choice(ledger).run_id)
            else:
                op.update(keep=rng.randint(1, finished - 1))
            actor = rng.choice(
                ["warm", "warm", "second", "second", "second", "process"]
            )
            if actor == "process":
                _in_another_process(tmp_path, [op])
            else:
                ledger_ops.apply(stores[actor], op)
            probe = frozenset(ever)
            cold = RunStore(tmp_path, keep=1000)
            assert _view(warm, probe) == _view(cold, probe), (
                f"seed {seed}, step {step}: {actor} {op}"
            )
            # Retention bounds the index: it holds no run the ledger
            # has lost, whoever removed it.
            assert set(warm._index) <= set(cold.run_ids())

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_seeded_interleaving_of_fractional_weights(
        self, tmp_path, seed: int
    ) -> None:
        """The same ops with weights whose float sum depends on the
        order they are added in — and, kept with ``+=`` / ``-=``, on
        what was added and taken out in between.  The warm store's
        sums have been through every add and removal; the cold one
        adds the survivors once, in listing order."""
        rng = random.Random(seed)
        stores = {
            "warm": RunStore(tmp_path, keep=1000),
            "second": RunStore(tmp_path, keep=1000),
        }
        warm = stores["warm"]
        for step in range(40):
            ledger = RunStore(tmp_path, keep=1000).load_all()
            running = [r for r in ledger if r.status_name == RUNNING]
            finished = len(ledger) - len(running)
            kind = rng.choice(
                ["create"]
                + ["append", "append", "finish"] * bool(running)
                + ["delete"] * (finished > 0)
                + ["prune"] * (finished > 2)
            )
            op: dict = {"op": kind}
            if kind == "create":
                op.update(name=f"r{step}", started=1000.0 + step)
            elif kind == "append":
                record = rng.choice(running)
                have = len(record.entries)
                op.update(
                    run=record.run_id,
                    indexes=[have, have + 1],
                    weight=rng.choice([0.1 * step, 1e16, -1e16, 3e-7]),
                )
            elif kind == "finish":
                op.update(
                    run=rng.choice(running).run_id,
                    status=rng.choice([COMPLETED, FAILED]),
                    total=float(step),
                )
            elif kind == "delete":
                op.update(
                    run=rng.choice(
                        [r for r in ledger if r.status_name != RUNNING]
                    ).run_id
                )
            else:
                op.update(keep=rng.randint(1, finished - 1))
            actor = rng.choice(["warm", "second", "second", "process"])
            if actor == "process":
                _in_another_process(tmp_path, [op])
            else:
                ledger_ops.apply(stores[actor], op)
            assert _view(warm) == _view(RunStore(tmp_path, keep=1000)), (
                f"seed {seed}, step {step}: {actor} {op}"
            )

    def test_sums_do_not_remember_what_left(self, tmp_path) -> None:
        """``(0.1 + 1e16 + 0.2) - 1e16`` is ``0.0`` in floats; the
        scrape after the ``1e16`` run is deleted says ``0.3``."""
        store = RunStore(tmp_path, keep=1000)
        runs = {}
        for tag, weight in enumerate([0.1, 1e16, 0.2, 3e-7]):
            run = store.create(
                {"kind": "t", "name": f"r{tag}", "started_unix": 1000.0 + tag}
            )
            runs[weight] = run.run_id
            for op in (
                {"op": "append", "indexes": [0], "weight": weight},
                {"op": "finish", "status": COMPLETED, "total": float(tag)},
            ):
                ledger_ops.apply(store, {**op, "run": run.run_id})
        assert "\nmap_input_records 1e+16\n" in render_metrics(store)
        _in_another_process(tmp_path, [{"op": "delete", "run": runs[1e16]}])
        expected = math.fsum([0.1, 0.2, 3e-7])
        assert f"\nmap_input_records {expected!r}\n" in render_metrics(store)
        assert _view(store) == _view(RunStore(tmp_path, keep=1000))

    def test_running_run_is_reread_and_finished_run_is_not(
        self, tmp_path
    ) -> None:
        store = RunStore(tmp_path, keep=1000)
        run = store.create({"kind": "t", "name": "live"})
        for have in range(3):
            assert len(store.load(run.run_id).entries) == have
            store.append_row(
                run.run_id, ENTRIES_FILE, ledger_ops.entry_row(have, 1.0)
            )
        assert store.bundle_reads == 3
        store.write_status(run.run_id, {"status": COMPLETED})
        first = store.load(run.run_id)
        assert store.load(run.run_id) is first
        assert store.load_all() == [first]
        assert store.bundle_reads == 4

    def test_stray_entries_in_the_root_are_not_runs(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=1000)
        run_id = _finished_run(store, 1)
        (tmp_path / "README").write_text("not a run\n")
        (tmp_path / "half-made").mkdir()
        assert store.run_ids() == [run_id]
        assert [r.run_id for r in store.load_all()] == [run_id]
        with pytest.raises(RunStoreError, match="no run matching"):
            store.load("README")


class TestCrossProcessCoherence:
    def test_served_ledger_follows_other_processes(self, tmp_path) -> None:
        """A warm server sees a `repro run --record` process's run on
        the next request, and stops seeing one another process deleted
        — nothing is restarted."""
        store = RunStore(tmp_path, keep=1000)
        kept = _finished_run(store, 1)
        server = ObservabilityServer(store).start()
        try:

            def get(path: str) -> str:
                return _get(server, path)

            def listed() -> list[str]:
                return [run["run_id"] for run in json.loads(get("/runs"))]

            assert listed() == [kept]  # warm
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "run", "wordcount",
                    "--runs-dir", str(tmp_path),
                    "--num-lines", "30", "--num-splits", "2",
                ],
                check=True,
                env={**ENV, "REPRO_RUNS_KEEP": "1000"},
                capture_output=True,
                timeout=120,
            )
            (recorded,) = set(listed()) - {kept}
            assert f'run="{recorded}"' in get("/metrics")
            assert json.loads(get(f"/runs/{recorded}"))["counters"]

            _in_another_process(tmp_path, [{"op": "delete", "run": kept}])
            assert listed() == [recorded]
            assert f'run="{kept}"' not in get("/metrics")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"/runs/{kept}")
            assert excinfo.value.code == 404
        finally:
            server.stop()


# -- the accumulator alone ----------------------------------------------------
class TestExactSum:
    #: Magnitudes whose sum cannot overflow within one example.
    FINITE = st.floats(
        min_value=-1e300, max_value=1e300, allow_nan=False
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(FINITE, st.integers(min_value=0)), max_size=80))
    @example([1e16, 1.0, -1e16])
    @example([1e16, 1.0, 0])  # (1e16 + 1.0) - 1e16 is 0.0 in floats
    @example([0.1, 0.2, 0.3, 1, 0, 0])
    def test_value_is_fsum_of_what_is_still_in(self, steps) -> None:
        """A float step adds it; an integer step takes back out the
        value at that position (modulo) among those still in."""
        total = ExactSum()
        still_in: list[float] = []
        for step in steps:
            if isinstance(step, float):
                total.add(step)
                still_in.append(step)
            elif still_in:
                total.take(still_in.pop(step % len(still_in)))
            assert math.fsum(total.partials) == math.fsum(still_in)
            assert total.terms == len(still_in)


# -- deterministic work count --------------------------------------------------
def _derived_samples(text: str) -> list[str]:
    """The ``run`` label of every ``mr_derived_*`` sample of a scrape."""
    return [
        labels["run"]
        for name, family in validate_prometheus_text(text).items()
        if name.startswith("mr_derived_")
        for _, labels, _ in family["samples"]
    ]


class TestScrapeBound:
    def test_scrape_size_does_not_depend_on_ledger_size(
        self, tmp_path
    ) -> None:
        """Lines and ``mr_derived_*`` samples of a scrape are the same
        at 20 and at 200 finished two-job runs (the parent: 30 more
        lines per run), and one run's series more per run in flight."""
        store = RunStore(tmp_path, keep=500)
        sizes = {}
        for size in (20, 200):
            for tag in range(len(store.run_ids()), size):
                newest = _finished_run(store, tag)
            text = render_metrics(store)
            assert len(text.encode()) < 16 * 1024
            assert _derived_samples(text) == [newest, newest]
            sizes[size] = text.count("\n")
        assert sizes[20] == sizes[200]

        flying = []
        for n in (1, 2):
            run = store.create({"kind": "t", "name": f"live{n}"})
            flying.append(run.run_id)
            ledger_ops.apply(
                store,
                {"op": "append", "run": run.run_id, "indexes": [0, 1],
                 "weight": 1.0},
            )
            text = render_metrics(store)
            assert sorted(_derived_samples(text)) == sorted(
                [newest, newest] + flying * 2
            )
            assert text.count("\n") == sizes[200] + 2 * n

    def test_series_follow_the_newest_finished_run(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=500)
        older = _finished_run(store, 1)
        newer = _finished_run(store, 2)
        assert _derived_samples(render_metrics(store)) == [newer] * 2
        run = store.create({"kind": "t", "name": "live"})
        ledger_ops.apply(
            store,
            {"op": "append", "run": run.run_id, "indexes": [0], "weight": 1.0},
        )
        # Finishing last makes it the newest, failed or not, whatever
        # its id sorts as.
        ledger_ops.apply(
            store,
            {"op": "finish", "run": run.run_id, "status": FAILED,
             "total": 3.0},
        )
        assert _derived_samples(render_metrics(store)) == [run.run_id]
        # Deleted — by another process — the series go back to the
        # newest that is left, and again.
        _in_another_process(tmp_path, [{"op": "delete", "run": run.run_id}])
        assert _derived_samples(render_metrics(store)) == [newer] * 2
        store.delete(newer)
        assert _derived_samples(render_metrics(store)) == [older] * 2
        store.delete(older)
        assert _derived_samples(render_metrics(store)) == []

    @pytest.mark.parametrize("how", ["delete", "process", "prune"])
    def test_family_of_a_run_that_left_is_absent(
        self, tmp_path, how: str
    ) -> None:
        """A counter only a pruned or deleted run contributed is gone
        from the next scrape — dropped, not left at 0."""
        store = RunStore(tmp_path, keep=500)
        run = store.create({"kind": "t", "name": "odd", "started_unix": 1.0})
        store.append_row(
            run.run_id,
            ENTRIES_FILE,
            {"index": 0, "kind": "job", "name": "odd",
             "counters": {"only.here": 0.5}, "derived": {}},
        )
        store.write_status(run.run_id, {"status": COMPLETED})
        _finished_run(store, 1)
        _finished_run(store, 2)
        assert "\nonly_here 0.5\n" in render_metrics(store)
        if how == "delete":
            store.delete(run.run_id)
        elif how == "process":
            _in_another_process(
                tmp_path, [{"op": "delete", "run": run.run_id}]
            )
        else:
            assert store.prune(2) == [run.run_id]
        text = render_metrics(store)
        assert "only_here" not in text
        assert "\nmap_input_records 6\n" in text  # the others stay

    def test_two_first_readers_fold_a_bundle_once(
        self, tmp_path, monkeypatch
    ) -> None:
        run_id = _finished_run(RunStore(tmp_path, keep=1000), 3)
        store = RunStore(tmp_path, keep=1000)
        both_inside = threading.Barrier(2)
        real_read = run_store._read_jsonl

        def read_together(path, on_torn_tail=None):
            rows = real_read(path, on_torn_tail)
            both_inside.wait(30)
            return rows

        readers = [
            threading.Thread(target=store.load, args=(run_id,))
            for _ in range(2)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(run_store, "_read_jsonl", read_together)
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(60)
        assert not any(thread.is_alive() for thread in readers)
        assert store.bundle_reads == 2  # both did read it
        assert "\nmap_input_records 6\n" in render_metrics(store)
        assert _view(store) == _view(RunStore(tmp_path, keep=1000))


class TestBundleReads:
    @pytest.mark.parametrize(
        "size, keep", [(20, 500), (200, 500), (20, 20), (200, 200)]
    )
    def test_reads_per_request_do_not_depend_on_ledger_size(
        self, tmp_path, size: int, keep: int
    ) -> None:
        """One finalize + one scrape + ``GET /runs`` + ``GET /runs/<id>``
        read exactly the one bundle that is new — at 20 runs and at
        200, below retention and at it (the parent read ≈ 3 × size)."""
        store = RunStore(tmp_path, keep=keep)
        for tag in range(size):
            _finished_run(store, tag)
        server = ObservabilityServer(store).start()
        try:
            _get(server, "/metrics")  # warm: every bundle read once
            assert store.bundle_reads == size
            recorder = FlightRecorder(store, kind="experiment", name="new")
            recorder.finalize(COMPLETED)
            families = validate_prometheus_text(_get(server, "/metrics"))
            runs = json.loads(_get(server, "/runs"))
            detail = json.loads(_get(server, f"/runs/{recorder.run_id}"))
        finally:
            server.stop()
        assert store.bundle_reads - size == 1
        (sample,) = families["repro_store_bundle_reads"]["samples"]
        assert sample[2] == size + 1
        assert len(runs) == min(size + 1, keep)
        assert detail["status"] == COMPLETED

    def test_prune_below_retention_loads_nothing(self, tmp_path) -> None:
        store = RunStore(tmp_path, keep=5)
        for tag in range(5):
            _finished_run(store, tag)
        assert store.prune() == []
        assert store.bundle_reads == 0
        oldest = store.run_ids()[0]
        _finished_run(store, 5)
        assert store.prune() == [oldest]
        assert store.bundle_reads == 6
        assert oldest not in [r.run_id for r in store.load_all()]
        assert store.bundle_reads == 6


# -- read order ------------------------------------------------------------------
class TestReadOrder:
    def test_finished_status_never_carries_stale_counters(
        self, tmp_path, monkeypatch
    ) -> None:
        """``finalize`` writes counters, metrics, then status.  Reading
        counters *before* status let a racing reader pair a finished
        status with ``counters: None`` — which an index would keep."""
        store = RunStore(tmp_path, keep=1000)
        recorder = FlightRecorder(store, kind="experiment", name="race")
        real_read = run_store._read_json
        reads = 0

        def finalize_between_reads(path, default=None):
            nonlocal reads
            document = real_read(path, default)
            reads += 1
            if reads == 1:
                recorder.finalize(COMPLETED)
            return document

        monkeypatch.setattr(run_store, "_read_json", finalize_between_reads)
        racing = RunStore(tmp_path, keep=1000)
        record = racing.load(recorder.run_id)
        assert record.status_name == RUNNING or record.counters is not None
        settled = racing.load(recorder.run_id)
        assert settled.status_name == COMPLETED
        assert settled.counters is not None


# -- stress ------------------------------------------------------------------------
class TestScrapesWhileRecordersFinalize:
    def test_every_scrape_validates_and_index_matches_cold(
        self, tmp_path
    ) -> None:
        # keep=6: every finalize's prune deletes under the scrapers.
        store = RunStore(tmp_path, keep=6)
        errors: list[BaseException] = []
        scrapes = [0] * 8
        stop = threading.Event()

        def scraper(slot: int) -> None:
            try:
                while not stop.is_set():
                    validate_prometheus_text(render_metrics(store))
                    scrapes[slot] += 1
            except BaseException as exc:  # noqa: BLE001 - test net
                errors.append(exc)

        def recorder(slot: int) -> None:
            try:
                for index in range(25):
                    rec = FlightRecorder(
                        store, kind="experiment", name=f"w{slot}-{index}"
                    )
                    store.append_rows(
                        rec.run_id,
                        ENTRIES_FILE,
                        [ledger_ops.entry_row(n, float(index)) for n in (0, 1)],
                    )
                    rec.finalize(COMPLETED if index % 5 else FAILED)
            except BaseException as exc:  # noqa: BLE001 - test net
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [
                threading.Thread(target=scraper, args=(slot,))
                for slot in range(8)
            ]
            writers = [
                threading.Thread(target=recorder, args=(slot,))
                for slot in range(2)
            ]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(120)
            deadline = time.monotonic() + 60
            while not all(scrapes) and not errors:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stop.set()
            for thread in readers:
                thread.join(60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + writers)
        assert not errors, errors
        assert len(store.run_ids()) == 6
        assert _view(store) == _view(RunStore(tmp_path, keep=6))
