"""The persistent run ledger: content-addressed run directories.

Every recorded run (an experiment, with the jobs and pipelines it
drove) lives in its own directory under the store root (``.repro/runs``
by default, ``REPRO_RUNS_DIR`` overrides)::

    .repro/runs/<run_id>/
        manifest.json   # what ran: kind, name, params, env, schema
        status.json     # running | completed | failed (+ error)
        entries.jsonl   # one row per recorded job / pipeline
        events.jsonl    # per-attempt scheduler events, flat
        spans.jsonl     # phase spans, one job header row per entry
        counters.json   # deterministic run-total counter fold

The run id is content-addressed: a UTC timestamp prefix (so a plain
directory sort is chronological) followed by a SHA-256 prefix of the
canonical manifest JSON.  ``entries``/``events``/``spans`` are written
*incrementally* by the flight recorder, so a run that dies mid-way
still leaves a usable post-mortem bundle; ``counters.json`` lands at
finalisation.

Retention: :meth:`RunStore.prune` keeps the newest ``keep`` finished
runs (``REPRO_RUNS_KEEP`` overrides the default of 64) and never
touches a run that is still ``running``.

Concurrency contract: many writers (processes or threads) may share
one store root.  Creation retries on directory collisions instead of
pre-checking, a batch of JSONL rows lands as one ``O_APPEND`` write (so
a crash can only tear the *final* line, which readers skip and count),
JSON documents are written to a temp file and atomically renamed into
place, and readers tolerate runs vanishing underneath them (a
concurrent ``prune``/``delete``).

The ledger index: ``status.json`` is a run's *last* write, so a bundle
whose status is not ``running`` can no longer change.  A store
instance therefore reads a finished bundle from disk once and keeps
the :class:`RunRecord`; every lookup starts from one directory listing
and the index forgets whatever the listing no longer names (a run
pruned or deleted by another process), loads what it has not seen (a
run recorded by another process), and never keeps a ``running`` run —
that one is re-read every time, which is what makes its newly appended
entries visible.  The index holds only runs that are on disk, so
retention (``keep`` finished runs) bounds it too.

The ledger aggregate: what ``/metrics`` publishes about finished runs —
runs by status, the entry count and every entry counter summed — is
kept beside the index and under its lock.  A record is folded in once,
when it enters the index, and taken out when it leaves; the sums are
exact (:class:`ExactSum`), so what they read depends only on which runs
are in the index, never on the order they came and went in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: File names inside one run directory.
MANIFEST_FILE = "manifest.json"
STATUS_FILE = "status.json"
ENTRIES_FILE = "entries.jsonl"
EVENTS_FILE = "events.jsonl"
SPANS_FILE = "spans.jsonl"
COUNTERS_FILE = "counters.json"

DEFAULT_ROOT = ".repro/runs"
ENV_ROOT = "REPRO_RUNS_DIR"
ENV_KEEP = "REPRO_RUNS_KEEP"
DEFAULT_KEEP = 64

#: Run statuses a ledger entry can carry.
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"


class RunStoreError(Exception):
    """A ledger lookup or write failed (unknown id, ambiguous prefix)."""


@dataclass(frozen=True)
class OpenRun:
    """Handle to a freshly created (still-running) run directory."""

    run_id: str
    path: Path


@dataclass
class RunRecord:
    """One recorded run, loaded back from its directory."""

    run_id: str
    path: Path
    manifest: dict
    status: dict
    entries: list[dict] = field(default_factory=list)
    #: The deterministic run-total counters, or ``None`` for a run that
    #: never finalised (hard crash mid-run).
    counters: dict | None = None
    #: The owning store's torn-tail account (see :meth:`rows`).
    on_torn_tail: Callable[[Path], None] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def status_name(self) -> str:
        return self.status.get("status", RUNNING)

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "run")

    @property
    def name(self) -> str:
        return self.manifest.get("name", "")

    @property
    def started(self) -> float:
        return float(self.manifest.get("started_unix", 0.0))

    @property
    def finished(self) -> float:
        return float(self.status.get("finished_unix", 0.0))

    def summary(self) -> dict:
        """The compact JSON shape the ``/runs`` endpoint lists."""
        doc = {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "status": self.status_name,
            "started_unix": self.started,
            "entries": len(self.entries),
        }
        if "finished_unix" in self.status:
            doc["finished_unix"] = self.status["finished_unix"]
        if "error" in self.status:
            doc["error"] = self.status["error"]
        return doc

    def detail(self) -> dict:
        """The full JSON shape the ``/runs/<id>`` endpoint returns."""
        doc = self.summary()
        doc["manifest"] = self.manifest
        doc["counters"] = self.counters
        doc["entry_list"] = self.entries
        return doc

    def rows(self, file_name: str) -> list[dict]:
        """Every complete row of one of the run's JSONL artifacts
        (``[]`` if it was never written), read now: unlike ``entries``
        the span and event rows are not kept with the record."""
        return _read_jsonl(self.path / file_name, self.on_torn_tail)


def _canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _read_json(path: Path, default: dict | None = None) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return dict(default or {})


def _write_json(path: Path, document: dict) -> None:
    """Write a JSON document atomically (temp file + rename).

    A plain ``write_text`` truncates first, so a crash (or a concurrent
    reader) mid-write observes a torn document; ``os.replace`` swaps
    the complete file in as one atomic step.
    """
    payload = json.dumps(document, indent=1, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(payload)
    os.replace(tmp, path)


def _read_jsonl(path: Path, on_torn_tail=None) -> list[dict]:
    """Read a JSONL artifact, tolerating a torn final line.

    Rows are appended as single ``O_APPEND`` writes, so a crash mid-
    append can only leave a partial *last* line.  Skipping (and
    counting, via ``on_torn_tail``) an undecodable tail keeps every
    complete row readable instead of poisoning the whole file; an
    undecodable line anywhere else is real corruption and still
    raises.
    """
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return []
    rows: list[dict] = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            if index == last:
                if on_torn_tail is not None:
                    on_torn_tail(path)
                break
            raise
    return rows


def _interned(value: Any) -> Any:
    """``value`` rebuilt with every dict key and string interned.

    Kept records repeat the same counter names, gauge names and conf
    values run after run; sharing one copy of each roughly halves what
    the index holds per record.
    """
    kind = type(value)
    if kind is str:
        return sys.intern(value)
    if kind is dict:
        return {
            sys.intern(key): _interned(item) for key, item in value.items()
        }
    if kind is list:
        return [_interned(item) for item in value]
    return value


class ExactSum:
    """A float total that can give back what it was given.

    The total is held as Shewchuk's non-overlapping partials (the
    algorithm behind :func:`math.fsum`), which represent the sum of
    everything added *exactly*; taking a value out is adding its
    negation, just as exactly.  ``math.fsum(partials)`` rounds once, so
    it equals ``math.fsum`` of the values still in — whatever was added
    and taken out in between, in whatever order.  Finite values only.
    """

    __slots__ = ("partials", "terms")

    def __init__(self) -> None:
        self.partials: list[float] = []
        #: Values added and not taken out again.
        self.terms = 0

    def add(self, x: float) -> None:
        self.terms += 1
        self._grow(x)

    def take(self, x: float) -> None:
        self.terms -= 1
        self._grow(-x)

    def _grow(self, x: float) -> None:
        partials = self.partials
        kept = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)  # the rounding error of x + y, exactly
            if low:
                partials[kept] = low
                kept += 1
            x = high
        partials[kept:] = [x]


def _counter_terms(entries: list[dict]) -> list[tuple[str, float]]:
    """Every ``(counter name, value)`` a run's entries carry."""
    return [
        (name, float(value))
        for entry in entries
        for name, value in entry.get("counters", {}).items()
    ]


@dataclass(frozen=True)
class LedgerAggregate:
    """The whole ledger as ``/metrics`` publishes it."""

    #: Runs by status name, ``running`` ones included.
    by_status: dict[str, int]
    #: Recorded entries across all runs.
    entries: int
    #: Every entry counter summed across all runs, correctly rounded.
    counters: dict[str, float]
    #: The runs that are live — every ``running`` one and the most
    #: recently finished one — oldest id first.
    live: list[RunRecord]


class RunStore:
    """The on-disk ledger of recorded runs."""

    def __init__(
        self,
        root: str | Path | None = None,
        keep: int | None = None,
    ) -> None:
        if root is None:
            root = os.environ.get(ENV_ROOT) or DEFAULT_ROOT
        self.root = Path(root)
        if keep is None:
            raw = os.environ.get(ENV_KEEP, "").strip()
            if raw:
                try:
                    keep = int(raw)
                except ValueError as exc:
                    raise RunStoreError(
                        f"invalid {ENV_KEEP}={raw!r}: expected a "
                        "positive integer (runs to keep when pruning)"
                    ) from exc
            else:
                keep = DEFAULT_KEEP
        if keep < 1:
            raise RunStoreError("retention must keep at least one run")
        self.keep = keep
        #: Torn JSONL tails skipped by this store instance's reads — a
        #: crash mid-append leaves at most one partial final line per
        #: artifact; readers skip it and account for it here (the
        #: ``/metrics`` scrape surfaces the total).
        self.torn_tail_lines = 0
        #: Bundles this store instance has read from disk.  With the
        #: index a finished bundle counts here once, so the number a
        #: lookup adds does not depend on how long the ledger is
        #: (``repro_store_bundle_reads`` on ``/metrics``).
        self.bundle_reads = 0
        #: The ledger index: the record of every *finished* run this
        #: instance has read and that the last listing still named.
        self._index: dict[str, RunRecord] = {}
        #: The ledger aggregate over exactly the index's records:
        #: runs by status, entries, and each entry counter's sum.  A
        #: name nothing in the index contributes to has no item here.
        self._by_status: dict[str, int] = {}
        self._entries = 0
        self._sums: dict[str, ExactSum] = {}
        #: Guards the index, the aggregate and the two read counters;
        #: never held while a bundle is being read.
        self._lock = threading.Lock()

    # -- creation --------------------------------------------------------
    def create(self, manifest: dict) -> OpenRun:
        """Create a run directory for ``manifest``; status ``running``.

        The id is derived from the manifest content itself, so the same
        manifest bytes always name the same directory; a (timestamp +
        pid) collision bumps a ``sequence`` field and re-hashes.

        ``mkdir`` itself is the claim — no existence pre-check — so two
        processes racing on the same manifest cannot both pass a check
        and then collide; the loser catches ``FileExistsError`` and
        retries with the next sequence number.
        """
        manifest = dict(manifest)
        manifest.setdefault("started_unix", time.time())
        stamp = time.strftime(
            "%Y%m%dT%H%M%SZ", time.gmtime(manifest["started_unix"])
        )
        sequence = 0
        while True:
            if sequence:
                manifest["sequence"] = sequence
            digest = hashlib.sha256(
                _canonical_json(manifest).encode()
            ).hexdigest()
            run_id = f"{stamp}-{digest[:10]}"
            path = self.root / run_id
            try:
                path.mkdir(parents=True)
            except FileExistsError:
                sequence += 1
                continue
            break
        manifest["run_id"] = run_id
        _write_json(path / MANIFEST_FILE, manifest)
        self.write_status(run_id, {"status": RUNNING})
        return OpenRun(run_id=run_id, path=path)

    def append_rows(
        self, run_id: str, file_name: str, rows: Iterable[dict]
    ) -> None:
        """Append JSON rows to a run's JSONL artifact in one write.

        The batch is pre-encoded and lands through an unbuffered
        ``O_APPEND`` handle, so concurrent appenders never interleave
        within it and a crash can only tear the final line — which
        :func:`_read_jsonl` skips and counts on read.  An empty batch
        touches nothing.
        """
        data = "".join(json.dumps(row) + "\n" for row in rows).encode()
        if not data:
            return
        with (self.root / run_id / file_name).open(
            "ab", buffering=0
        ) as handle:
            view = memoryview(data)
            while view:
                view = view[handle.write(view) :]

    def append_row(self, run_id: str, file_name: str, row: dict) -> None:
        """Append one JSON row to a run's JSONL artifact."""
        self.append_rows(run_id, file_name, (row,))

    def write_status(self, run_id: str, status: dict) -> None:
        """Write a run's status; a finished one must be its last write
        (the index keeps whatever it reads after it)."""
        _write_json(self.root / run_id / STATUS_FILE, status)

    # -- lookup ----------------------------------------------------------
    def _listing(self) -> list[str]:
        """The store root's entries, oldest first: the one disk access
        every lookup starts from.  The index forgets every run it does
        not name — pruned or deleted, by whichever process."""
        with self._lock:
            try:
                names = sorted(os.listdir(self.root))
            except FileNotFoundError:
                names = []
            for gone in self._index.keys() - set(names):
                self._drop(gone)
        return names

    def run_ids(self) -> list[str]:
        """Every recorded run id, oldest first."""
        index = self._index
        return [
            name
            for name in self._listing()
            if name in index or (self.root / name / MANIFEST_FILE).exists()
        ]

    def resolve(self, prefix: str) -> str:
        """The unique run id starting with ``prefix`` (git-style)."""
        matches = [
            run_id
            for run_id in self.run_ids()
            if run_id.startswith(prefix)
        ]
        if not matches:
            raise RunStoreError(
                f"no run matching {prefix!r} under {self.root}"
            )
        if len(matches) > 1:
            raise RunStoreError(
                f"ambiguous run prefix {prefix!r}: "
                + ", ".join(matches)
            )
        return matches[0]

    def load(self, run_id: str) -> RunRecord:
        """One run's record; :class:`RunStoreError` if it is not (or
        no longer) in the ledger."""
        self._listing()  # a kept record of a run that is gone goes here
        return self._record(run_id)

    def load_all(self) -> list[RunRecord]:
        """Every loadable run; one vanishing mid-iteration (a
        concurrent ``prune``/``delete``) is skipped, not raised."""
        return self._records(self._listing())

    def _records(self, run_ids: list[str]) -> list[RunRecord]:
        records: list[RunRecord] = []
        for run_id in run_ids:
            try:
                records.append(self._record(run_id))
            except RunStoreError:
                continue
        return records

    def _record(self, run_id: str) -> RunRecord:
        """The record of a run the caller has just listed: the kept
        one if it had finished, else whatever is on disk now."""
        record = self._index.get(run_id)
        if record is not None:
            return record
        path = self.root / run_id
        try:
            # status.json first: finalisation writes it last, so
            # whatever is read *after* a finished status is final too.
            status = _read_json(path / STATUS_FILE, {"status": RUNNING})
            manifest = json.loads((path / MANIFEST_FILE).read_text())
        except (FileNotFoundError, NotADirectoryError):
            # Not a run directory — or the run vanished (concurrent
            # prune/delete) between a listing and this load.
            raise RunStoreError(
                f"no run matching {run_id!r} under {self.root}"
            ) from None
        entries = _read_jsonl(path / ENTRIES_FILE, self._torn_tail)
        counters = _read_json(path / COUNTERS_FILE).get("counters")
        finished = status.get("status", RUNNING) != RUNNING
        if finished:
            manifest, status, entries, counters = _interned(
                [manifest, status, entries, counters]
            )
        record = RunRecord(
            run_id,
            path,
            manifest,
            status,
            entries,
            counters,
            on_torn_tail=self._torn_tail,
        )
        with self._lock:
            self.bundle_reads += 1
            # Two first readers of one bundle: the second finds it kept.
            if finished and run_id not in self._index:
                self._keep(record)
        return record

    def _torn_tail(self, path: Path) -> None:
        with self._lock:
            self.torn_tail_lines += 1

    # -- the index and its aggregate (callers hold the lock) -------------
    def _keep(self, record: RunRecord) -> None:
        terms = _counter_terms(record.entries)  # may raise: mutate after
        self._index[record.run_id] = record
        status = record.status_name
        self._by_status[status] = self._by_status.get(status, 0) + 1
        self._entries += len(record.entries)
        sums = self._sums
        for name, value in terms:
            total = sums.get(name)
            if total is None:
                total = sums[name] = ExactSum()
            total.add(value)

    def _drop(self, run_id: str) -> None:
        record = self._index.pop(run_id, None)
        if record is None:
            return
        status = record.status_name
        self._by_status[status] -= 1
        if not self._by_status[status]:
            del self._by_status[status]
        self._entries -= len(record.entries)
        sums = self._sums
        for name, value in _counter_terms(record.entries):
            total = sums[name]
            total.take(value)
            if not total.terms:
                # Its last contributor left: the family goes with it.
                del sums[name]

    def _forget(self, run_id: str) -> None:
        with self._lock:
            self._drop(run_id)

    def aggregate(self) -> LedgerAggregate:
        """The ledger's totals and live runs, for one scrape.

        Costs one listing plus the bundles of the runs in flight (and
        of any finished run not seen before, once): finished runs come
        out of the aggregate, whatever their number.
        """
        index = self._index
        unkept = self._records(
            [name for name in self._listing() if name not in index]
        )
        with self._lock:
            # A run read as running above that another reader has since
            # found finished is in the aggregate: it counts there, once.
            running = [
                record
                for record in unkept
                if record.status_name == RUNNING
                and record.run_id not in index
            ]
            by_status = dict(self._by_status)
            entries = self._entries
            terms = {
                name: list(total.partials)
                for name, total in self._sums.items()
            }
            newest = max(
                index.values(),
                key=lambda record: (record.finished, record.run_id),
                default=None,
            )
        for record in running:
            by_status[RUNNING] = by_status.get(RUNNING, 0) + 1
            entries += len(record.entries)
            for name, value in _counter_terms(record.entries):
                terms.setdefault(name, []).append(value)
        live = running + ([newest] if newest is not None else [])
        live.sort(key=lambda record: record.run_id)
        return LedgerAggregate(
            by_status,
            entries,
            {name: math.fsum(parts) for name, parts in terms.items()},
            live,
        )

    # -- retention -------------------------------------------------------
    def prune(self, keep: int | None = None) -> list[str]:
        """Delete the oldest finished runs beyond ``keep``; a run still
        marked ``running`` is never pruned.  Returns the ids removed.

        A listing no longer than ``keep`` has nothing to remove, so
        nothing is loaded for it.
        """
        keep = self.keep if keep is None else keep
        run_ids = self._listing()
        if len(run_ids) <= keep:
            return []
        finished = [
            record
            for record in self._records(run_ids)
            if record.status_name != RUNNING
        ]
        finished.sort(key=lambda record: (record.started, record.run_id))
        removed: list[str] = []
        for record in finished[: max(len(finished) - keep, 0)]:
            # ignore_errors: a concurrent prune may be removing the
            # same run; losing that race is success, not failure.
            shutil.rmtree(record.path, ignore_errors=True)
            self._forget(record.run_id)
            removed.append(record.run_id)
        return removed

    def delete(self, run_id: str) -> None:
        path = self.root / run_id
        if not (path / MANIFEST_FILE).exists():
            raise RunStoreError(
                f"no run matching {run_id!r} under {self.root}"
            )
        shutil.rmtree(path, ignore_errors=True)
        self._forget(run_id)
