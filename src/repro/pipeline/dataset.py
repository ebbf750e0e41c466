"""Named datasets and their materialized, content-addressed store.

A :class:`Dataset` is an *edge* of a job graph: a named, immutable
collection of ``(key, value)`` records produced by one stage and
consumed by any number of later stages (possibly across loop
iterations).  Between stages the driver *materializes* each consumed
dataset — its records serde-encoded into one blob, the simulator's
stand-in for writing a job input/output to the distributed file system.
A dataset a MapReduce job produced arrives with that encoding: the
reduce tasks already wrote it to count their output bytes, so the store
hashes and sizes those bytes and never encodes the records again.

Materialization is cached two ways:

* **Per dataset** — a dataset is encoded at most once, no matter how
  many stages (or loop iterations) consume it.  Re-reads are *encode
  cache hits*: the loop-invariant PageRank structure dataset is encoded
  before the first iteration and every subsequent iteration reuses the
  blob (``pipeline.dataset.encode.hits``).  A loop output is an alias
  of the final iteration's dataset and shares its materialization.
* **By content** — blobs are stored under the hash of their bytes, so
  two datasets that happen to carry identical records share one blob
  (``pipeline.dataset.content.dedup``); re-derived-but-unchanged data
  costs storage once.

The store hands consumers the original record lists (the blob is the
durable form; an in-process read does not pay a decode pass — serde
round-trip exactness is pinned separately by the serde test suite),
plus, for a MapReduce stage's input splits, every record's encoded size.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.mr import serde
from repro.obs.metrics import MetricsRegistry

Record = tuple[Any, Any]
#: Records encoded back to back (a reduce task's output, or the store's
#: own encode of a dataset), and every record's size in them.
Encoding = tuple[list[bytearray], list[int]]

#: Pipeline-level metric names (observational; never part of a job's
#: counter ledger).
ENCODE_MISSES = "pipeline.dataset.encode.misses"
ENCODE_HITS = "pipeline.dataset.encode.hits"
CONTENT_DEDUP = "pipeline.dataset.content.dedup"
ENCODED_BYTES = "pipeline.dataset.encoded.bytes"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A handle to one named dataset (identity-hashed: one per edge)."""

    dataset_id: int
    name: str
    #: Stage id of the producing stage (``-1`` for sources declared
    #: with literal records and for loop-output aliases).
    producer: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dataset({self.dataset_id}, {self.name!r})"


@dataclass
class DatasetInfo:
    """Ledger entry for one dataset's life in the store."""

    name: str
    num_records: int = 0
    #: Hex digest of the encoded blob (shared when deduplicated).
    content_key: str = ""
    encoded_bytes: int = 0
    #: Times this dataset was materialized (0 or 1): its records
    #: encoded, by the store or by the job that produced them.  An
    #: aliased loop output shares its source's and reports 0.
    encodes: int = 0
    #: Reads served from the materialization cache without encoding.
    cache_hits: int = 0
    #: True if encoding found an identical blob already stored.
    deduplicated: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "num_records": self.num_records,
            "content_key": self.content_key,
            "encoded_bytes": self.encoded_bytes,
            "encodes": self.encodes,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
        }


class DatasetStore:
    """Holds every dataset of one pipeline run, materialized on demand."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._records: dict[int, list[Record]] = {}
        self._info: dict[int, DatasetInfo] = {}
        #: Alias id -> the id of the dataset whose materialization it
        #: shares.
        self._alias_of: dict[int, int] = {}
        #: Encodings handed over at ``put``, until materialized.
        self._pending: dict[int, Encoding] = {}
        #: Per-record encoded sizes of every materialized dataset.
        self._sizes: dict[int, list[int]] = {}
        #: Content-addressed blob store: hash -> encoded byte runs.
        self._blobs: dict[str, list[bytearray]] = {}
        # A store may be read and written from several threads (a
        # caller sharing one across threads of its own).
        self._lock = threading.Lock()
        # Register the cache counters up front: a zero in the dump
        # means "no traffic", not "absent".
        for name, help_text in (
            (ENCODE_MISSES, "datasets serde-encoded (materializations)"),
            (ENCODE_HITS, "dataset reads served from the encode cache"),
            (CONTENT_DEDUP, "encoded blobs deduplicated by content hash"),
            (ENCODED_BYTES, "unique bytes written to the blob store"),
        ):
            self._metrics.counter(name, help_text)

    # -- producing -------------------------------------------------------
    def put(
        self,
        dataset: Dataset,
        records: Sequence[Record],
        encoding: Encoding | None = None,
    ) -> None:
        """Store a stage's output records under ``dataset``, with their
        encoding if the producer already made one."""
        with self._lock:
            if dataset.dataset_id in self._records:
                raise ValueError(
                    f"dataset {dataset.name!r} was already produced"
                )
            records = records if isinstance(records, list) else list(records)
            self._records[dataset.dataset_id] = records
            self._info[dataset.dataset_id] = DatasetInfo(
                name=dataset.name, num_records=len(records)
            )
            if encoding is not None:
                self._pending[dataset.dataset_id] = encoding

    def alias(self, dataset: Dataset, source: Dataset) -> None:
        """Expose ``source``'s records and materialization as
        ``dataset`` — used for loop-output handles, which must not cost
        a second encode, whichever of the two is read first."""
        with self._lock:
            records = self._require(source)
            self._records[dataset.dataset_id] = records
            self._alias_of[dataset.dataset_id] = self._root(source)
            self._info[dataset.dataset_id] = DatasetInfo(
                name=dataset.name, num_records=len(records)
            )

    # -- consuming -------------------------------------------------------
    def read(self, dataset: Dataset) -> list[Record]:
        """A stage's view of ``dataset``: materialize (cached), return
        the records."""
        return self.read_sized(dataset)[0]

    def read_sized(self, dataset: Dataset) -> tuple[list[Record], list[int]]:
        """:meth:`read`, plus every record's encoded size."""
        with self._lock:
            records = self._require(dataset)
            root = self._root(dataset)
            if self._info[root].content_key:
                self._info[dataset.dataset_id].cache_hits += 1
                self._metrics.counter(ENCODE_HITS).add()
            else:
                self._materialize_locked(root, records)
            return records, self._sizes[root]

    def peek(self, dataset: Dataset) -> list[Record]:
        """Records without materialization side effects (convergence
        checks, result assembly)."""
        with self._lock:
            return self._require(dataset)

    def has(self, dataset: Dataset) -> bool:
        with self._lock:
            return dataset.dataset_id in self._records

    # -- ledger ----------------------------------------------------------
    def infos(self) -> dict[str, DatasetInfo]:
        """Per-dataset ledger, keyed by (qualified) dataset name.  An
        alias reports its source's content key, size and dedup flag."""
        with self._lock:
            ledger: dict[str, DatasetInfo] = {}
            for dataset_id, info in self._info.items():
                root = self._alias_of.get(dataset_id)
                if root is not None:
                    source = self._info[root]
                    info = replace(
                        info,
                        content_key=source.content_key,
                        encoded_bytes=source.encoded_bytes,
                        deduplicated=source.deduplicated,
                    )
                ledger[info.name] = info
            return ledger

    def records_by_name(self) -> dict[str, list[Record]]:
        """Every dataset's records, keyed by (qualified) dataset name."""
        with self._lock:
            return {
                self._info[dataset_id].name: records
                for dataset_id, records in self._records.items()
            }

    # -- internals -------------------------------------------------------
    def _require(self, dataset: Dataset) -> list[Record]:
        records = self._records.get(dataset.dataset_id)
        if records is None:
            raise KeyError(
                f"dataset {dataset.name!r} has not been produced yet"
            )
        return records

    def _root(self, dataset: Dataset) -> int:
        """The id of the dataset that owns ``dataset``'s materialization."""
        return self._alias_of.get(dataset.dataset_id, dataset.dataset_id)

    def _materialize_locked(self, root: int, records: list[Record]) -> None:
        encoding = self._pending.pop(root, None)
        if encoding is None:
            buffer = bytearray()
            encoding = [buffer], serde.encode_kv_batch(buffer, records)
        blob, sizes = encoding
        digest = hashlib.sha256()
        for run in blob:
            digest.update(run)
        content_key = digest.hexdigest()
        info = self._info[root]
        info.content_key = content_key
        info.encoded_bytes = sum(map(len, blob))
        info.encodes += 1
        self._sizes[root] = sizes
        self._metrics.counter(ENCODE_MISSES).add()
        if content_key in self._blobs:
            info.deduplicated = True
            self._metrics.counter(CONTENT_DEDUP).add()
        else:
            self._blobs[content_key] = blob
            self._metrics.counter(ENCODED_BYTES).add(info.encoded_bytes)
