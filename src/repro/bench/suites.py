"""The hot-path microbenchmark suites (``repro bench``).

Each benchmark pairs a **baseline** with the current implementation
over identical seeded inputs, and both legs are code that ships.
(Where the data plane's time goes, layer by layer, is the job of
``BENCHMARK.json``'s ``mr.serde.*`` / ``mr.merge.*`` /
``core.shared.*`` metrics, not of these pairs.)

* ``executor.oob`` — a payload-heavy task result crossing a pickle
  boundary: default-protocol round trip vs the protocol-5 out-of-band
  envelope (:func:`repro.mr.executor.dumps_oob`).
* ``serde.encode_batch.*`` — the run-oriented encoder (DESIGN.md §11):
  one dispatch per homogeneous run
  (:func:`repro.mr.serde.encode_kv_batch`) vs one per record
  (:func:`repro.mr.serde.encode_kv_into`).
* ``shm.transport`` — a map task's segment payloads reaching a
  consumer: bytes shipped in the pickle stream vs published into one
  shared-memory block with only ``(block, offset, length)``
  descriptors pickled (:mod:`repro.mr.shm`).
* ``scaling.curve.workers{2,4}`` — the multicore curve: the same job
  on 1 vs N pool workers, pool spawn included; gated by ``repro bench
  --check`` on hosts with ``os.cpu_count() >= N``.
* ``anti.sizing.*`` — what deciding costs the anti layers:
  ``anti.sizing.theta`` / ``anti.sizing.qs`` size captured theta-join
  and Query-Suggestion Map output values exactly (``serde.sizeof``, a
  serialisation each) vs with :func:`repro.mr.serde.approx_size`;
  ``anti.sizing.decide`` runs theta-join Map calls through AdaptiveSH
  deciding by trial encoding (EagerSH-encode the call, size every
  record, compare with the LazySH records) vs the AntiMapper's size
  arithmetic.

Record-path suites report ``records`` per invocation so the committed
JSON carries ``records_per_s`` throughput alongside wall times; every
run also records machine provenance (Python version, platform, CPU
count).
"""

from __future__ import annotations

import pickle
import random
from typing import Any, Callable, Iterable

from repro.bench.harness import BenchResult, bench_pair
from repro.mr import serde
from repro.mr.counters import Counters
from repro.mr.executor import dumps_oob, loads_oob
from repro.mr.segment import SegmentPayload

Record = tuple[Any, Any]


# -- deterministic inputs --------------------------------------------------


def _records_ints(n: int, seed: int = 7) -> list[Record]:
    rng = random.Random(seed)
    return [
        (rng.randint(0, 1_000_000), rng.randint(0, 1_000_000))
        for _ in range(n)
    ]


def _records_text(n: int, seed: int = 11) -> list[Record]:
    rng = random.Random(seed)
    return [
        (
            "".join(
                chr(rng.randint(97, 122))
                for _ in range(rng.randint(4, 16))
            ),
            rng.randint(0, 1_000_000),
        )
        for _ in range(n)
    ]


def _records_nested(n: int, seed: int = 13) -> list[Record]:
    rng = random.Random(seed)
    return [
        (
            "k%06d" % rng.randint(0, 99_999),
            (
                rng.randint(0, 1_000_000),
                "v%04d" % rng.randint(0, 9_999),
                rng.random(),
            ),
        )
        for _ in range(n)
    ]


_SHAPES: dict[str, Callable[[int], list[Record]]] = {
    "ints": _records_ints,
    "text": _records_text,
    "nested": _records_nested,
}


# -- suites ----------------------------------------------------------------


def _serde_suite(quick: bool) -> list[BenchResult]:
    n = 4_000 if quick else 20_000
    repeats = 3 if quick else 7
    results = []
    for shape, make in _SHAPES.items():
        records = make(n)
        # The run-oriented encoder (DESIGN.md §11): one dispatch per
        # homogeneous run vs one per record.  Both legs produce the
        # payload bytes only (no framing), which is what collect_batch
        # and the reduce-output path consume.
        def scalar_encode(records=records) -> bytes:
            out = bytearray()
            encode_kv_into = serde.encode_kv_into
            for key, value in records:
                encode_kv_into(out, key, value)
            return bytes(out)

        def batch_encode(records=records) -> bytes:
            out = bytearray()
            serde.encode_kv_batch(out, records)
            return bytes(out)

        assert scalar_encode() == batch_encode()
        results.append(
            bench_pair(
                f"serde.encode_batch.{shape}",
                scalar_encode,
                batch_encode,
                repeats=repeats,
                records=n,
            )
        )
    return results


def _executor_suite(quick: bool) -> list[BenchResult]:
    payload_bytes = 256 * 1024 if quick else 1024 * 1024
    payload_count = 4 if quick else 8
    repeats = 3 if quick else 5
    rng = random.Random(23)
    payloads = [
        SegmentPayload(
            name=f"m{index}/out/p0",
            partition=0,
            record_count=100,
            raw_bytes=payload_bytes,
            codec_name=None,
            data=bytes(
                rng.getrandbits(8) for _ in range(payload_bytes)
            ),
            origin=f"m{index}",
        )
        for index in range(payload_count)
    ]

    def reference() -> list[SegmentPayload]:
        return pickle.loads(pickle.dumps(payloads, protocol=4))

    def current() -> list[SegmentPayload]:
        return loads_oob(*dumps_oob(payloads))

    assert reference() == current()
    return [bench_pair("executor.oob", reference, current, repeats=repeats)]


def _qs_inputs(queries: int, seed: int = 42, num_splits: int = 4):
    from repro.datagen.qlog import generate_query_log
    from repro.mr.split import split_records

    records = generate_query_log(queries, seed=seed)
    return split_records(records, num_splits=num_splits)


def _scaling_suite(quick: bool) -> list[BenchResult]:
    """The multicore curve of the process executor.

    ``scaling.curve.workersN`` runs the same job on 1 vs ``N`` pool
    workers, pool spawn included.  It is recorded on every host but
    gated only where ``os.cpu_count() >= N`` (see
    :func:`repro.bench.harness.scaling_regressions`): a single-core
    container cannot show a positive curve for a CPU-bound wave,
    however good the transport.
    """
    from repro.mr.engine import LocalJobRunner
    from repro.workloads.query_suggestion import query_suggestion_job

    results: list[BenchResult] = []
    curve_queries = 400 if quick else 1_200
    curve_repeats = 1 if quick else 3
    curve_splits = _qs_inputs(curve_queries, num_splits=8)

    def curve_leg(workers: int) -> Callable[[], int]:
        def run() -> int:
            job = query_suggestion_job(
                num_reducers=4,
                executor="process",
                max_workers=workers,
            )
            return len(LocalJobRunner().run(job, curve_splits).output)

        return run

    expected = curve_leg(1)()
    for workers in (2, 4):
        assert curve_leg(workers)() == expected
        results.append(
            bench_pair(
                f"scaling.curve.workers{workers}",
                curve_leg(1),
                curve_leg(workers),
                repeats=curve_repeats,
                records=curve_queries,
            )
        )
    return results


def _shm_suite(quick: bool) -> list[BenchResult]:
    """The shuffle plane's transport primitive vs the pickled path.

    ``shm.transport`` moves a map task's segment payloads to a
    consumer: the reference leg ships the bytes *in* the pickle stream
    (the pre-plane transport — every payload byte is serialised and
    copied); the current leg publishes the bytes into one shared block
    and ships only ``(block, offset, length)`` descriptors, with the
    consumer attaching zero-copy views.
    """
    from repro.mr import shm

    if not shm.available():  # pragma: no cover - non-POSIX hosts
        return []
    payload_bytes = 256 * 1024 if quick else 1024 * 1024
    payload_count = 4 if quick else 8
    repeats = 5 if quick else 9
    rng = random.Random(29)
    segments = {
        partition: SegmentPayload(
            name=f"m0/out/p{partition}",
            partition=partition,
            record_count=100,
            raw_bytes=payload_bytes,
            codec_name=None,
            data=bytes(
                rng.getrandbits(8) for _ in range(payload_bytes)
            ),
            origin="m0",
        )
        for partition in range(payload_count)
    }
    bench_prefix = "repro-shm-bench-"

    def reference() -> int:
        received = pickle.loads(pickle.dumps(segments, protocol=4))
        return sum(len(payload.data) for payload in received.values())

    def current() -> int:
        published = shm.publish_segments(bench_prefix, segments)
        stream, buffers = dumps_oob(published)
        received = loads_oob(stream, buffers)
        try:
            return sum(
                len(payload.data) for payload in received.values()
            )
        finally:
            shm.release_attachments()
            shm.sweep(bench_prefix)

    assert reference() == current()
    return [
        bench_pair(
            "shm.transport",
            reference,
            current,
            repeats=repeats,
            records=payload_count,
        )
    ]


def _anti_sizing_suite(quick: bool) -> list[BenchResult]:
    """Sizing and the AdaptiveSH decision (DESIGN.md §8, *sizing*)."""
    from repro.core.config import Strategy
    from repro.core.encoding import LazyValue
    from repro.core.transform import enable_anti_combining
    from repro.datagen.cloud import generate_cloud_reports
    from repro.datagen.qlog import generate_query_log
    from repro.mr.api import Context
    from repro.workloads.query_suggestion import query_suggestion_job
    from repro.workloads.thetajoin import band_join_job

    repeats = 3 if quick else 7
    theta_inputs = generate_cloud_reports(100 if quick else 400, seed=31)
    theta_job = band_join_job(grid_rows=12, grid_cols=12, num_reducers=8)
    qs_inputs = generate_query_log(150 if quick else 600, seed=31)
    qs_job = query_suggestion_job(num_reducers=8)

    def map_output(job, inputs) -> list[Record]:
        """What a fresh instance of the job's mapper writes for
        ``inputs``."""
        emitted: list[Record] = []
        context = Context(
            Counters(),
            lambda key, value: emitted.append((key, value)),
            partitioner=job.partitioner,
            num_partitions=job.num_reducers,
        )
        mapper = job.mapper()
        mapper.setup(context)
        for key, value in inputs:
            mapper.map(key, value, context)
        mapper.cleanup(context)
        return emitted

    approx_size = serde.approx_size
    results = []
    for shape, job, inputs in (
        ("theta", theta_job, theta_inputs),
        ("qs", qs_job, qs_inputs),
    ):
        values = [value for _, value in map_output(job, inputs)]
        assert all(
            abs(approx_size(value) - serde.sizeof(value)) <= 8
            for value in values[:200]
        )
        results.append(
            bench_pair(
                f"anti.sizing.{shape}",
                lambda values=values: sum(map(serde.sizeof, values)),
                lambda values=values: sum(map(approx_size, values)),
                repeats=repeats,
                records=len(values),
            )
        )

    eager_job = enable_anti_combining(theta_job, strategy=Strategy.EAGER)
    lazy_job = enable_anti_combining(theta_job, strategy=Strategy.LAZY)
    adaptive_job = enable_anti_combining(theta_job)

    def trial_encoding() -> int:
        """EagerSH-encode every call and size what came out, then size
        the LazySH alternative: the decision by trial."""
        encoded = map_output(eager_job, theta_inputs)
        eager = sum(
            approx_size(key) + approx_size(value) for key, value in encoded
        )
        lazy = sum(
            theta_job.num_reducers * (2 + approx_size(LazyValue(key, value)))
            for key, value in theta_inputs
        )
        return len(encoded) if eager < lazy else 0

    def size_arithmetic() -> int:
        return len(map_output(adaptive_job, theta_inputs))

    # Fig. 12: LazySH wins every theta-join partition.
    assert size_arithmetic() == len(map_output(lazy_job, theta_inputs))
    assert trial_encoding() == 0
    original_records = len(map_output(theta_job, theta_inputs))
    results.append(
        bench_pair(
            "anti.sizing.decide",
            trial_encoding,
            size_arithmetic,
            repeats=repeats,
            records=original_records,
        )
    )
    return results


_SUITES: dict[str, Callable[[bool], list[BenchResult]]] = {
    "serde": _serde_suite,
    "executor": _executor_suite,
    "shm": _shm_suite,
    "anti": _anti_sizing_suite,
    "scaling": _scaling_suite,
}


def run_suites(
    quick: bool = False,
    only: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run the benchmark suites; returns results in a stable order.

    ``only`` restricts to a subset of suite names (``serde``,
    ``executor``, ``shm``, ``anti``, ``scaling``).
    """
    selected = set(only) if only is not None else set(_SUITES)
    unknown = selected - set(_SUITES)
    if unknown:
        known = ", ".join(sorted(_SUITES))
        raise ValueError(
            f"unknown suite(s) {sorted(unknown)}; known: {known}"
        )
    results: list[BenchResult] = []
    for name, suite in _SUITES.items():
        if name not in selected:
            continue
        if progress is not None:
            progress(name)
        results.extend(suite(quick))
    return results
