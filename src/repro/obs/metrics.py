"""A metrics registry: counters, gauges, histograms, Prometheus dump.

The registry is the *authoritative* accumulation point of one job run:
the scheduler folds every task attempt's counter bag through
:meth:`MetricsRegistry.merge_counters` and then re-derives the job's
:class:`~repro.mr.counters.Counters` totals from the registry via
:meth:`MetricsRegistry.job_counters`.  Because the totals are read back
out of the very same accumulators (same values, same fold order, plain
float addition), the Prometheus dump and the job counters can never
disagree — a single source of truth instead of two ledgers.

On top of the counter families the scheduler records observational
metrics that counters cannot express: per-task latency and CPU
histograms, shuffle-bytes-per-reducer, attempt/retry counts.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

from repro.mr import counters as C
from repro.mr import events as E
from repro.mr.counters import Counters
from repro.mr.events import EventLog

#: Default histogram buckets: geometric, wide enough for both seconds
#: (task latencies) and byte counts when scaled observations are used.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
)

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """A Prometheus-legal metric name for a dotted counter name."""
    sanitized = _NAME_SANITIZER.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class Counter:
    """A monotonically accumulated value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def add(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
            tuple(buckets)
        ):
            raise ValueError("histogram buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Counts per ``le`` bucket, cumulative (Prometheus shape)."""
        totals: list[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            totals.append(running)
        return totals


class MetricsRegistry:
    """Named counters, gauges and histograms for one job (or process)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Counter names that belong to the job-counter ledger (folded
        #: in via :meth:`merge_counters`), as opposed to observational
        #: metrics the scheduler records on the side.
        self._job_counter_names: set[str] = set()

    # -- creation/lookup -------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._histograms[name] = Histogram(name, help, buckets)
        return metric

    def _check_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(
                f"metric {name!r} already registered with another type"
            )

    # -- job-counter integration -----------------------------------------
    def merge_counters(self, counters: Counters) -> None:
        """Fold one task's counter bag into the registry's counters.

        Iterates the bag in its native insertion order and performs the
        same ``+=`` per name as :meth:`Counters.merge`, so folding N
        bags through the registry produces *bit-identical* float totals
        to merging them into a ``Counters`` object directly.
        """
        for name, value in counters.as_dict().items():
            self._job_counter_names.add(name)
            self.counter(name).add(value)

    def job_counters(self) -> Counters:
        """The job's counter totals, re-derived from the registry.

        Only counters folded in through :meth:`merge_counters` qualify;
        observational metrics stay out of the job's counter bag.
        """
        totals = Counters()
        for name, metric in self._counters.items():
            if name in self._job_counter_names:
                totals.add(name, metric.value)
        return totals

    # -- snapshots -------------------------------------------------------
    def counter_values(self) -> dict[str, float]:
        return {name: m.value for name, m in self._counters.items()}

    def gauge_values(self) -> dict[str, float]:
        return {name: m.value for name, m in self._gauges.items()}

    def histogram_snapshots(self) -> dict[str, dict[str, Any]]:
        return {
            name: {
                "buckets": list(m.buckets),
                "counts": list(m.bucket_counts),
                "sum": m.sum,
                "count": m.count,
            }
            for name, m in self._histograms.items()
        }

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict snapshot of every metric (for JSON dumps)."""
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": self.histogram_snapshots(),
        }

    # -- Prometheus text exposition --------------------------------------
    def prometheus_text(self) -> str:
        """Render every metric in the Prometheus text format (0.0.4)."""
        lines: list[str] = []

        def emit_header(name: str, help_text: str, kind: str) -> None:
            if help_text:
                lines.append(
                    f"# HELP {name} {escape_help_text(help_text)}"
                )
            lines.append(f"# TYPE {name} {kind}")

        for raw_name in sorted(self._counters):
            metric = self._counters[raw_name]
            name = prometheus_name(raw_name)
            emit_header(name, metric.help, "counter")
            lines.append(f"{name} {_fmt(metric.value)}")
        for raw_name in sorted(self._gauges):
            metric = self._gauges[raw_name]
            name = prometheus_name(raw_name)
            emit_header(name, metric.help, "gauge")
            lines.append(f"{name} {_fmt(metric.value)}")
        for raw_name in sorted(self._histograms):
            metric = self._histograms[raw_name]
            name = prometheus_name(raw_name)
            emit_header(name, metric.help, "histogram")
            cumulative = metric.cumulative_counts()
            for boundary, count in zip(metric.buckets, cumulative):
                lines.append(
                    f'{name}_bucket{{le="{_fmt(boundary)}"}} {count}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_fmt(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + "\n"


#: The scheduler's per-kind attempt counters: metric-name suffix after
#: ``mr.<kind>.attempts``, the :meth:`EventLog.attempt_counts` column
#: it publishes, and its help string.  All of them are registered for
#: every run — a zero sample in the Prometheus dump is a statement that
#: the path was exercised zero times, not that it does not exist.
_ATTEMPT_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("", "started", "attempts started"),
    (
        ".failed",
        "failed",
        "attempts that raised (task failures and worker crashes)",
    ),
    (".speculative", "speculative", "speculative backup attempts launched"),
    (
        ".timeout",
        "timed_out",
        "attempts abandoned after exceeding task_timeout_seconds",
    ),
    (
        ".worker_crash",
        "worker_crash",
        "attempts lost to a crashed worker process",
    ),
    (".killed", "killed", "speculative attempts killed (lost the race)"),
)


def record_job_metrics(
    metrics: MetricsRegistry,
    events: EventLog,
    num_reducers: int,
    totals: Counters,
    shuffle_bytes: Sequence[int],
) -> None:
    """Everything a finished job's registry holds beyond the counter
    ledger: the per-wave attempt metrics and the ``mr.derived.*``
    gauges.

    A pure function of the finished :class:`EventLog`, the job totals
    and the per-reducer shuffle bytes, called once by the scheduler.
    """
    _record_wave_metrics(metrics, events, num_reducers)
    _record_derived_metrics(metrics, events, totals, shuffle_bytes)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence."""
    if not ordered:
        return 0.0
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(rank - 1, 0))]


def _record_wave_metrics(
    metrics: MetricsRegistry, events: EventLog, num_reducers: int
) -> None:
    """Observational metrics counters cannot express (latencies,
    attempt counts, per-phase byte distributions)."""
    metrics.gauge(
        "mr.job.reducers", "Configured reduce tasks"
    ).set(num_reducers)
    attempt_counts = events.attempt_counts()
    wasted = metrics.counter(
        "mr.wasted.cpu.seconds", "CPU burned by failed attempts"
    )
    for kind in (E.MAP, E.REDUCE):
        latency = metrics.histogram(
            f"mr.{kind}.task.wall.seconds",
            f"Wall seconds per successful {kind} attempt",
        )
        for duration in events.wall_durations(kind).values():
            latency.observe(duration)
        cpu = metrics.histogram(
            f"mr.{kind}.task.cpu.seconds",
            f"CPU seconds per successful {kind} attempt",
        )
        output_bytes = metrics.histogram(
            f"mr.{kind}.output.bytes",
            "Map output bytes / reduce shuffle bytes per task",
            buckets=tuple(4.0**n for n in range(2, 16)),
        )
        for event in events:
            if event.kind == kind and event.event == E.FINISH:
                cpu.observe(event.cpu_seconds)
                output_bytes.observe(event.output_bytes)
        counts = attempt_counts.get(kind, {})
        for suffix, column, help_text in _ATTEMPT_COUNTERS:
            metrics.counter(
                f"mr.{kind}.attempts{suffix}", f"{kind} {help_text}"
            ).add(counts.get(column, 0))
        wasted.add(counts.get("wasted_cpu_s", 0.0))


def _record_derived_metrics(
    metrics: MetricsRegistry,
    events: EventLog,
    totals: Counters,
    shuffle_bytes: Sequence[int],
) -> None:
    """Per-run derived analytics: the ``mr.derived.*`` gauges.

    Replication rate is the communication-cost metric of the
    MapReduce-algorithms literature (arXiv 1204.1754): map output
    records per input record — exactly what anti-combining trades
    against shuffle size.  The rest condenses the shuffle and the
    task waves into scrape-friendly scalars.  Every gauge is
    observational (never enters the job-counter ledger), so this
    pass cannot perturb the counter-determinism contract.
    """
    map_in = totals.get(C.MAP_INPUT_RECORDS)
    map_out = totals.get(C.MAP_OUTPUT_RECORDS)
    metrics.gauge(
        "mr.derived.replication.rate",
        "Map output records per map input record (arXiv 1204.1754)",
    ).set(map_out / map_in if map_in else 0.0)

    if shuffle_bytes:
        mean = sum(shuffle_bytes) / len(shuffle_bytes)
        peak = float(max(shuffle_bytes))
        metrics.gauge(
            "mr.derived.shuffle.partition.mean.bytes",
            "Mean shuffle bytes per reduce partition",
        ).set(mean)
        metrics.gauge(
            "mr.derived.shuffle.partition.max.bytes",
            "Largest reduce partition's shuffle bytes",
        ).set(peak)
        metrics.gauge(
            "mr.derived.shuffle.skew",
            "Shuffle-byte partition skew: max over mean bytes "
            "per reduce partition",
        ).set(peak / mean if mean else 0.0)

    for kind in (E.MAP, E.REDUCE):
        durations = sorted(events.wall_durations(kind).values())
        if not durations:
            continue
        median = _quantile(durations, 0.5)
        metrics.gauge(
            f"mr.derived.{kind}.wall.p50.seconds",
            f"Median successful {kind} attempt wall seconds",
        ).set(median)
        metrics.gauge(
            f"mr.derived.{kind}.wall.p95.seconds",
            f"95th-percentile successful {kind} attempt "
            "wall seconds",
        ).set(_quantile(durations, 0.95))
        metrics.gauge(
            f"mr.derived.{kind}.wall.max.seconds",
            f"Slowest successful {kind} attempt wall seconds",
        ).set(durations[-1])
        metrics.gauge(
            f"mr.derived.{kind}.straggler.ratio",
            f"Slowest {kind} attempt over the wave median",
        ).set(durations[-1] / median if median else 0.0)

    for counter_name, decision in (
        (C.ANTI_EAGER_RECORDS, "eager"),
        (C.ANTI_LAZY_RECORDS, "lazy"),
        (C.ANTI_PLAIN_RECORDS, "plain"),
    ):
        metrics.gauge(
            f"mr.derived.anti.{decision}.records",
            "Records the anti-combining "
            f"{decision} decision fired for",
        ).set(totals.get(counter_name))


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats without the '.0'."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def escape_help_text(text: str) -> str:
    """HELP-line escaping per the text format 0.0.4: ``\\`` and LF."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Label-value escaping: backslash, double-quote, and LF."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                out.append(char)
                out.append(nxt)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


# -- full text-format parser (exposition format 0.0.4) ---------------------

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{(.*)\})?"  # optional label block
    r"\s+(\S+)"  # value
    r"(?:\s+(-?\d+))?$"  # optional timestamp
)
_LABEL_RE = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="')

#: Suffixes a histogram family's samples may carry.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _parse_label_block(raw: str, line: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    index = 0
    while index < len(raw):
        match = _LABEL_RE.match(raw, index)
        if match is None:
            raise ValueError(f"malformed label block in line: {line!r}")
        name = match.group(1)
        index = match.end()
        chars: list[str] = []
        while index < len(raw):
            char = raw[index]
            if char == "\\" and index + 1 < len(raw):
                chars.append(raw[index : index + 2])
                index += 2
                continue
            if char == '"':
                break
            chars.append(char)
            index += 1
        else:
            raise ValueError(f"unterminated label value: {line!r}")
        labels[name] = _unescape("".join(chars))
        index += 1  # closing quote
        if index < len(raw) and raw[index] == ",":
            index += 1
    return labels


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse a full text-format (0.0.4) exposition into families.

    Returns ``{family: {"type", "help", "samples"}}`` where each sample
    is ``(name, labels, value)``.  Histogram families claim their
    ``_bucket``/``_sum``/``_count`` series.  Raises ``ValueError`` on
    malformed lines, duplicate ``TYPE``/``HELP`` declarations, or a
    ``TYPE`` that arrives after the family already has samples.
    """
    families: dict[str, dict[str, Any]] = {}

    def family_for(sample_name: str) -> dict[str, Any]:
        # A histogram's series attach to the declared base family.
        for suffix in _HISTOGRAM_SUFFIXES:
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                family = families.get(base)
                if family is not None and family["type"] in (
                    "histogram",
                    "summary",
                ):
                    return family
        return families.setdefault(
            sample_name,
            {"type": "untyped", "help": "", "samples": []},
        )

    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment
            if len(parts) < 3 or not _METRIC_NAME_RE.match(parts[2]):
                raise ValueError(f"malformed {parts[1]} line: {line!r}")
            name = parts[2]
            payload = parts[3] if len(parts) > 3 else ""
            family = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )
            if parts[1] == "TYPE":
                if payload not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    raise ValueError(f"unknown TYPE in line: {line!r}")
                if family["type"] != "untyped":
                    raise ValueError(f"duplicate TYPE for {name!r}")
                if family["samples"]:
                    raise ValueError(
                        f"TYPE for {name!r} after its samples"
                    )
                family["type"] = payload
            else:
                if family["help"]:
                    raise ValueError(f"duplicate HELP for {name!r}")
                family["help"] = _unescape(payload)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {line!r}")
        name, label_block, raw_value = match.group(1, 2, 3)
        labels = (
            _parse_label_block(label_block, line) if label_block else {}
        )
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"bad sample value in line: {line!r}"
            ) from exc
        family_for(name)["samples"].append((name, labels, value))
    return families


def validate_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse and structurally validate an exposition; returns families.

    On top of :func:`parse_prometheus_text`'s line-level checks, every
    histogram family must have cumulative non-decreasing ``_bucket``
    series ending in an explicit ``+Inf`` bucket whose count equals the
    ``_count`` sample, plus a ``_sum`` sample.  Raises ``ValueError``.
    """
    families = parse_prometheus_text(text)
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        buckets: list[tuple[float, float]] = []
        total = sum_value = None
        for sample_name, labels, value in family["samples"]:
            if sample_name == f"{name}_bucket":
                if "le" not in labels:
                    raise ValueError(
                        f"histogram {name!r} bucket without le label"
                    )
                buckets.append((float(labels["le"]), value))
            elif sample_name == f"{name}_count":
                total = value
            elif sample_name == f"{name}_sum":
                sum_value = value
        if total is None or sum_value is None:
            raise ValueError(
                f"histogram {name!r} missing _sum/_count series"
            )
        if not buckets or buckets[-1][0] != float("inf"):
            raise ValueError(
                f"histogram {name!r} missing explicit +Inf bucket"
            )
        counts = [count for _, count in buckets]
        if counts != sorted(counts):
            raise ValueError(
                f"histogram {name!r} buckets are not cumulative"
            )
        if buckets[-1][1] != total:
            raise ValueError(
                f"histogram {name!r} +Inf bucket != _count"
            )
    return families
