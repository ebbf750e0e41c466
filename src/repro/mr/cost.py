"""CPU cost metering and the analytic framework cost model.

The paper measures total CPU time on the cluster.  The simulator
accounts CPU in two parts:

* **User-function cost** — every call into user code (map, reduce,
  combine, getPartition) runs under a :class:`CostMeter`.  The default
  :class:`PerfCounterMeter` measures real elapsed time, so CPU heavy
  workloads (e.g. the Fibonacci busy work of Section 7.6) show up for
  real.  Deterministic meters are provided for tests and for the
  runtime-threshold decision logic.  The engine hands the calls of one
  task kind to :meth:`CostMeter.measure_each` a batch at a time (the
  Map calls between two emission flushes, a chunk of reduce or combine
  groups): a deterministic meter still charges each call its own cost,
  in call order, while the real clock is read once per batch — two
  clock reads per call cost more than many of the calls they would
  time.

* **Framework cost** — sorting, serialisation, spill I/O and merging
  are charged analytically, per record and per byte, with the constants
  in :class:`FrameworkCostModel`.  The constants are calibrated to
  plausible single-core rates (documented inline); what matters for
  reproducing the paper is that framework CPU scales with the number of
  records sorted and bytes spilled, which is exactly the quantity
  Anti-Combining reduces.

The meter is also the instrument behind the AntiMapper's adaptive rule
(Figure 7): "(cost of map + cost of partition call) * number of
partitions > T".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

#: Reduce or combine calls (groups) per :meth:`CostMeter.measure_each`
#: batch.  (A map task's batches end at its emission flushes.)
GROUP_CALLS_PER_BATCH = 512


def chunked(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """``items`` in consecutive lists of ``size`` (the last shorter)."""
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk


class CostMeter:
    """Measures the cost (in seconds) of calling a function."""

    def measure(self, fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
        """Call ``fn`` and return ``(result, cost_seconds)``."""
        raise NotImplementedError

    def measure_each(
        self,
        fn: Callable[[Any, Any, Any], Any],
        items: Iterable[tuple[Any, Any]],
        context: Any,
        charge: Callable[[float], Any],
    ) -> None:
        """Call ``fn(a, b, context)`` for each ``(a, b)`` in ``items``
        and ``charge`` what the calls cost.

        Here each call is :meth:`measure`-d and charged on its own, in
        call order, so a deterministic meter adds exactly the floats a
        loop of :meth:`measure` calls adds.  A call that raises is not
        charged; the ones before it are.
        """
        measure = self.measure
        for a, b in items:
            _, cost = measure(fn, a, b, context)
            charge(cost)


class PerfCounterMeter(CostMeter):
    """Real wall-clock metering via ``time.perf_counter_ns``."""

    def measure(self, fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        return result, (time.perf_counter_ns() - start) * 1e-9

    def measure_each(
        self,
        fn: Callable[[Any, Any, Any], Any],
        items: Iterable[tuple[Any, Any]],
        context: Any,
        charge: Callable[[float], Any],
    ) -> None:
        """Time the whole batch with one pair of clock reads and charge
        it once — also when a call raises, so a failed attempt keeps
        the work it did."""
        start = time.perf_counter_ns()
        try:
            for a, b in items:
                fn(a, b, context)
        finally:
            charge((time.perf_counter_ns() - start) * 1e-9)


class FixedCostMeter(CostMeter):
    """Charges a fixed cost per call — deterministic, for tests."""

    def __init__(self, cost_per_call: float = 1e-6):
        self.cost_per_call = cost_per_call
        self.calls = 0

    def measure(self, fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
        self.calls += 1
        return fn(*args, **kwargs), self.cost_per_call


class TableCostMeter(CostMeter):
    """Looks up cost per function ``__name__`` — deterministic, for tests.

    Unknown functions are charged ``default_cost``.
    """

    def __init__(self, costs: dict[str, float], default_cost: float = 0.0):
        self.costs = dict(costs)
        self.default_cost = default_cost

    def measure(self, fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
        name = getattr(fn, "__name__", "")
        return fn(*args, **kwargs), self.costs.get(name, self.default_cost)


@dataclass(frozen=True)
class FrameworkCostModel:
    """Analytic per-record / per-byte CPU charges for framework work.

    The constants are calibrated to *CPython* record-handling costs
    (measured on this simulator's own serde/sort paths), not to C:
    user-function CPU is measured for real in interpreted Python, so
    the framework charges must be on the same scale or the trade-off
    the paper studies — framework work saved vs encoding work added —
    would be systematically misweighted.  Roughly: touching a byte in
    serde costs ~100 ns, one sort comparison through a key wrapper
    ~250 ns, per-record bookkeeping ~1.5 us.
    """

    serialize_sec_per_byte: float = 1e-7
    compare_sec: float = 2.5e-7
    stream_sec_per_byte: float = 2e-8
    per_record_sec: float = 1.5e-6

    def sort_cost(self, num_records: int) -> float:
        """CPU seconds to sort ``num_records`` records (n log2 n compares)."""
        if num_records <= 1:
            return 0.0
        return self.compare_sec * num_records * math.log2(num_records)

    def merge_cost(self, num_records: int, num_segments: int) -> float:
        """CPU seconds for a k-way merge of ``num_records`` records."""
        if num_records <= 0 or num_segments <= 1:
            return self.per_record_sec * max(num_records, 0)
        return (
            self.compare_sec * num_records * math.log2(num_segments)
            + self.per_record_sec * num_records
        )

    def serialize_cost(self, num_bytes: int) -> float:
        """CPU seconds to (de)serialise ``num_bytes``."""
        return self.serialize_sec_per_byte * num_bytes

    def stream_cost(self, num_bytes: int) -> float:
        """CPU seconds to push ``num_bytes`` through a spill/merge path."""
        return self.stream_sec_per_byte * num_bytes

    def record_cost(self, num_records: int) -> float:
        """Fixed per-record handling charge."""
        return self.per_record_sec * num_records
