"""Lightweight nested-span tracing for the MapReduce engine.

Design constraints, in order:

1. **Zero cost when disabled.**  Call sites do ``with
   current_tracer().span("map.spill"):`` — when no tracer is active
   this returns the process-wide :data:`NULL_TRACER`, whose ``span``
   hands back one shared no-op context manager.  No allocation, no
   timestamps, no counter changes, so the engine's byte-identical
   counter contract is untouched.
2. **Picklable records.**  Task attempts may run in worker processes
   (:class:`~repro.mr.executor.ParallelExecutor`); the spans they
   record travel back to the scheduler alongside the task result —
   exactly like :class:`~repro.mr.segment.SegmentPayload` — so a
   :class:`SpanRecord` is a plain frozen dataclass of primitives.
3. **One clock per timeline.**  The scheduler's tracer is synced to
   the job clock (seconds since job start, the same clock the
   :class:`~repro.mr.events.EventLog` stamps).  Worker-side tracers
   measure relative to the *task* start; the scheduler re-bases their
   spans onto the job clock using the attempt's START event offset, so
   every span in a finished trace shares one epoch.
"""

from __future__ import annotations

import time
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, timed slice of work."""

    name: str
    #: Seconds since the tracer's epoch (the job start once re-based).
    start: float
    duration: float
    #: Coarse grouping for viewers ("scheduler", "map", "reduce", "shared").
    category: str = ""
    #: Free-form attributes (task id, byte counts, record counts, ...).
    attrs: dict[str, Any] = field(default_factory=dict)

    def shifted(self, offset: float, **extra_attrs: Any) -> "SpanRecord":
        """A copy re-based by ``offset`` with ``extra_attrs`` merged in."""
        return SpanRecord(
            name=self.name,
            start=self.start + offset,
            duration=self.duration,
            category=self.category,
            attrs={**self.attrs, **extra_attrs},
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "category": self.category,
            "attrs": dict(self.attrs),
        }


class _Span:
    """An open span; a context manager that records itself on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_begin")

    def __init__(
        self, tracer: "Tracer", name: str, category: str, attrs: dict
    ):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self._begin = 0.0

    def __enter__(self) -> "_Span":
        self._begin = self._tracer.now()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = self._tracer.now()
        self._tracer._records.append(
            SpanRecord(
                name=self._name,
                start=self._begin,
                duration=end - self._begin,
                category=self._category,
                attrs=self._attrs,
            )
        )

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)


class _NullSpan:
    """The shared do-nothing span of the :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`SpanRecord` objects against one clock."""

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._records: list[SpanRecord] = []

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return self._clock() - self._epoch

    def sync(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` as-is (its zero becomes this tracer's epoch).

        The scheduler calls this with its job clock so scheduler-side
        spans land on the same timeline as the event log.
        """
        self._clock = clock
        self._epoch = 0.0

    def span(self, name: str, category: str = "", **attrs: Any) -> _Span:
        """Open a span; use as ``with tracer.span("map.spill"): ...``."""
        return _Span(self, name, category, attrs)

    def extend(
        self,
        spans: Iterable[SpanRecord],
        offset: float = 0.0,
        **extra_attrs: Any,
    ) -> None:
        """Fold re-based foreign spans (e.g. a worker's) into this trace."""
        for span in spans:
            self._records.append(span.shifted(offset, **extra_attrs))

    def records(self) -> list[SpanRecord]:
        """Snapshot of every finished span, in completion order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def now(self) -> float:
        return 0.0

    def sync(self, clock: Callable[[], float]) -> None:
        return None

    def span(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def extend(
        self,
        spans: Iterable[SpanRecord],
        offset: float = 0.0,
        **extra_attrs: Any,
    ) -> None:
        return None

    def records(self) -> list[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0


#: The process-wide disabled tracer; call sites share this instance.
NULL_TRACER = NullTracer()

# -- the active tracer -----------------------------------------------------
#
# Task-phase code (map/reduce task internals, the Shared structure) is
# deep inside the call stack; threading a tracer argument through every
# constructor would contaminate a dozen signatures.  Instead the task
# attempt body *activates* its tracer for the duration of the task —
# in the worker process when attempts run on a pool — and instrumented
# code asks for ``current_tracer()``.
#
# The activation is per thread (a context variable): jobs a caller
# runs concurrently on threads of its own, or an abandoned attempt
# still finishing beside its retry, each see only their own tracer,
# and leaving one block never restores another thread's.

_active: ContextVar[Tracer | NullTracer] = ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should record on (never ``None``)."""
    return _active.get()


class activated:
    """Context manager installing ``tracer`` as the active tracer."""

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer
        self._token: Token | None = None

    def __enter__(self) -> Tracer | NullTracer:
        self._token = _active.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: Any) -> None:
        assert self._token is not None
        _active.reset(self._token)
