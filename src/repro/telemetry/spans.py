"""Hierarchical wall-time spans with ambient context propagation.

A span is one timed region of the run — a pipeline node, a sweep-store
load, a batch-sweep compute, a Monte Carlo rollout — carrying a unique
id, its parent's id, the recording process/thread, and free-form labels.
Spans land in one :class:`SpanTracker`, so the whole ``reproduce`` run
renders as a single tree. The tracker also keeps the run's instants:
each controller decision and kernel launch a session records (see
:meth:`~repro.telemetry.handle.Telemetry.record_events`), stamped by the
same clock, so it sits inside the spans that were open when it happened.

Context propagation is ambient: entering a span (via
:meth:`~repro.telemetry.handle.Telemetry.span`) installs a
:class:`SpanContext` in a :data:`contextvars.ContextVar`; child spans
opened anywhere below it on the same thread — including inside
components that were never handed a telemetry object, via
:func:`ambient_telemetry` — attach as children. A span opened on
another thread sees no ambient parent and becomes a root.

This module only records spans and instants. Writing and reading them
as a Chrome trace, and the span-tree analysis and text report, live in
:mod:`repro.telemetry.spantrace`, which an untraced run never loads.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: Version of the span wire schema (Chrome trace ``args`` payload).
SPAN_SCHEMA_VERSION = 1

#: Append-only history of the span fields per schema version. The lint
#: (``tools/check_event_schema.py``) compares the current version's entry
#: against the live :class:`SpanRecord` fields, so a field change without
#: a version bump fails CI.
SPAN_SCHEMA_MANIFEST: Dict[int, Tuple[str, ...]] = {
    1: (
        "end_s",
        "labels",
        "name",
        "parent_id",
        "pid",
        "span_id",
        "start_s",
        "tid",
    ),
}

class SpanRecord(NamedTuple):
    """One completed span.

    Timestamps are seconds relative to the owning tracker's epoch (a
    ``time.perf_counter`` origin), not wall-clock time.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    pid: int
    tid: int
    labels: Tuple[Tuple[str, str], ...]

    @property
    def duration_s(self) -> float:
        """Wall time spent inside the span."""
        return self.end_s - self.start_s

    def label_dict(self) -> Dict[str, str]:
        """The labels as a plain dict."""
        return dict(self.labels)


def span_fields() -> Tuple[str, ...]:
    """The current :class:`SpanRecord` field names, sorted."""
    return tuple(sorted(SpanRecord._fields))


def freeze_labels(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Span labels as sorted ``(key, str(value))`` pairs."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class InstantRecord(NamedTuple):
    """One event recorded at a point in time: a controller decision or a
    kernel launch (a :class:`~repro.telemetry.events.TelemetryEvent`).

    ``ts_s`` is seconds relative to the owning tracker's epoch, the
    clock of :class:`SpanRecord`.
    """

    event: Any
    ts_s: float
    pid: int
    tid: int


class SpanTracker:
    """Collects completed spans and instants, and allocates span ids.

    Timestamps count from the tracker's ``epoch``, the
    ``time.perf_counter`` reading at construction.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._instants: List[InstantRecord] = []

    def allocate_id(self) -> int:
        """A new span id, unique within this tracker."""
        with self._lock:
            return next(self._ids)

    def add(self, record: SpanRecord) -> None:
        """Record one completed span."""
        with self._lock:
            self._records.append(record)

    def records(self) -> List[SpanRecord]:
        """All completed spans, in completion order."""
        with self._lock:
            return list(self._records)

    def mark(self, event: Any) -> None:
        """Record ``event`` as an instant at the current time."""
        instant = InstantRecord(event, time.perf_counter() - self.epoch,
                                os.getpid(), threading.get_ident())
        with self._lock:
            self._instants.append(instant)

    def instants(self) -> List[InstantRecord]:
        """All recorded instants, in recording order."""
        with self._lock:
            return list(self._instants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class SpanContext(NamedTuple):
    """The ambient "current span" seen by code below an open span."""

    telemetry: Any
    tracker: SpanTracker
    span_id: Optional[int]


_CURRENT_SPAN: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_current_span", default=None
)

#: The null handle, bound on first use (its module imports this one).
_NULL_TELEMETRY: Any = None


def ambient_telemetry() -> Any:
    """The telemetry handle of the enclosing span, or the null handle.

    The one way any component reaches a handle: no constructor takes
    one. Spans and counters record on it; controller sessions also emit
    their events there when they start inside its ``record_events``
    scope.
    """
    global _NULL_TELEMETRY
    context = _CURRENT_SPAN.get()
    if context is not None:
        return context.telemetry
    if _NULL_TELEMETRY is None:
        from repro.telemetry.handle import NULL_TELEMETRY as _NULL_TELEMETRY
    return _NULL_TELEMETRY


class SpanHandle:
    """Context manager for one open span (created by ``Telemetry.span``).

    Entering starts the clock and installs the ambient context; exiting
    records the :class:`SpanRecord`.
    """

    __slots__ = ("_telemetry", "_tracker", "_name", "_labels", "_span_id",
                 "_parent_id", "_start", "_token")

    def __init__(self, telemetry: Any, tracker: SpanTracker, name: str,
                 labels: Mapping[str, Any]):
        self._telemetry = telemetry
        self._tracker = tracker
        self._name = name
        self._labels = freeze_labels(labels)
        self._span_id = 0
        self._parent_id: Optional[int] = None
        self._start = 0.0
        self._token = None

    @property
    def span_id(self) -> int:
        """The id allocated for this span (0 before entry)."""
        return self._span_id

    def __enter__(self) -> "SpanHandle":
        tracker = self._tracker
        context = _CURRENT_SPAN.get()
        # A span with no ambient parent in *this* tracker is a root.
        self._parent_id = (context.span_id if context is not None
                           and context.tracker is tracker else None)
        self._span_id = tracker.allocate_id()
        self._token = _CURRENT_SPAN.set(
            SpanContext(self._telemetry, tracker, self._span_id)
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        _CURRENT_SPAN.reset(self._token)
        epoch = self._tracker.epoch
        self._tracker.add(SpanRecord(
            name=self._name,
            span_id=self._span_id,
            parent_id=self._parent_id,
            start_s=self._start - epoch,
            end_s=end - epoch,
            pid=os.getpid(),
            tid=threading.get_ident(),
            labels=self._labels,
        ))


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The span and event scope :class:`~repro.telemetry.handle.NullTelemetry`
#: hands out (allocation-free disabled path).
NULL_SPAN = _NullSpan()


class _NullSpanTracker:
    """Tracker stand-in for the null handle: records nothing."""

    __slots__ = ()

    epoch = 0.0

    def allocate_id(self) -> int:
        return 0

    def add(self, record: SpanRecord) -> None:
        pass

    def records(self) -> List[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared inert tracker served by :class:`NullTelemetry`.
NULL_SPAN_TRACKER = _NullSpanTracker()
