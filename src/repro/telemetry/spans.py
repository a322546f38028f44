"""Hierarchical wall-time spans with ambient context propagation.

A span is one timed region of the run — a pipeline node, a sweep-store
load, a batch-sweep compute, a Monte Carlo rollout — carrying a unique
id, its parent's id, the recording process/thread, and free-form labels.
Spans land in one :class:`SpanTracker`, so the whole ``reproduce`` run
renders as a single tree.

Context propagation is ambient: entering a span (via
:meth:`~repro.telemetry.handle.Telemetry.span`) installs a
:class:`SpanContext` in a :data:`contextvars.ContextVar`; child spans
opened anywhere below it on the same thread — including inside
components that were never handed a telemetry object, via
:func:`ambient_telemetry` — attach as children. A span opened on
another thread sees no ambient parent and becomes a root.

Exports are Chrome trace-event JSON (``ph: "X"`` complete events,
microsecond timestamps — load the file in Perfetto or
``chrome://tracing``) plus a self-vs-total text report with the
heaviest span chain as a critical path.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TelemetryError

#: Version of the span wire schema (Chrome trace ``args`` payload).
SPAN_SCHEMA_VERSION = 1

#: Append-only history of the span fields per schema version. The lint
#: (``tools/check_event_schema.py``) compares the current version's entry
#: against the live dataclass, so a field change without a version bump
#: fails CI.
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

@dataclass(frozen=True)
class SpanRecord:
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
    return tuple(sorted(field.name for field in fields(SpanRecord)))


def _freeze_labels(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class SpanTracker:
    """Collects completed spans and allocates their ids.

    Timestamps count from the tracker's ``epoch``, the
    ``time.perf_counter`` reading at construction.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []

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

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass(frozen=True)
class SpanContext:
    """The ambient "current span" seen by code below an open span."""

    telemetry: Any
    tracker: SpanTracker
    span_id: Optional[int]


_CURRENT_SPAN: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_current_span", default=None
)


def ambient_telemetry() -> Any:
    """The telemetry handle of the enclosing span, or the null handle.

    Lets deep components (the platform's batch-sweep compute, the sweep
    cache) emit spans during a traced run without every constructor in
    between growing a ``telemetry`` parameter.
    """
    context = _CURRENT_SPAN.get()
    if context is not None:
        return context.telemetry
    from repro.telemetry.handle import NULL_TELEMETRY
    return NULL_TELEMETRY


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
        self._labels = _freeze_labels(labels)
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


#: The span :class:`~repro.telemetry.handle.NullTelemetry` hands out
#: (allocation-free disabled path).
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


# ---------------------------------------------------------------------------
# Chrome trace-event export / import


def chrome_trace_events(records: Sequence[SpanRecord]) -> List[dict]:
    """The records as Chrome trace-event dicts (``ph: "X"``, µs units)."""
    events: List[dict] = []
    for pid in sorted({record.pid for record in records}):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro pid {pid}"},
        })
    for record in records:
        args: Dict[str, Any] = {
            "schema": SPAN_SCHEMA_VERSION,
            "span_id": record.span_id,
            "parent_id": record.parent_id,
        }
        args.update(record.label_dict())
        events.append({
            "name": record.name,
            "cat": "span",
            "ph": "X",
            "ts": record.start_s * 1e6,
            "dur": record.duration_s * 1e6,
            "pid": record.pid,
            "tid": record.tid,
            "args": args,
        })
    return events


def write_chrome_trace(path, records: Sequence[SpanRecord]) -> int:
    """Write records as one Chrome trace-event JSON file.

    The file is a single ``{"traceEvents": [...]}`` object, loadable in
    Perfetto (ui.perfetto.dev) or ``chrome://tracing``. Flushed and
    fsynced before returning, so a crash after this call cannot leave a
    torn trace.

    Returns:
        The number of span events written (metadata events excluded).
    """
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"span_schema": SPAN_SCHEMA_VERSION},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    return len(records)


def load_chrome_trace(path) -> List[SpanRecord]:
    """Rebuild :class:`SpanRecord` rows from a Chrome trace JSON file.

    Raises:
        TelemetryError: when the file is not a trace-event JSON object
            or a span event misses its id payload.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise TelemetryError(
                f"{path}: not valid Chrome trace JSON ({error})"
            ) from None
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise TelemetryError(f"{path}: missing traceEvents array")
    records: List[SpanRecord] = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X" or event.get("cat") != "span":
            continue
        args = dict(event.get("args") or {})
        if "span_id" not in args:
            raise TelemetryError(
                f"{path}: span event {event.get('name')!r} has no span_id"
            )
        span_id = int(args.pop("span_id"))
        parent_raw = args.pop("parent_id", None)
        args.pop("schema", None)
        start_s = float(event["ts"]) / 1e6
        records.append(SpanRecord(
            name=str(event["name"]),
            span_id=span_id,
            parent_id=None if parent_raw is None else int(parent_raw),
            start_s=start_s,
            end_s=start_s + float(event.get("dur", 0.0)) / 1e6,
            pid=int(event.get("pid", 0)),
            tid=int(event.get("tid", 0)),
            labels=_freeze_labels(args),
        ))
    return records


# ---------------------------------------------------------------------------
# Tree building, canonical signatures, aggregation, reporting


@dataclass
class SpanNode:
    """One span plus its resolved children (a span-tree vertex)."""

    record: SpanRecord
    children: List["SpanNode"]


def span_tree(records: Sequence[SpanRecord],
              detach: Sequence[str] = ()) -> List[SpanNode]:
    """Resolve parent ids into a forest (roots sorted by start time).

    A record whose parent id is unknown (None, or pointing at a span
    that was never recorded — e.g. a crashed worker) becomes a root.

    ``detach`` names spans to force into roots (their subtrees stay
    intact). Use it to drop scheduling-dependent *attribution* from a
    tree: a single-flight cache fill (``sweep_cache.fill``) is led by
    whichever concurrent caller got there first, so its parent varies
    between equally-correct runs while everything inside it does not.
    """
    detached = set(detach)
    nodes = {record.span_id: SpanNode(record, []) for record in records}
    roots: List[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = (nodes.get(record.parent_id)
                  if record.parent_id is not None else None)
        if parent is None or parent is node or record.name in detached:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.record.start_s)
    roots.sort(key=lambda root: root.record.start_s)
    return roots


def _node_signature(node: SpanNode):
    return (
        node.record.name,
        node.record.labels,
        tuple(sorted(_node_signature(child) for child in node.children)),
    )


def tree_signature(records: Sequence[SpanRecord],
                   detach: Sequence[str] = ()):
    """A canonical, order-independent signature of the span forest.

    Only names, labels and parent/child structure enter the signature —
    ids, timestamps, pids and tids do not — so two runs of the same
    workload produce equal signatures regardless of timing or
    thread/process placement.

    When the workload contains single-flight shared work (see
    :func:`span_tree`), pass its span name in ``detach`` to sign the
    forest with those subtrees re-rooted; with attribution factored out
    the signature no longer depends on which caller filled the cache.
    """
    return tuple(sorted(_node_signature(root)
                        for root in span_tree(records, detach=detach)))


@dataclass(frozen=True)
class SpanAggregate:
    """Accumulated totals of one span name."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        """Mean wall time per span."""
        return self.total_s / self.count if self.count else 0.0


def aggregate_spans(records: Sequence[SpanRecord]) -> Dict[str, SpanAggregate]:
    """Per-name totals with self time (total minus direct children).

    ``self_s`` answers "where was time actually spent": a pipeline node
    whose total is all store loads has near-zero self time.
    """
    totals: Dict[str, List[float]] = {}
    child_time: Dict[int, float] = {}
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration_s
            )
    for record in records:
        entry = totals.setdefault(record.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record.duration_s
        entry[2] += max(0.0, record.duration_s
                        - child_time.get(record.span_id, 0.0))
    return {
        name: SpanAggregate(name=name, count=int(count),
                            total_s=total, self_s=self_s)
        for name, (count, total, self_s) in totals.items()
    }


def critical_path(records: Sequence[SpanRecord]) -> List[SpanRecord]:
    """The heaviest root-to-leaf chain (each step the slowest child)."""
    roots = span_tree(records)
    if not roots:
        return []
    node = max(roots, key=lambda root: root.record.duration_s)
    chain = [node.record]
    while node.children:
        node = max(node.children, key=lambda child: child.record.duration_s)
        chain.append(node.record)
    return chain


def format_span_report(records: Sequence[SpanRecord]) -> str:
    """Self-vs-total span breakdown plus the critical path, as text."""
    if not records:
        return "spans: none recorded"
    aggregates = sorted(aggregate_spans(records).values(),
                        key=lambda a: a.self_s, reverse=True)
    grand_self = sum(a.self_s for a in aggregates)
    workers = {(record.pid, record.tid) for record in records}
    processes = {record.pid for record in records}
    lines = [
        f"spans: {len(records)} across {len(processes)} process(es), "
        f"{len(workers)} worker(s)",
        "",
        f"{'span':<28s} {'count':>7s} {'total s':>10s} {'self s':>10s} "
        f"{'self %':>7s}",
    ]
    for aggregate in aggregates:
        share = aggregate.self_s / grand_self if grand_self > 0 else 0.0
        lines.append(
            f"{aggregate.name:<28s} {aggregate.count:>7d} "
            f"{aggregate.total_s:>10.4f} {aggregate.self_s:>10.4f} "
            f"{share:>6.1%}"
        )
    chain = critical_path(records)
    lines.append("")
    lines.append("critical path (heaviest chain):")
    for depth, record in enumerate(chain):
        label_text = ",".join(f"{k}={v}" for k, v in record.labels)
        suffix = f" [{label_text}]" if label_text else ""
        lines.append(f"{'  ' * depth}{record.name}{suffix} "
                     f"{record.duration_s:.4f}s")
    return "\n".join(lines)
