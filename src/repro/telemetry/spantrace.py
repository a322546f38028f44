"""Trace files on disk, and the analysis of recorded spans.

:mod:`repro.telemetry.spans` records spans and instants; this module
writes them out and reads them back as one Chrome trace-event JSON file
per run (``ph: "X"`` complete events for the spans, then ``ph: "i"``
instant events for the controller's decision and launch events,
microsecond timestamps — load the file in Perfetto or
``chrome://tracing``), rebuilds the span tree, and renders the
self-vs-total text report with the heaviest span chain as a critical
path. Only ``--trace``, ``run --profile`` and ``telemetry-report``
load it, so an untraced run never compiles this code.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Sequence

from repro.errors import TelemetryError
from repro.telemetry.spans import (
    SPAN_SCHEMA_VERSION, InstantRecord, SpanRecord, freeze_labels)

if TYPE_CHECKING:
    from repro.telemetry.events import TelemetryEvent


# ---------------------------------------------------------------------------
# Chrome trace-event export / import


def chrome_trace_events(records: Sequence[SpanRecord],
                        instants: Sequence[InstantRecord]) -> List[dict]:
    """The records as Chrome trace-event dicts (``ph: "X"``, µs units),
    then the instants (``ph: "i"``, named by event type, the event's
    wire record as ``args``), each in recording order."""
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
    for instant in instants:
        events.append({
            "name": instant.event.event_type,
            "cat": "event",
            "ph": "i",
            "ts": instant.ts_s * 1e6,
            "pid": instant.pid,
            "tid": instant.tid,
            "args": instant.event.to_record(),
        })
    return events


def write_chrome_trace(path, records: Sequence[SpanRecord],
                       instants: Sequence[InstantRecord] = ()) -> int:
    """Write spans and instants as one Chrome trace-event JSON file,
    replacing any file at ``path``.

    The file is a single ``{"traceEvents": [...]}`` object, loadable in
    Perfetto (ui.perfetto.dev) or ``chrome://tracing``. Flushed and
    fsynced before returning, so a crash after this call cannot leave a
    torn trace.

    Returns:
        The number of span events written (metadata and instant events
        excluded).
    """
    payload = {
        "traceEvents": chrome_trace_events(records, instants),
        "displayTimeUnit": "ms",
        "otherData": {"span_schema": SPAN_SCHEMA_VERSION},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    return len(records)


class ChromeTrace(NamedTuple):
    """What a trace file holds: its spans, and the typed controller
    events of its instants in file order."""

    spans: List[SpanRecord]
    events: List[TelemetryEvent]


def _span_number(path, event: dict, key: str) -> float:
    """A span event's ``ts`` or ``dur``, which must be a number."""
    value = event.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TelemetryError(
            f"{path}: span event {event['name']!r} has no numeric {key}"
        )
    return value


def _span_integer(path, event: dict, key: str, value) -> int:
    """A span event's ``span_id``, ``parent_id``, ``pid`` or ``tid``,
    which must be an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TelemetryError(
            f"{path}: span event {event['name']!r} has a non-integer {key}"
        )
    return value


def load_chrome_trace(path) -> ChromeTrace:
    """Rebuild the :class:`SpanRecord` rows and the typed events of a
    Chrome trace JSON file.

    Raises:
        TelemetryError: when the file is not a JSON object holding a
            ``traceEvents`` array of objects with object ``args``, a
            span event misses a string ``name``, a numeric ``ts`` or
            ``dur`` or an integer ``span_id``, has a ``parent_id``,
            ``pid`` or ``tid`` that is not an integer, or an instant's
            ``args`` is not an event record of the current schema.
    """
    from repro.telemetry.events import event_from_record

    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise TelemetryError(
                f"{path}: not valid Chrome trace JSON ({error})"
            ) from None
    if not isinstance(payload, dict) or not isinstance(
            payload.get("traceEvents"), list):
        raise TelemetryError(f"{path}: missing traceEvents array")
    records: List[SpanRecord] = []
    events: List[TelemetryEvent] = []
    for event in payload["traceEvents"]:
        if not isinstance(event, dict):
            raise TelemetryError(
                f"{path}: trace event {event!r} is not an object")
        args = event.get("args") or {}
        if not isinstance(args, dict):
            raise TelemetryError(
                f"{path}: trace event {event.get('name')!r} has non-object "
                f"args")
        if event.get("ph") == "i" and event.get("cat") == "event":
            events.append(event_from_record(args))
            continue
        if event.get("ph") != "X" or event.get("cat") != "span":
            continue
        if not isinstance(event.get("name"), str):
            raise TelemetryError(
                f"{path}: span event without a string name")
        args = dict(args)
        span_id = _span_integer(path, event, "span_id",
                                args.pop("span_id", None))
        parent_raw = args.pop("parent_id", None)
        args.pop("schema", None)
        start_s = _span_number(path, event, "ts") / 1e6
        records.append(SpanRecord(
            name=event["name"],
            span_id=span_id,
            parent_id=(None if parent_raw is None else
                       _span_integer(path, event, "parent_id", parent_raw)),
            start_s=start_s,
            end_s=start_s + _span_number(path, event, "dur") / 1e6,
            pid=_span_integer(path, event, "pid", event.get("pid", 0)),
            tid=_span_integer(path, event, "tid", event.get("tid", 0)),
            labels=freeze_labels(args),
        ))
    return ChromeTrace(records, events)


# ---------------------------------------------------------------------------
# Tree building, canonical signatures, aggregation, reporting


class SpanNode:
    """One span plus its resolved children (a span-tree vertex)."""

    __slots__ = ("record", "children")

    def __init__(self, record: SpanRecord, children: List["SpanNode"]):
        self.record = record
        self.children = children


def span_tree(records: Sequence[SpanRecord]) -> List[SpanNode]:
    """Resolve parent ids into a forest (roots sorted by start time).

    A record whose parent id is unknown (None, or pointing at a span
    that was never recorded — e.g. a parent still open when the trace
    was written) becomes a root.
    """
    nodes = {record.span_id: SpanNode(record, []) for record in records}
    roots: List[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = (nodes.get(record.parent_id)
                  if record.parent_id is not None else None)
        if parent is None or parent is node:
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


def tree_signature(records: Sequence[SpanRecord]):
    """A canonical, order-independent signature of the span forest.

    Only names, labels and parent/child structure enter the signature —
    ids, timestamps, pids and tids do not — so two runs of the same
    workload produce equal signatures regardless of timing.
    """
    return tuple(sorted(_node_signature(root)
                        for root in span_tree(records)))


class SpanAggregate(NamedTuple):
    """Accumulated totals of one span name."""

    name: str
    count: int
    total_s: float
    self_s: float


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
