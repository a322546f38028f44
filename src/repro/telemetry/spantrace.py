"""Span traces on disk, and the analysis of recorded spans.

:mod:`repro.telemetry.spans` records spans; this module writes them out
and reads them back as Chrome trace-event JSON (``ph: "X"`` complete
events, microsecond timestamps — load the file in Perfetto or
``chrome://tracing``), rebuilds the span tree, and renders the
self-vs-total text report with the heaviest span chain as a critical
path. Only ``--trace``, ``run --profile`` and ``telemetry-report``
load it, so an untraced run never compiles this code.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, NamedTuple, Sequence

from repro.errors import TelemetryError
from repro.telemetry.spans import (
    SPAN_SCHEMA_VERSION, SpanRecord, freeze_labels)


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
            labels=freeze_labels(args),
        ))
    return records


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
