"""Hierarchical spans: nesting, propagation, export, signatures."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Telemetry
from repro.telemetry.handle import NULL_TELEMETRY
from repro.telemetry.spans import (
    SPAN_SCHEMA_MANIFEST,
    SPAN_SCHEMA_VERSION,
    SpanContext,
    SpanRecord,
    SpanTracker,
    ambient_telemetry,
    span_fields,
)
from repro.telemetry.spantrace import (
    aggregate_spans,
    critical_path,
    format_span_report,
    load_chrome_trace,
    span_tree,
    tree_signature,
    write_chrome_trace,
)


def record(name, span_id, parent_id, start, end, labels=()):
    """Hand-built SpanRecord for tree/signature tests."""
    return SpanRecord(name=name, span_id=span_id, parent_id=parent_id,
                      start_s=start, end_s=end, pid=1, tid=1,
                      labels=tuple(labels))


class TestSpanRecording:
    def test_single_span_recorded_with_labels(self):
        telemetry = Telemetry()
        with telemetry.span("work", kernel="K", attempt=2):
            pass
        (rec,) = telemetry.spans.records()
        assert rec.name == "work"
        assert rec.parent_id is None
        assert rec.label_dict() == {"kernel": "K", "attempt": "2"}
        assert rec.end_s >= rec.start_s
        assert rec.pid == os.getpid()

    def test_nesting_sets_parent_ids(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        inner, outer = telemetry.spans.records()
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_ids_unique(self):
        telemetry = Telemetry()
        for _ in range(5):
            with telemetry.span("s"):
                pass
        ids = [r.span_id for r in telemetry.spans.records()]
        assert len(set(ids)) == 5

    def test_null_telemetry_records_nothing(self):
        with NULL_TELEMETRY.span("work", kernel="K"):
            pass
        assert len(NULL_TELEMETRY.spans) == 0

    def test_exception_still_closes_span(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        (rec,) = telemetry.spans.records()
        assert rec.name == "doomed"

    def test_schema_manifest_matches_the_record_fields(self):
        assert SPAN_SCHEMA_MANIFEST[SPAN_SCHEMA_VERSION] == span_fields()
        assert span_fields() == tuple(sorted(SpanRecord._fields))


class TestSpanTypesContract:
    """``SpanRecord`` and ``SpanContext`` are immutable named tuples with
    the fields and accessors the trace code reads."""

    def test_record_keyword_and_positional_construction_agree(self):
        by_keyword = record("work", 2, 1, 0.5, 2.0, labels=(("k", "v"),))
        by_position = SpanRecord("work", 2, 1, 0.5, 2.0, 1, 1, (("k", "v"),))
        assert by_keyword == by_position
        assert SpanRecord._fields == ("name", "span_id", "parent_id",
                                      "start_s", "end_s", "pid", "tid",
                                      "labels")
        assert by_keyword.duration_s == 1.5
        assert by_keyword.label_dict() == {"k": "v"}

    def test_context_keyword_and_positional_construction_agree(self):
        tracker = SpanTracker()
        assert SpanContext(NULL_TELEMETRY, tracker, 3) == SpanContext(
            telemetry=NULL_TELEMETRY, tracker=tracker, span_id=3)
        assert SpanContext._fields == ("telemetry", "tracker", "span_id")

    def test_assignment_raises(self):
        rec = record("work", 2, 1, 0.5, 2.0)
        context = SpanContext(NULL_TELEMETRY, SpanTracker(), None)
        with pytest.raises(AttributeError):
            rec.end_s = 9.0
        with pytest.raises(AttributeError):
            rec.extra = 1
        with pytest.raises(AttributeError):
            context.span_id = 4
        assert (rec.end_s, context.span_id) == (2.0, None)


class TestContextPropagation:
    def test_outside_any_span_is_the_null_handle(self):
        assert ambient_telemetry() is NULL_TELEMETRY
        with Telemetry().span("outer"):
            pass
        assert ambient_telemetry() is NULL_TELEMETRY

    def test_ambient_telemetry_inside_span(self):
        telemetry = Telemetry()
        assert ambient_telemetry() is not telemetry
        with telemetry.span("outer"):
            assert ambient_telemetry() is telemetry
        assert not ambient_telemetry().enabled


class TestChromeTrace:
    def test_round_trip(self, tmp_path):
        telemetry = Telemetry()
        with telemetry.span("outer", kernel="K"):
            with telemetry.span("inner"):
                pass
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, telemetry.spans.records())
        assert count == 2
        loaded = load_chrome_trace(path)
        assert tree_signature(loaded) == tree_signature(
            telemetry.spans.records())
        for original, roundtripped in zip(
                sorted(telemetry.spans.records(), key=lambda r: r.span_id),
                sorted(loaded, key=lambda r: r.span_id)):
            assert roundtripped.name == original.name
            assert roundtripped.labels == original.labels
            assert roundtripped.duration_s == pytest.approx(
                original.duration_s, abs=1e-5)

    def test_trace_is_perfetto_shaped(self, tmp_path):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, telemetry.spans.records())
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all(e["cat"] == "span" for e in complete)
        assert all({"ts", "dur", "pid", "tid"} <= e.keys()
                   for e in complete)
        assert any(e["ph"] == "M" for e in events)  # process metadata

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TelemetryError):
            load_chrome_trace(bad)
        bad.write_text(json.dumps({"no": "traceEvents"}))
        with pytest.raises(TelemetryError):
            load_chrome_trace(bad)
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "cat": "span", "name": "x", "ts": 0, "dur": 1,
             "pid": 1, "tid": 1, "args": {}}]}))
        with pytest.raises(TelemetryError, match="span_id"):
            load_chrome_trace(bad)


class TestTreesAndSignatures:
    def test_unresolvable_parent_becomes_root(self):
        records = [record("orphan", 2, 999, 0.0, 1.0)]
        (root,) = span_tree(records)
        assert root.record.name == "orphan"

    def test_children_sorted_by_start(self):
        records = [
            record("root", 1, None, 0.0, 3.0),
            record("b", 3, 1, 2.0, 3.0),
            record("a", 2, 1, 1.0, 2.0),
        ]
        (root,) = span_tree(records)
        assert [c.record.name for c in root.children] == ["a", "b"]

    def test_signature_ignores_ids_times_and_order(self):
        first = [record("root", 1, None, 0.0, 2.0),
                 record("x", 2, 1, 0.0, 1.0, (("k", "v"),))]
        second = [record("x", 77, 50, 5.0, 9.0, (("k", "v"),)),
                  record("root", 50, None, 4.0, 10.0)]
        assert tree_signature(first) == tree_signature(second)

    def test_signature_sees_structure(self):
        nested = [record("root", 1, None, 0.0, 2.0),
                  record("x", 2, 1, 0.0, 1.0)]
        flat = [record("root", 1, None, 0.0, 2.0),
                record("x", 2, None, 0.0, 1.0)]
        assert tree_signature(nested) != tree_signature(flat)


class TestAggregationAndReport:
    def _records(self):
        return [
            record("root", 1, None, 0.0, 10.0),
            record("child", 2, 1, 0.0, 4.0),
            record("child", 3, 1, 4.0, 10.0),
            record("leaf", 4, 3, 5.0, 6.0),
        ]

    def test_self_time_subtracts_direct_children(self):
        aggregates = aggregate_spans(self._records())
        assert aggregates["root"].count == 1
        assert aggregates["root"].total_s == pytest.approx(10.0)
        assert aggregates["root"].self_s == pytest.approx(0.0)
        assert aggregates["child"].count == 2
        assert aggregates["child"].total_s == pytest.approx(10.0)
        assert aggregates["child"].self_s == pytest.approx(9.0)
        assert aggregates["leaf"].self_s == pytest.approx(1.0)

    def test_critical_path_follows_heaviest_child(self):
        path = [r.name for r in critical_path(self._records())]
        assert path == ["root", "child", "leaf"]

    def test_format_span_report(self):
        report = format_span_report(self._records())
        assert "root" in report and "child" in report
        assert "critical path" in report.lower()
        assert "self" in report

    def test_live_nesting_splits_self_time(self):
        import time

        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                time.sleep(0.02)
        aggregates = aggregate_spans(telemetry.spans.records())
        outer, inner = aggregates["outer"], aggregates["inner"]
        assert outer.total_s >= inner.total_s >= 0.02
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
        assert inner.self_s == pytest.approx(inner.total_s)

    def test_span_on_uncaptured_thread_keeps_caller_self_time(self):
        """A worker that did not install the caller's context opens a
        root span, so its time is not taken off the caller's self time."""
        import time

        telemetry = Telemetry()

        def worker():
            with telemetry.span("thread_work"):
                time.sleep(0.01)

        with telemetry.span("outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        records = {r.name: r for r in telemetry.spans.records()}
        assert records["thread_work"].parent_id is None
        outer = aggregate_spans(telemetry.spans.records())["outer"]
        assert outer.self_s == pytest.approx(outer.total_s)

    def test_report_shares_are_of_self_time(self):
        report = format_span_report([
            record("root", 1, None, 0.0, 4.0),
            record("child", 2, 1, 0.0, 3.0),
        ])
        rows = {line.split()[0]: line for line in report.splitlines()
                if line.endswith("%")}
        assert rows["child"].endswith("75.0%")
        assert rows["root"].endswith("25.0%")

    def test_empty_records(self):
        assert critical_path([]) == []
        assert aggregate_spans([]) == {}
        assert "none recorded" in format_span_report([]).lower()

