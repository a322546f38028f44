"""The injectable telemetry handle and its null-object default.

Instrumented components (the controller blocks, the session engine, the
CLI) accept an optional handle and fall back to :data:`NULL_TELEMETRY`.
The null object reports ``enabled = False`` — hot paths guard event
construction behind that flag — and serves no-op metrics and span
stand-ins, so a component can also call straight through without
branching. Either way, with telemetry disabled the control decisions and
run outputs are bit-identical to an uninstrumented build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.telemetry.spans import (
    NULL_SPAN,
    NULL_SPAN_TRACKER,
    SpanHandle,
    SpanTracker,
)

if TYPE_CHECKING:
    from repro.telemetry.events import TelemetryEvent
    from repro.telemetry.metrics import MetricsRegistry


class Telemetry:
    """A live telemetry handle: event sinks + metrics + spans.

    Args:
        sink: optional initial event sink (anything with ``write(event)``).
        metrics: metrics registry to use (fresh one by default).
        spans: span tracker to use (fresh one by default).
    """

    enabled = True

    def __init__(self, sink: Optional[Any] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanTracker] = None):
        if metrics is None:
            # Imported here: a process that only holds the null handle
            # (every untraced run) never loads the metrics registry.
            from repro.telemetry.metrics import MetricsRegistry
            metrics = MetricsRegistry()
        self.metrics = metrics
        self.spans = spans if spans is not None else SpanTracker()
        self._sinks: List[Any] = [sink] if sink is not None else []

    def add_sink(self, sink: Any) -> None:
        """Attach another event sink."""
        self._sinks.append(sink)

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink."""
        for sink in self._sinks:
            sink.write(event)

    def span(self, name: str, **labels: Any) -> SpanHandle:
        """Context manager opening a hierarchical span.

        The open span becomes the ambient parent for spans entered
        below it on the same thread (see
        :func:`~repro.telemetry.spans.ambient_telemetry`).
        """
        return SpanHandle(self, self.spans, name, labels)

    def close(self) -> None:
        """Close every sink that supports closing."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _NullMetric:
    """No-op counter/histogram stand-in."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    """Registry stand-in handing out the shared no-op instrument."""

    __slots__ = ()

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  buckets: Any = None) -> _NullMetric:
        return _NULL_METRIC


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) is the default for
    every instrumented component, keeping the uninstrumented hot path to
    one attribute check.
    """

    enabled = False

    metrics = _NullRegistry()
    spans = NULL_SPAN_TRACKER

    def emit(self, event: Any) -> None:
        pass

    def span(self, name: str, **labels: Any):
        return NULL_SPAN

    def add_sink(self, sink: Any) -> None:
        # Silent no-op: the null handle is shared process-wide and must
        # stay inert.
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The process-wide disabled handle (default for all components).
NULL_TELEMETRY = NullTelemetry()


def coalesce(telemetry: Optional[Any]) -> Any:
    """``telemetry`` if given, else the shared null handle."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
