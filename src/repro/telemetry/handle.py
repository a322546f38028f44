"""The telemetry handle and its null-object default.

A run reaches its telemetry in one of two ways, by what it records:

* **Event streams** go through an injected handle. The policies (the
  Harmonia controller, its CG/FG tuners and the variants) take a
  ``telemetry=`` handle for their decision events and controller
  metrics, and the two runners (``BatchSessionRunner`` and the test
  oracle ``ApplicationRunner``) take one for their ``KernelLaunch``
  events and launch metrics, so a caller can route each stream to its
  own sink.
* **Spans and infrastructure counters** go through the ambient span
  (:func:`~repro.telemetry.spans.ambient_telemetry`): the sweep store,
  the result manifest, the pipeline, the platform, the sweep cache, the
  session engine and the Monte Carlo engine record on the handle of the
  span that encloses the call. A command that owns a handle opens one
  root span on it over all of its work.

Where no handle is given and no span is open (every untraced run), both
ways reach :data:`NULL_TELEMETRY`. It reports ``enabled = False`` — hot
paths guard event construction behind that flag — and serves no-op
metrics and span stand-ins, so a component can also call straight
through without branching. Either way, with telemetry disabled the
control decisions and run outputs are bit-identical to an
uninstrumented build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.spans import (
    NULL_SPAN,
    NULL_SPAN_TRACKER,
    SpanHandle,
    SpanTracker,
)

if TYPE_CHECKING:
    from repro.telemetry.events import TelemetryEvent


class Telemetry:
    """A live telemetry handle: an event sink, metrics and spans.

    Args:
        sink: optional event sink (anything with ``write(event)``).
    """

    enabled = True

    def __init__(self, sink: Optional[Any] = None):
        # Imported here: a process that only holds the null handle
        # (every untraced run) never loads the metrics registry.
        from repro.telemetry.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker()
        self._sink = sink

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to the sink."""
        if self._sink is not None:
            self._sink.write(event)

    def span(self, name: str, **labels: Any) -> SpanHandle:
        """Context manager opening a hierarchical span.

        The open span becomes the ambient parent for spans entered
        below it on the same thread (see
        :func:`~repro.telemetry.spans.ambient_telemetry`).
        """
        return SpanHandle(self, self.spans, name, labels)

    def close(self) -> None:
        """Close the sink if it supports closing."""
        close = getattr(self._sink, "close", None)
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

    A single shared instance (:data:`NULL_TELEMETRY`) is the default
    handle of every policy and runner and the ambient handle outside any
    span, keeping the uninstrumented hot path to one attribute check.
    """

    enabled = False

    metrics = _NullRegistry()
    spans = NULL_SPAN_TRACKER

    def emit(self, event: Any) -> None:
        pass

    def span(self, name: str, **labels: Any):
        return NULL_SPAN

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The process-wide disabled handle (the default everywhere).
NULL_TELEMETRY = NullTelemetry()


def coalesce(telemetry: Optional[Any]) -> Any:
    """``telemetry`` if given, else the shared null handle."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
