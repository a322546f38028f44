"""The telemetry handle and its null-object default.

Every component reaches its telemetry one way: through the ambient span
(:func:`~repro.telemetry.spans.ambient_telemetry`), the handle of the
span that encloses the call. A command that owns a handle opens one root
span on it over all of its work, and the sweep store, the result
manifest, the pipeline, the platform, the sweep cache, the session
engine and the Monte Carlo engine record their spans and infrastructure
counters there.

Event streams are narrower: a handle records them only inside its
:meth:`Telemetry.record_events` scope. A controller session that starts
inside the scope records the policy's decision events and controller
counters and the runner's ``KernelLaunch`` events and launch metrics
(each event an instant on the handle's span tracker, inside the
session's spans); a session that starts outside it records none of
them, even under a live span. Policies look the handle up in
``reset()`` and runners once per session, so the scope is read at
session start and never per launch.

Outside any span (every untraced run) the ambient handle is
:data:`NULL_TELEMETRY`. It reports ``enabled = False`` — hot paths guard
event construction behind that flag — and serves no-op metrics, span
stand-ins and event scopes, so a component can also call straight
through without branching. With telemetry disabled the control decisions
and run outputs are bit-identical to an uninstrumented build.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Iterator

from repro.telemetry.spans import (
    NULL_SPAN,
    NULL_SPAN_TRACKER,
    SpanHandle,
    SpanTracker,
    ambient_telemetry,
)

if TYPE_CHECKING:
    from repro.telemetry.events import TelemetryEvent


class Telemetry:
    """A live telemetry handle: metrics, spans and an event scope."""

    enabled = True

    def __init__(self):
        # Imported here: a process that only holds the null handle
        # (every untraced run) never loads the metrics registry.
        from repro.telemetry.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker()
        #: True inside :meth:`record_events`.
        self.records_events = False

    def emit(self, event: TelemetryEvent) -> None:
        """Record one event as an instant on the span tracker."""
        self.spans.mark(event)

    def span(self, name: str, **labels: Any) -> SpanHandle:
        """Context manager opening a hierarchical span.

        The open span becomes the ambient parent for spans entered
        below it on the same thread (see
        :func:`~repro.telemetry.spans.ambient_telemetry`).
        """
        return SpanHandle(self, self.spans, name, labels)

    @contextlib.contextmanager
    def record_events(self) -> Iterator[None]:
        """Scope in which controller sessions record their event streams.

        Sessions that start inside it record decision events, controller
        counters, ``KernelLaunch`` events and launch metrics on this
        handle; the events are the instants of ``self.spans``. Sessions
        find the handle through the ambient span, so open the scope
        inside a span of this handle.

        Raises:
            TelemetryError: outside a span of this handle, where no
                session could see the scope.
        """
        if ambient_telemetry() is not self:
            from repro.errors import TelemetryError
            raise TelemetryError(
                "record_events needs an open span of this handle")
        outer = self.records_events
        self.records_events = True
        try:
            yield
        finally:
            self.records_events = outer


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

    A single shared instance (:data:`NULL_TELEMETRY`) is the ambient
    handle outside any span and the handle every policy and runner holds
    outside an event scope, keeping the uninstrumented hot path to one
    attribute check.
    """

    enabled = False
    records_events = False

    metrics = _NullRegistry()
    spans = NULL_SPAN_TRACKER

    def span(self, name: str, **labels: Any):
        return NULL_SPAN

    def record_events(self):
        return NULL_SPAN


#: The process-wide disabled handle (the default everywhere).
NULL_TELEMETRY = NullTelemetry()
