"""Structured telemetry for the Harmonia runtime.

Five pieces, composable through one :class:`Telemetry` handle:

* :mod:`repro.telemetry.events` — typed controller-decision events
  (``KernelLaunch``, ``PhaseChange``, ``CGJump``, ``FGStep``, ...) with a
  versioned JSON wire schema,
* :mod:`repro.telemetry.metrics` — a labelled counter/histogram registry
  (``cg_actions_total{kernel=...}``, ``launch_time_seconds``),
* :mod:`repro.telemetry.spans` — hierarchical spans with ambient context
  propagation — the one timing system — and the events recorded as
  instants on the same clock,
* :mod:`repro.telemetry.spantrace` — one Chrome trace-event file per run
  (Perfetto-loadable): spans, then the events as instants, written and
  read back, plus the self-vs-total critical-path report of recorded
  spans (``repro run --profile`` prints that report),
* :mod:`repro.telemetry.report` — the ``telemetry-report`` views of a
  trace's events (action mix, phases, and residency through a
  :class:`~repro.runtime.trace.RunTrace`-compatible replay).

Every component reaches its handle through the ambient span
(:func:`ambient_telemetry`): the store, the manifest, the pipeline and
the platform record spans and counters on the handle of the span that
encloses the call, and controller sessions that start inside the
handle's :meth:`Telemetry.record_events` scope record their decision
and ``KernelLaunch`` events there too. Outside any span the handle is
:data:`NULL_TELEMETRY`, whose operations are no-ops — with telemetry
disabled, control decisions and experiment outputs are bit-identical to
an uninstrumented build.
"""

import importlib

#: Public name -> defining submodule, imported when the name is first
#: read: the store and the pipeline import :mod:`repro.telemetry.spans`
#: alone (with :mod:`repro.telemetry.handle` for the null handle),
#: without the event schema or the trace file code.
_EXPORTS = {
    "SCHEMA_VERSION": "events",
    "EVENT_TYPES": "events",
    "TelemetryEvent": "events",
    "KernelLaunch": "events",
    "PhaseChange": "events",
    "CGJump": "events",
    "FGStep": "events",
    "FGRevert": "events",
    "FGConverged": "events",
    "ConfigApplied": "events",
    "event_from_record": "events",
    "ReplayTrace": "report",
    "Telemetry": "handle",
    "NullTelemetry": "handle",
    "NULL_TELEMETRY": "handle",
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Histogram": "metrics",
    "SPAN_SCHEMA_VERSION": "spans",
    "SpanRecord": "spans",
    "SpanTracker": "spans",
    "aggregate_spans": "spantrace",
    "ambient_telemetry": "spans",
    "format_span_report": "spantrace",
    "load_chrome_trace": "spantrace",
    "span_tree": "spantrace",
    "tree_signature": "spantrace",
    "write_chrome_trace": "spantrace",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
