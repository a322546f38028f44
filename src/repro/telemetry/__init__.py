"""Structured telemetry for the Harmonia runtime.

Four pieces, composable through one injectable handle:

* :mod:`repro.telemetry.events` — typed controller-decision events
  (``KernelLaunch``, ``PhaseChange``, ``CGJump``, ``FGStep``, ...) with a
  versioned JSON wire schema,
* :mod:`repro.telemetry.metrics` — a labelled counter/gauge/histogram
  registry (``cg_actions_total{kernel=...}``, ``launch_time_seconds``),
* :mod:`repro.telemetry.export` — append-only JSONL sink, loader, and a
  replay view compatible with :class:`~repro.runtime.trace.RunTrace`,
* :mod:`repro.telemetry.spans` — hierarchical spans with ambient context
  propagation, Chrome trace-event export (Perfetto-loadable) and a
  self-vs-total critical-path report — the one timing system
  (``repro run --profile`` prints that report).

Instrumented components accept a :class:`Telemetry` handle and default to
:data:`NULL_TELEMETRY`, whose operations are no-ops — with telemetry
disabled, control decisions and experiment outputs are bit-identical to
an uninstrumented build.
"""

import importlib

#: Public name -> defining submodule, imported when the name is first
#: read: the store and the pipeline import :mod:`repro.telemetry.handle`
#: and :mod:`repro.telemetry.spans` alone, without the event export path.
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
    "JsonlSink": "export",
    "InMemorySink": "export",
    "ReplayTrace": "export",
    "replay_trace": "export",
    "load_events": "export",
    "export_trace": "export",
    "Telemetry": "handle",
    "NullTelemetry": "handle",
    "NULL_TELEMETRY": "handle",
    "coalesce": "handle",
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "SPAN_SCHEMA_VERSION": "spans",
    "SpanRecord": "spans",
    "SpanTracker": "spans",
    "aggregate_spans": "spans",
    "ambient_telemetry": "spans",
    "format_span_report": "spans",
    "load_chrome_trace": "spans",
    "span_tree": "spans",
    "tree_signature": "spans",
    "write_chrome_trace": "spans",
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
