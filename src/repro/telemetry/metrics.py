"""Labelled counters, gauges and histograms.

A small Prometheus-flavoured metrics vocabulary for the controller and
runtime: monotonically increasing **counters** (``cg_actions_total``,
``fg_dither_events_total``), point-in-time **gauges**, and bucketed
**histograms** (``launch_time_seconds``). Every instrument supports
key=value labels; each distinct label set is its own time series.

Instruments are obtained from a :class:`MetricsRegistry`, which is the
unit of export — ``as_dict`` for JSON emission (the CLI's
``--metrics-out``), ``render_text`` for a human-readable dump, and
``render_prometheus`` for the standard text exposition format.

Registries are **mergeable**: ``as_dict`` doubles as a snapshot wire
format that :meth:`MetricsRegistry.merge` folds back in — counters and
histogram buckets add, gauges last-write-win — so a registry recorded
elsewhere (another process, a saved ``--metrics-out`` export) can be
aggregated into this one. All mutation is behind per-instrument locks,
so several threads may record into one shared registry directly.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TelemetryError

#: Internal key for one label set: sorted (name, value) pairs.
_LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, tuned for kernel-launch times (seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Instrument:
    """Shared naming/labelling machinery of all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, help: str = ""):
        if not name or not name.replace("_", "a").isalnum():
            raise TelemetryError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: Dict[_LabelKey, Any] = {}
        self._lock = threading.Lock()

    def labelsets(self) -> List[Dict[str, str]]:
        """Every label set observed so far, as plain dicts."""
        with self._lock:
            return [dict(key) for key in self._series]

    def merge_samples(self, samples: Sequence[Mapping[str, Any]]) -> None:
        """Fold an ``as_dict`` sample list into this instrument."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Increase the series selected by ``labels`` by ``amount``."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current count of one series (0 if never incremented)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        """All series as ``{"labels": ..., "value": ...}`` rows."""
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]

    def merge_samples(self, samples: Sequence[Mapping[str, Any]]) -> None:
        """Add another registry's counts into this counter."""
        with self._lock:
            for sample in samples:
                key = _label_key(sample["labels"])
                amount = float(sample["value"])
                if amount < 0:
                    raise TelemetryError(
                        f"counter {self.name!r} snapshot has negative "
                        f"value {amount}"
                    )
                self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the series selected by ``labels``."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> Optional[float]:
        """Current value of one series (None if never set)."""
        with self._lock:
            return self._series.get(_label_key(labels))

    def samples(self) -> List[Dict[str, Any]]:
        """All series as ``{"labels": ..., "value": ...}`` rows."""
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]

    def merge_samples(self, samples: Sequence[Mapping[str, Any]]) -> None:
        """Adopt another registry's gauge values (last write wins)."""
        with self._lock:
            for sample in samples:
                self._series[_label_key(sample["labels"])] = float(
                    sample["value"]
                )


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Bucketed value distribution per label set.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail. Bucket counts are per-bucket (not cumulative); the exporter
    cumulates when a Prometheus-style view is wanted.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs >= 1 bucket")
        if len(set(bounds)) != len(bounds):
            raise TelemetryError(f"histogram {name!r} has duplicate buckets")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the series selected by ``labels``."""
        key = _label_key(labels)
        index = len(self.buckets)  # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: Any) -> int:
        """Observation count of one series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def total(self, **labels: Any) -> float:
        """Sum of all observed values of one series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series is not None else 0.0

    def bucket_counts(self, **labels: Any) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the +Inf bucket)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return tuple([0] * (len(self.buckets) + 1))
            return tuple(series.counts)

    def samples(self) -> List[Dict[str, Any]]:
        """All series with buckets, sum and count."""
        with self._lock:
            return [
                {
                    "labels": dict(key),
                    "buckets": list(zip(list(self.buckets) + ["+Inf"],
                                        series.counts)),
                    "sum": series.sum,
                    "count": series.count,
                }
                for key, series in sorted(self._series.items())
            ]

    def merge_samples(self, samples: Sequence[Mapping[str, Any]]) -> None:
        """Add another registry's bucket counts into this histogram.

        Raises:
            TelemetryError: when the snapshot's bucket bounds differ
                from this histogram's — silently misfiling counts would
                corrupt the distribution.
        """
        expected = [float(b) for b in self.buckets]
        with self._lock:
            for sample in samples:
                bounds = [b for b, _ in sample["buckets"]]
                finite = [float(b) for b in bounds[:-1]]
                if finite != expected:
                    raise TelemetryError(
                        f"histogram {self.name!r} snapshot has buckets "
                        f"{finite}, expected {expected}"
                    )
                key = _label_key(sample["labels"])
                series = self._series.get(key)
                if series is None:
                    series = _HistogramSeries(len(self.buckets))
                    self._series[key] = series
                for index, (_, bucket_count) in enumerate(sample["buckets"]):
                    series.counts[index] += int(bucket_count)
                series.sum += float(sample["sum"])
                series.count += int(sample["count"])


class MetricsRegistry:
    """Creates and owns named instruments (one registry per run)."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def instruments(self) -> Mapping[str, _Instrument]:
        """All registered instruments by name."""
        with self._lock:
            return dict(self._instruments)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold an ``as_dict``-shaped snapshot into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value. Instruments absent here are created on the fly (a
        histogram adopts the snapshot's bucket bounds), so merging a
        worker registry into a fresh parent works without
        pre-registration.

        Raises:
            TelemetryError: on a kind clash with an existing instrument,
                an unknown kind, or histogram bucket-bound mismatch.
        """
        for name, entry in sorted(snapshot.items()):
            kind = entry.get("type")
            help = entry.get("help", "")
            samples = entry.get("samples", [])
            if kind == "counter":
                instrument = self.counter(name, help)
            elif kind == "gauge":
                instrument = self.gauge(name, help)
            elif kind == "histogram":
                if samples:
                    bounds = [float(b) for b, _ in
                              samples[0]["buckets"][:-1]]
                else:
                    bounds = list(DEFAULT_TIME_BUCKETS)
                instrument = self.histogram(name, help, buckets=bounds)
            else:
                raise TelemetryError(
                    f"snapshot metric {name!r} has unknown kind {kind!r}"
                )
            instrument.merge_samples(samples)

    @classmethod
    def from_dict(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """A fresh registry rebuilt from an ``as_dict`` snapshot."""
        registry = cls()
        registry.merge(snapshot)
        return registry

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump of every instrument and series."""
        return {
            name: {
                "type": instrument.kind,
                "help": instrument.help,
                "samples": instrument.samples(),
            }
            for name, instrument in sorted(self.instruments().items())
        }

    def write_json(self, path) -> None:
        """Write :meth:`as_dict` to ``path`` as pretty-printed JSON."""
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render_text(self) -> str:
        """Human-readable exposition of all series."""
        lines: List[str] = []
        for name, instrument in sorted(self.instruments().items()):
            lines.append(f"# {instrument.kind} {name}"
                         + (f" — {instrument.help}" if instrument.help else ""))
            for sample in instrument.samples():
                labels = ",".join(f"{k}={v}" for k, v in
                                  sorted(sample["labels"].items()))
                label_text = "{" + labels + "}" if labels else ""
                if instrument.kind == "histogram":
                    lines.append(f"{name}{label_text} count={sample['count']} "
                                 f"sum={sample['sum']:.6g}")
                else:
                    lines.append(f"{name}{label_text} {sample['value']:g}")
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4).

        Counters and gauges emit one line per series; histograms emit
        cumulative ``_bucket{le=...}`` series plus ``_sum`` and
        ``_count``, matching what a scrape endpoint would serve.
        """
        lines: List[str] = []
        for name, instrument in sorted(self.instruments().items()):
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for sample in instrument.samples():
                if instrument.kind == "histogram":
                    cumulative = 0
                    for bound, bucket_count in sample["buckets"]:
                        cumulative += bucket_count
                        le = "+Inf" if bound == "+Inf" else _prom_number(bound)
                        labels = dict(sample["labels"], le=le)
                        lines.append(f"{name}_bucket{_prom_labels(labels)} "
                                     f"{cumulative}")
                    lines.append(f"{name}_sum{_prom_labels(sample['labels'])} "
                                 f"{_prom_number(sample['sum'])}")
                    lines.append(
                        f"{name}_count{_prom_labels(sample['labels'])} "
                        f"{sample['count']}"
                    )
                else:
                    lines.append(f"{name}{_prom_labels(sample['labels'])} "
                                 f"{_prom_number(sample['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_number(value: Any) -> str:
    """A float/int in Prometheus exposition syntax (no trailing .0)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _prom_labels(labels: Mapping[str, Any]) -> str:
    """``{k="v",...}`` with escaped values; empty string for no labels."""
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        escaped = (str(value).replace("\\", r"\\")
                   .replace("\n", r"\n").replace('"', r'\"'))
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"
