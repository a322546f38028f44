"""Labelled counters and histograms.

A small Prometheus-flavoured metrics vocabulary for the controller and
runtime: monotonically increasing **counters** (``cg_actions_total``,
``fg_dither_events_total``) and bucketed **histograms**
(``launch_time_seconds``). Every instrument supports key=value labels;
each distinct label set is its own time series.

Instruments are obtained from a :class:`MetricsRegistry`, which is the
unit of export: ``as_dict`` is the JSON the CLI's ``--metrics-out``
writes and ``telemetry-report --metrics`` reads back. Every command runs
on one thread, but all mutation stays behind per-instrument locks, so a
library caller may still record into one registry from several threads.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Mapping, Sequence, Tuple

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


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Bucketed value distribution per label set.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail. Bucket counts are per-bucket, not cumulative.
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

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def instruments(self) -> Mapping[str, _Instrument]:
        """All registered instruments by name."""
        with self._lock:
            return dict(self._instruments)

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
