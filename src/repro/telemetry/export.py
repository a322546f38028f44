"""JSONL trace export, loading and replay.

The wire format is one JSON object per line, each tagged with the schema
version and event type (see :mod:`repro.telemetry.events`). The sink is
append-only — a crashed run leaves a readable prefix — and the loader
rebuilds typed events, from which :func:`replay_trace` reconstructs a
:class:`~repro.runtime.trace.RunTrace`-compatible view: the Figure 15/16
residency tables and total-time accounting work on a replayed trace
exactly as on a live one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Union

from repro.errors import TelemetryError
from repro.gpu.config import HardwareConfig
from repro.runtime.trace import RunTrace
from repro.telemetry.events import (
    KernelLaunch,
    TelemetryEvent,
    event_from_record,
)


class JsonlSink:
    """Append-only JSONL event sink.

    Args:
        path: file to append records to (created if missing).
    """

    def __init__(self, path):
        self._path = str(path)
        self._file = open(path, "a")
        self._count = 0

    @property
    def path(self) -> str:
        """The file being appended to."""
        return self._path

    @property
    def count(self) -> int:
        """Records written through this sink instance."""
        return self._count

    def write(self, event: TelemetryEvent) -> None:
        """Append one event as a JSON line."""
        if self._file is None:
            raise TelemetryError(f"sink {self._path!r} is closed")
        self._file.write(json.dumps(event.to_record(), sort_keys=True) + "\n")
        self._count += 1

    def flush(self) -> None:
        """Flush buffered lines to disk."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush, fsync and close the underlying file (idempotent).

        The fsync makes the trace durable at close: a machine crash
        right after a clean run cannot lose buffered tail records. A
        crash *mid*-run can still truncate the final line — the loader
        tolerates exactly that (see :func:`load_records`).
        """
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemorySink:
    """Event sink keeping events in a list (tests, summarization)."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def write(self, event: TelemetryEvent) -> None:
        """Append one event."""
        self.events.append(event)


def load_records(path) -> Iterator[dict]:
    """Yield raw JSON records from a JSONL trace file.

    A truncated **final** line — the footprint of a writer that crashed
    mid-append — is silently dropped, so the readable prefix of a
    crashed run replays cleanly. Malformed JSON anywhere *before* the
    final line is still an error: that is corruption, not truncation.
    """
    with open(path) as handle:
        lines = [(number, line.strip())
                 for number, line in enumerate(handle, start=1)
                 if line.strip()]
    for position, (line_number, line) in enumerate(lines):
        try:
            yield json.loads(line)
        except json.JSONDecodeError as error:
            if position == len(lines) - 1:
                return  # truncated tail of a crashed writer
            raise TelemetryError(
                f"{path}:{line_number}: not valid JSON ({error})"
            ) from None


def load_events(path) -> List[TelemetryEvent]:
    """Load and type every event of a JSONL trace file.

    Raises:
        TelemetryError: on malformed JSON, an unknown event type, or a
            schema-version mismatch.
    """
    return [event_from_record(record) for record in load_records(path)]


@dataclass(frozen=True)
class _ReplayPower:
    """Replayed power sample (only card power survives serialization)."""

    card: float


@dataclass(frozen=True)
class ReplayRecord:
    """One replayed launch — duck-types ``LaunchRecord`` for analysis."""

    iteration: int
    kernel_name: str
    config: HardwareConfig
    time: float
    power: _ReplayPower


class ReplayTrace(RunTrace):
    """A ``RunTrace`` rebuilt from serialized ``KernelLaunch`` events.

    Inherits all residency/time accounting unchanged; only record
    construction differs (replayed records carry the serialized subset
    of a launch result, not full counters).
    """

    @classmethod
    def from_events(cls, events: Iterable[TelemetryEvent]) -> "ReplayTrace":
        """Build a trace view from the ``KernelLaunch`` events in order."""
        trace = cls()
        for event in events:
            if isinstance(event, KernelLaunch):
                trace.append(ReplayRecord(
                    iteration=event.iteration,
                    kernel_name=event.kernel,
                    config=event.config,
                    time=event.time_s,
                    power=_ReplayPower(card=event.power_w),
                ))
        return trace


def replay_trace(source: Union[str, Iterable[TelemetryEvent]]) -> ReplayTrace:
    """Reconstruct a trace view from a JSONL path or an event sequence."""
    if isinstance(source, (str, os.PathLike)):
        source = load_events(source)
    return ReplayTrace.from_events(source)
