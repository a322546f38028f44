"""Exception hierarchy for the Harmonia reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything originating here with a single ``except`` clause while
still being able to discriminate on the specific failure mode.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An invalid hardware configuration was requested.

    Raised when a requested tunable value is outside the platform's
    supported range or not on the platform's step grid (e.g. a CU count
    of 5 when the HD7970 only supports multiples of 4).
    """


class KernelSpecError(ReproError):
    """A kernel description is internally inconsistent.

    Examples: negative instruction counts, register usage above the
    physical register file size, a divergence fraction outside [0, 1].
    """


class CalibrationError(ReproError):
    """A calibration constant is out of its physically meaningful range."""


class PolicyError(ReproError):
    """A power-management policy was driven with inconsistent state.

    For example, asking the fine-grain tuner for a decision before any
    monitoring sample exists, or feeding a policy a kernel result from a
    configuration it did not request.
    """


class WorkloadError(ReproError):
    """An application or kernel lookup failed, or a phase schedule is bad."""


class AnalysisError(ReproError):
    """A sweep/analysis helper was used on inconsistent data."""


class TelemetryError(ReproError):
    """The telemetry subsystem was misused or fed an unreadable trace.

    Examples: registering one metric name as two different instrument
    types, or loading a trace file that is not trace-event JSON, whose
    instants were written under a different event schema version, or
    whose instant names an unknown event type.
    """


def map_items(fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
    """``[fn(item) for item in items]`` that names the item which failed.

    An exception from ``fn`` propagates with the note ``item i/n
    (<label>) failed``, the label being the item's ``name`` or its
    truncated ``repr``, so a 14-application loop that dies says which.
    """
    items = list(items)
    results = []
    for index, item in enumerate(items, 1):
        try:
            results.append(fn(item))
        except Exception as error:
            if hasattr(error, "add_note"):  # Python >= 3.11
                label = getattr(item, "name", None) or repr(item)[:60]
                error.add_note(f"item {index}/{len(items)} ({label}) failed")
            raise
    return results
