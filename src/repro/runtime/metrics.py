"""Evaluation metrics (Section 3.4).

The paper's primary metric is energy-delay-squared, ED², "commonly used in
HPC application analysis"; D is the actual kernel-execution time, and all
results are reported as improvements relative to the baseline power
manager. Averages across applications are **geometric means** (Section 7).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from repro.errors import AnalysisError


def ed(energy: float, delay: float) -> float:
    """Energy-delay product (J*s)."""
    if energy < 0 or delay < 0:
        raise AnalysisError("energy and delay must be non-negative")
    return energy * delay


def ed2(energy: float, delay: float) -> float:
    """Energy-delay-squared product (J*s^2) — the paper's main metric."""
    if energy < 0 or delay < 0:
        raise AnalysisError("energy and delay must be non-negative")
    return energy * delay * delay


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises:
        AnalysisError: if empty or any value is non-positive.
    """
    items = list(values)
    if not items:
        raise AnalysisError("geomean of an empty sequence")
    if any(v <= 0 for v in items):
        raise AnalysisError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def improvement(baseline: float, candidate: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline``.

    Positive means the candidate is better (smaller metric): a baseline
    ED² of 100 and candidate ED² of 88 is a 0.12 (12%) improvement.
    """
    if baseline <= 0:
        raise AnalysisError("baseline metric must be positive")
    return (baseline - candidate) / baseline


class RunMetrics(NamedTuple):
    """Aggregate metrics of one application run."""

    #: total execution time (s) — D in the paper's metrics
    time: float
    #: total card energy (J)
    energy: float
    #: time-weighted average card power (W)
    avg_power: float
    #: time-weighted average GPU chip power (W)
    avg_gpu_power: float
    #: time-weighted average memory power (W)
    avg_memory_power: float

    @property
    def ed(self) -> float:
        """Energy-delay product (J*s)."""
        return ed(self.energy, self.time)

    @property
    def ed2(self) -> float:
        """Energy-delay-squared product (J*s^2)."""
        return ed2(self.energy, self.time)

    @property
    def performance(self) -> float:
        """Performance as 1 / total execution time."""
        if self.time <= 0:
            raise AnalysisError("run has zero duration")
        return 1.0 / self.time


def metrics_from_launches(launches: Sequence) -> RunMetrics:
    """Aggregate :class:`~repro.perf.result.KernelRunResult`-like records.

    Each record must expose ``time`` (s) and ``power`` with ``gpu`` /
    ``memory`` / ``card`` attributes.

    Raises:
        AnalysisError: if the sequence is empty or total time is zero.
    """
    if not launches:
        raise AnalysisError("no launches to aggregate")
    total_time = sum(r.time for r in launches)
    if total_time <= 0:
        raise AnalysisError("total run time must be positive")
    energy = sum(r.power.card * r.time for r in launches)
    gpu_energy = sum(r.power.gpu * r.time for r in launches)
    mem_energy = sum(r.power.memory * r.time for r in launches)
    return RunMetrics(
        time=total_time,
        energy=energy,
        avg_power=energy / total_time,
        avg_gpu_power=gpu_energy / total_time,
        avg_memory_power=mem_energy / total_time,
    )
