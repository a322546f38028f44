"""Run traces and residency accounting (Figures 15-16).

A :class:`RunTrace` records every kernel launch of an application run —
which configuration the policy chose, how long the launch took, what power
it drew. Residency tables answer the Figure 15/16 questions: what fraction
of run time did each tunable spend at each value?
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Tuple

from repro.errors import AnalysisError
from repro.gpu.config import HardwareConfig
from repro.perf.result import KernelRunResult


class LaunchRecord(NamedTuple):
    """One kernel launch inside a run."""

    iteration: int
    kernel_name: str
    result: KernelRunResult

    @property
    def config(self) -> HardwareConfig:
        """The configuration the policy chose for this launch."""
        return self.result.config

    @property
    def time(self) -> float:
        """Launch execution time (s)."""
        return self.result.time

    @property
    def power(self):
        """Launch power sample."""
        return self.result.power


class ResidencyTable(NamedTuple):
    """Time-weighted residency of one tunable across a run.

    Attributes:
        fractions: mapping from tunable value to fraction of run time
            spent there; fractions sum to 1.
    """

    tunable: str
    fractions: Mapping[float, float]

    def fraction_at(self, value: float) -> float:
        """Fraction of run time at ``value`` (0 if never visited)."""
        return self.fractions.get(value, 0.0)

    def dominant_value(self) -> float:
        """The tunable value with the highest residency."""
        if not self.fractions:
            raise AnalysisError("empty residency table")
        return max(self.fractions, key=lambda k: self.fractions[k])


class RunTrace:
    """Accumulates launch records and derives residency/energy views."""

    def __init__(self) -> None:
        self._records: List[LaunchRecord] = []

    def append(self, record: LaunchRecord) -> None:
        """Add one launch record (in execution order)."""
        self._records.append(record)

    @property
    def records(self) -> Tuple[LaunchRecord, ...]:
        """All launch records in execution order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def total_time(self) -> float:
        """Total run time (s)."""
        return sum(r.time for r in self._records)

    def records_for_kernel(self, kernel_name: str) -> Tuple[LaunchRecord, ...]:
        """Launch records of one kernel, in execution order."""
        return tuple(r for r in self._records if r.kernel_name == kernel_name)

    def _residency(self, tunable: str, key) -> ResidencyTable:
        total = self.total_time()
        if total <= 0:
            raise AnalysisError(
                f"cannot compute {tunable!r} residency: the trace has no "
                f"time accumulated ({len(self._records)} launch records)"
            )
        sums: Dict[float, float] = {}
        for record in self._records:
            value = key(record.config)
            sums[value] = sums.get(value, 0.0) + record.time
        fractions = {value: t / total for value, t in sums.items()}
        return ResidencyTable(tunable=tunable, fractions=fractions)

    def cu_residency(self) -> ResidencyTable:
        """Residency over active-CU counts (the Figure 16 #CUs column)."""
        return self._residency("n_cu", lambda c: c.n_cu)

    def f_cu_residency(self) -> ResidencyTable:
        """Residency over compute frequencies (Figure 16 CUFreq column)."""
        return self._residency("f_cu", lambda c: c.f_cu)

    def f_mem_residency(self) -> ResidencyTable:
        """Residency over memory bus frequencies (Figures 15 and 16)."""
        return self._residency("f_mem", lambda c: c.f_mem)

    def power_segments(self) -> Tuple[Tuple[float, float], ...]:
        """(duration, card power) pieces for DAQ-style sampling."""
        return tuple((r.time, r.power.card) for r in self._records)
