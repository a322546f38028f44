"""Per-launch result container returned by the platform."""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.gpu.config import HardwareConfig
from repro.perf.counters import PerfCounters


class TimeBreakdown(NamedTuple):
    """Where a kernel launch's time went (seconds)."""

    #: pure compute-pipeline time
    compute: float
    #: pure memory-system time (DRAM + cache service)
    memory: float
    #: un-overlapped residue of the shorter component
    overlap_residue: float
    #: fixed launch/driver overhead
    launch_overhead: float

    @property
    def total(self) -> float:
        """Total wall-clock time of the launch (s)."""
        return (
            max(self.compute, self.memory)
            + self.overlap_residue
            + self.launch_overhead
        )

    @property
    def compute_bound(self) -> bool:
        """True when compute time dominates memory time."""
        return self.compute >= self.memory


class PowerSample(NamedTuple):
    """Average power (W) of one kernel launch, per Section 6's breakdown."""

    #: GPU chip power (compute + integrated MC), ``GPUPwr``
    gpu: float
    #: off-chip memory + DDR PHY power, ``MemPwr``
    memory: float
    #: fan, voltage regulators, board losses, ``OtherPwr``
    other: float

    @property
    def card(self) -> float:
        """Total GPU card power, ``GPUCardPwr`` (Equation 4 rearranged)."""
        return self.gpu + self.memory + self.other


class KernelRunResult(NamedTuple):
    """Everything observed from one kernel launch at one configuration."""

    kernel_name: str
    config: HardwareConfig
    #: execution time (s)
    time: float
    #: time breakdown from the performance model
    breakdown: TimeBreakdown
    #: synthesised performance counters
    counters: PerfCounters
    #: average power during the launch
    power: PowerSample
    #: achieved DRAM bandwidth (B/s)
    achieved_bandwidth: float
    #: kernel occupancy (fraction of max waves/SIMD)
    occupancy: float
    #: which bandwidth limit bound ("efficiency", "mlp", or "crossing")
    bandwidth_limit: str

    @property
    def energy(self) -> float:
        """Card energy of the launch (J)."""
        return self.power.card * self.time

    @property
    def performance(self) -> float:
        """Performance as 1 / execution time (the Figure 3 y-axis)."""
        return 1.0 / self.time
