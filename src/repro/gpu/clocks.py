"""Clock-domain-crossing model for the L2 <-> memory-controller interface.

Section 3.5 ("Architectural Clock Domains"): the GPU L2 cache runs on the
*compute* clock while the on-chip memory controller runs on the *memory*
clock. Requests that miss in L2 must cross this boundary, so the rate at
which the L2 can deliver misses to the memory controllers is proportional
to the compute frequency. For extremely memory-bound kernels with poor L2
hit rates (e.g. ``DeviceMemory``), lowering the compute clock therefore
throttles the *effective* DRAM bandwidth — these kernels are compute-
frequency sensitive even though they are bandwidth bound (Figure 9).

The model exposes a single quantity: the maximum byte rate the crossing can
sustain at a given compute frequency. The width is calibrated so the
crossing is just wide enough to feed full DRAM bandwidth at the DPM2 clock
(925 MHz), matching the paper's observation that the effect appears "when
compute frequency is low".
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import CalibrationError
from repro.gpu.architecture import GpuArchitecture
from repro.units import MHZ


class _ClockDomainFields(NamedTuple):
    """The fields of :class:`ClockDomainModel`, in declaration order."""

    crossing_bytes_per_cycle: float


class ClockDomainModel(_ClockDomainFields):
    """Bandwidth limit imposed by the L2 -> MC clock-domain crossing.

    Attributes:
        crossing_bytes_per_cycle: bytes the interconnect moves across the
            boundary per *compute* clock cycle, aggregated over all
            memory-controller ports.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ClockDomainModel":
        model = super().__new__(cls, *args, **kwargs)
        if model.crossing_bytes_per_cycle <= 0:
            raise CalibrationError("crossing width must be positive")
        return model

    def crossing_bandwidth(self, f_cu: float) -> float:
        """Maximum L2-miss byte rate (B/s) at compute frequency ``f_cu``."""
        if f_cu <= 0:
            raise CalibrationError("compute frequency must be positive")
        return self.crossing_bytes_per_cycle * f_cu

    @classmethod
    def calibrated_for(cls, arch: GpuArchitecture,
                       saturating_f_cu: float = 925 * MHZ) -> "ClockDomainModel":
        """Build a crossing just wide enough to feed peak DRAM bandwidth
        when the compute clock is at ``saturating_f_cu``.

        Below that clock the crossing (not the DRAM) is the bandwidth
        limiter for pure-miss traffic; above it the crossing has headroom.
        """
        peak_bw = arch.peak_memory_bandwidth(max(arch.memory_bus_frequencies))
        return cls(crossing_bytes_per_cycle=peak_bw / saturating_f_cu)
