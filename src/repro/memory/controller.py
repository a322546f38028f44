"""Memory-controller model: achievable DRAM bandwidth.

The achievable bandwidth of a GDDR5 subsystem is the minimum of three
limits, each of which the paper's characterization exercises:

* **peak x efficiency** — the Equation-2 pin bandwidth derated by the
  controller's scheduling efficiency for the kernel's access pattern
  (row-buffer locality, read/write turnarounds, coalescing),
* **memory-level parallelism (MLP)** — Little's law: the system can only
  sustain ``outstanding bytes / latency``. Outstanding bytes scale with
  active CUs, resident wavefronts (occupancy!) and the kernel's per-wave
  request concurrency; latency comes from :class:`~repro.memory.gddr5.
  Gddr5Timing` and lengthens as the bus slows. Low-occupancy kernels are
  latency-bound here, which is exactly why ``Sort.BottomScan`` (30%
  occupancy) is insensitive to memory frequency (Figure 7),
* **the clock-domain crossing** — applied by the performance model using
  :class:`~repro.gpu.clocks.ClockDomainModel` (Figure 9).

This module computes the first two and reports a breakdown so analyses can
attribute which limit binds.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.gpu.architecture import GpuArchitecture
from repro.memory.gddr5 import Gddr5Timing


class BandwidthBreakdown(NamedTuple):
    """Achievable-bandwidth limits (B/s) and the binding limit."""

    peak: float
    efficiency_limited: float
    mlp_limited: float

    @property
    def achievable(self) -> float:
        """The bandwidth the subsystem can actually sustain."""
        return min(self.efficiency_limited, self.mlp_limited)

    @property
    def binding_limit(self) -> str:
        """``"efficiency"`` if pin bandwidth binds, else ``"mlp"``."""
        return "efficiency" if self.efficiency_limited <= self.mlp_limited else "mlp"


class MemoryControllerModel(NamedTuple):
    """Bandwidth model for one GPU's memory subsystem.

    Attributes:
        arch: the GPU machine description (pin bandwidth, CU geometry).
        timing: the GDDR5 latency model.
    """

    arch: GpuArchitecture
    timing: Gddr5Timing

    def achievable_bandwidth(
        self,
        f_mem: float,
        n_cu: int,
        waves_per_simd: int,
        outstanding_per_wave: float,
        access_efficiency: float,
    ) -> BandwidthBreakdown:
        """Compute the bandwidth limits for a kernel at a configuration.

        Args:
            f_mem: memory bus frequency (Hz).
            n_cu: active compute units.
            waves_per_simd: resident wavefronts per SIMD (occupancy result).
            outstanding_per_wave: average concurrent DRAM requests a
                resident wavefront keeps in flight (kernel MLP).
            access_efficiency: controller scheduling efficiency in (0, 1]
                for this kernel's access pattern.

        Returns:
            A :class:`BandwidthBreakdown`.

        Raises:
            CalibrationError: on out-of-range arguments.
        """
        if not 0 < access_efficiency <= 1:
            raise CalibrationError("access_efficiency must be in (0, 1]")
        if outstanding_per_wave <= 0:
            raise CalibrationError("outstanding_per_wave must be positive")
        if n_cu <= 0 or waves_per_simd <= 0:
            raise CalibrationError("n_cu and waves_per_simd must be positive")

        peak = self.arch.peak_memory_bandwidth(f_mem)
        efficiency_limited = peak * access_efficiency

        waves_per_cu = waves_per_simd * self.arch.simds_per_cu
        outstanding_bytes = (
            n_cu * waves_per_cu * outstanding_per_wave * self.timing.burst_bytes
        )
        latency = self.timing.access_latency(f_mem)
        mlp_limited = outstanding_bytes / latency

        return BandwidthBreakdown(
            peak=peak,
            efficiency_limited=efficiency_limited,
            mlp_limited=mlp_limited,
        )

    def achievable_bandwidth_many(
        self,
        f_mem: np.ndarray,
        n_cu: np.ndarray,
        waves_per_simd: int,
        outstanding_per_wave: float,
        access_efficiency: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`achievable_bandwidth` over config arrays.

        Args:
            f_mem: memory bus frequencies (Hz), one per configuration.
            n_cu: active compute units, one per configuration.
            waves_per_simd: resident wavefronts per SIMD (config-invariant).
            outstanding_per_wave: kernel MLP (config-invariant).
            access_efficiency: controller scheduling efficiency in (0, 1].

        Returns:
            ``(peak, efficiency_limited, mlp_limited)`` arrays (B/s). The
            arithmetic mirrors the scalar path operation for operation so
            batched sweeps agree with per-launch evaluation.
        """
        if not 0 < access_efficiency <= 1:
            raise CalibrationError("access_efficiency must be in (0, 1]")
        if outstanding_per_wave <= 0:
            raise CalibrationError("outstanding_per_wave must be positive")
        if waves_per_simd <= 0:
            raise CalibrationError("waves_per_simd must be positive")

        # Equation 2, as in GpuArchitecture.peak_memory_bandwidth.
        per_mc_bytes = self.arch.bus_width_bits_per_mc / 8.0
        peak = (f_mem * per_mc_bytes * self.arch.memory_controllers
                * self.arch.gddr5_transfer_rate)
        efficiency_limited = peak * access_efficiency

        waves_per_cu = waves_per_simd * self.arch.simds_per_cu
        outstanding_bytes = (
            n_cu * waves_per_cu * outstanding_per_wave * self.timing.burst_bytes
        )
        latency = self.timing.fixed_latency + self.timing.bus_cycles / f_mem
        mlp_limited = outstanding_bytes / latency
        return peak, efficiency_limited, mlp_limited
