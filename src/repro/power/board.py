"""Board-level power aggregation (Section 6, Equation 4).

The paper measures total card power at the PCI-e connector and decomposes::

    MemPwr = GPUCardPwr - GPUPwr - OtherPwr        (Equation 4)

We build in the forward direction — component models produce ``GPUPwr`` and
``MemPwr``, ``OtherPwr`` is a constant (fan pinned at maximum RPM, voltage
regulators, trace losses) — and expose the same three-way decomposition a
measurement on the paper's rig would recover.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.errors import CalibrationError
from repro.gpu.config import HardwareConfig
from repro.memory.power import MemoryPowerModel
from repro.perf.batch import BatchCounters
from repro.perf.counters import PerfCounters
from repro.perf.result import PowerSample
from repro.power.gpu_power import GpuPowerModel


class _BoardPowerFields(NamedTuple):
    """The fields of :class:`BoardPowerModel`, in declaration order."""

    gpu: GpuPowerModel
    memory: MemoryPowerModel
    other_power: float


class BoardPowerModel(_BoardPowerFields):
    """Full-card power model.

    Attributes:
        gpu: the GPU chip power model.
        memory: the GDDR5 + PHY power model.
        other_power: constant rest-of-card power (W): fan at fixed maximum
            RPM, voltage regulators, discrete components (Section 6).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BoardPowerModel":
        model = super().__new__(cls, *args, **kwargs)
        if model.other_power < 0:
            raise CalibrationError("other_power must be non-negative")
        return model

    def sample(
        self,
        config: HardwareConfig,
        counters: PerfCounters,
        achieved_bandwidth: float,
    ) -> PowerSample:
        """Average power of a kernel launch at ``config``.

        Args:
            config: the hardware configuration the launch ran at.
            counters: the launch's performance counters (activity inputs).
            achieved_bandwidth: achieved DRAM bandwidth (B/s).
        """
        activity = self.gpu.activity_factor(
            valu_busy=counters.valu_busy,
            valu_utilization=counters.valu_utilization,
            mem_unit_busy=counters.mem_unit_busy,
        )
        gpu_watts = self.gpu.chip_power(config.n_cu, config.f_cu, activity)
        mem_watts = self.memory.total_power(config.f_mem, achieved_bandwidth)
        return PowerSample(gpu=gpu_watts, memory=mem_watts, other=self.other_power)

    def sample_batch(
        self,
        n_cu: np.ndarray,
        f_cu: np.ndarray,
        f_mem: np.ndarray,
        counters: BatchCounters,
        achieved_bandwidth: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`sample` over a batch of configurations.

        Returns:
            ``(gpu_watts, mem_watts)`` arrays; ``other_power`` is constant
            and attached by the caller.
        """
        activity = self.gpu.activity_factor_many(
            valu_busy=counters.valu_busy,
            valu_utilization=counters.valu_utilization,
            mem_unit_busy=counters.mem_unit_busy,
        )
        gpu_watts = self.gpu.chip_power_many(n_cu, f_cu, activity)
        mem_watts = self.memory.total_power_many(f_mem, achieved_bandwidth)
        return gpu_watts, mem_watts
