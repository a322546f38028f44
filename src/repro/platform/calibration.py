"""Calibration constants for the simulated HD7970 test bed.

Every free parameter of the substrate lives here, together with the paper
evidence it is calibrated against:

* **GPU chip power** — at the boost configuration with a compute-saturating
  workload the chip draws ~155 W (typical HD7970 under compute load;
  the board's PowerTune limit is 250 W). Split ~70% CU dynamic, ~15%
  leakage, ~15% uncore.
* **Memory power** — at 1375 MHz under full streaming traffic the GDDR5 +
  PHY subsystem draws ~55 W, making memory a major consumer of card power
  for memory-intensive workloads (Figure 1). The frequency-proportional
  share (~34 W at max) gives the ~10% board-power swing of Figure 5 when
  traffic is negligible.
* **OtherPwr** — ~30 W constant: fan pinned at max RPM + regulators
  (Section 6).
* **GDDR5 latency** — ~350 ns loaded at 1375 MHz, growing to ~500 ns at
  475 MHz; makes low-occupancy kernels latency- rather than
  bandwidth-bound (Figure 7).
* **Clock-domain crossing** — sized to feed 264 GB/s at a 925 MHz compute
  clock, so reducing the compute clock below DPM2 throttles effective
  bandwidth for L2-miss-heavy kernels (Figure 9).

The model builders import their models when called: a calibration is
hashed into every store key, and reading one must not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CalibrationError
from repro.gpu.architecture import GpuArchitecture, HD7970, PITCAIRN
from repro.memory.gddr5 import Gddr5Timing, HD7970_GDDR5_TIMING
from repro.units import MHZ

if TYPE_CHECKING:
    from repro.gpu.clocks import ClockDomainModel
    from repro.memory.power import MemoryPowerModel
    from repro.power.gpu_power import GpuPowerModel


@dataclass(frozen=True)
class PlatformCalibration:
    """A complete set of substrate constants."""

    arch: GpuArchitecture
    gddr5_timing: Gddr5Timing
    #: compute clock at which the L2->MC crossing just feeds peak DRAM BW
    crossing_saturating_f_cu: float
    #: effective switched capacitance per CU (F)
    cu_capacitance: float
    #: per-CU leakage at nominal voltage (W)
    cu_leakage_nominal: float
    #: uncore effective capacitance (F)
    uncore_capacitance: float
    #: uncore leakage at nominal voltage (W)
    uncore_leakage_nominal: float
    #: voltage the leakage constants are quoted at (V)
    v_nominal: float
    #: DRAM background power: frequency-independent part (W)
    mem_background_idle: float
    #: DRAM background power: frequency-proportional part at max (W)
    mem_background_slope: float
    #: PHY/PLL power: frequency-independent part (W)
    mem_pll_phy_idle: float
    #: PHY/PLL power: frequency-proportional part at max (W)
    mem_pll_phy_slope: float
    #: activation/pre-charge energy per 64 B burst (J)
    mem_activate_energy: float
    #: read/write energy per byte at max bus frequency (J/B)
    mem_rw_energy_per_byte: float
    #: read/write energy penalty at min bus frequency (fraction)
    mem_rw_low_freq_penalty: float
    #: termination energy per byte (J/B)
    mem_termination_energy_per_byte: float
    #: constant rest-of-card power (W)
    other_power: float
    #: enable memory bus voltage scaling (the Section 7.2 what-if; the
    #: paper's platform and the default model keep the bus voltage fixed)
    memory_voltage_scaling: bool = False

    def __post_init__(self) -> None:
        if self.crossing_saturating_f_cu <= 0:
            raise CalibrationError("crossing_saturating_f_cu must be positive")

    def gpu_power_model(self) -> GpuPowerModel:
        """Build the GPU chip power model from these constants."""
        from repro.power.gpu_power import GpuPowerModel

        return GpuPowerModel(
            dvfs=self.arch.dvfs_table,
            cu_capacitance=self.cu_capacitance,
            cu_leakage_nominal=self.cu_leakage_nominal,
            uncore_capacitance=self.uncore_capacitance,
            uncore_leakage_nominal=self.uncore_leakage_nominal,
            v_nominal=self.v_nominal,
        )

    def memory_power_model(self) -> MemoryPowerModel:
        """Build the GDDR5 + PHY power model from these constants."""
        from repro.memory.power import MemoryPowerModel

        return MemoryPowerModel(
            f_mem_max=max(self.arch.memory_bus_frequencies),
            background_idle=self.mem_background_idle,
            background_slope=self.mem_background_slope,
            pll_phy_idle=self.mem_pll_phy_idle,
            pll_phy_slope=self.mem_pll_phy_slope,
            activate_energy=self.mem_activate_energy,
            read_write_energy_per_byte=self.mem_rw_energy_per_byte,
            read_write_low_freq_penalty=self.mem_rw_low_freq_penalty,
            termination_energy_per_byte=self.mem_termination_energy_per_byte,
            burst_bytes=self.gddr5_timing.burst_bytes,
            voltage_scaling=self.memory_voltage_scaling,
        )

    def clock_domain_model(self) -> ClockDomainModel:
        """Build the L2 -> MC crossing model from these constants."""
        from repro.gpu.clocks import ClockDomainModel

        return ClockDomainModel.calibrated_for(
            self.arch, saturating_f_cu=self.crossing_saturating_f_cu
        )


def default_calibration() -> PlatformCalibration:
    """The calibration used for all paper-reproduction experiments."""
    return PlatformCalibration(
        arch=HD7970,
        gddr5_timing=HD7970_GDDR5_TIMING,
        crossing_saturating_f_cu=925 * MHZ,
        cu_capacitance=2.5e-9,
        cu_leakage_nominal=0.45,
        uncore_capacitance=1.4e-8,
        uncore_leakage_nominal=3.5,
        v_nominal=1.19,
        mem_background_idle=3.0,
        mem_background_slope=12.0,
        mem_pll_phy_idle=2.0,
        mem_pll_phy_slope=14.0,
        mem_activate_energy=1.5e-9,
        mem_rw_energy_per_byte=40.0e-12,
        mem_rw_low_freq_penalty=0.15,
        mem_termination_energy_per_byte=30.0e-12,
        other_power=14.0,
    )


def pitcairn_calibration() -> PlatformCalibration:
    """Calibration for the Pitcairn-class portability platform.

    Per-CU constants carry over (same GCN compute unit); memory-subsystem
    power scales with the channel count (4 of the HD7970's 6 controllers)
    and the uncore shrinks with the smaller L2 and fabric.
    """
    base = default_calibration()
    channel_scale = 4.0 / 6.0
    return PlatformCalibration(
        arch=PITCAIRN,
        gddr5_timing=base.gddr5_timing,
        crossing_saturating_f_cu=base.crossing_saturating_f_cu,
        cu_capacitance=base.cu_capacitance,
        cu_leakage_nominal=base.cu_leakage_nominal,
        uncore_capacitance=base.uncore_capacitance * 0.75,
        uncore_leakage_nominal=base.uncore_leakage_nominal * 0.75,
        v_nominal=base.v_nominal,
        mem_background_idle=base.mem_background_idle * channel_scale,
        mem_background_slope=base.mem_background_slope * channel_scale,
        mem_pll_phy_idle=base.mem_pll_phy_idle * channel_scale,
        mem_pll_phy_slope=base.mem_pll_phy_slope * channel_scale,
        mem_activate_energy=base.mem_activate_energy,
        mem_rw_energy_per_byte=base.mem_rw_energy_per_byte,
        mem_rw_low_freq_penalty=base.mem_rw_low_freq_penalty,
        mem_termination_energy_per_byte=base.mem_termination_energy_per_byte,
        other_power=base.other_power * 0.8,
    )
