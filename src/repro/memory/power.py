"""GDDR5 memory-subsystem power model (Section 2.4).

The paper decomposes DRAM power into **background**, **activation /
pre-charge**, **read-write**, and **termination** power, plus the PHY and
PLL on the GPU die that belong to the memory interface. Changing the memory
bus frequency affects each component differently:

* lowering bus frequency lowers background, PLL, controller and PHY power
  (they clock with the bus);
* it can *increase* read/write and termination **energy per bit** because of
  longer intervals between array accesses;
* bus **voltage is fixed** — the paper's platform (and ours) cannot scale
  memory voltage, so all scaling here is frequency-linear, which is why the
  paper notes the savings would be greater with voltage scaling.

The component constants live in :class:`MemoryPowerModel` and are calibrated
in :mod:`repro.platform.calibration` so that the Figure 1 breakdown and the
Figure 5 ~10% board-power swing are reproduced.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import CalibrationError


class MemoryPowerBreakdown(NamedTuple):
    """Per-component memory power (W) at one operating point."""

    background: float
    pll_phy: float
    activate_precharge: float
    read_write: float
    termination: float

    @property
    def total(self) -> float:
        """Total memory-subsystem power (W)."""
        return (
            self.background
            + self.pll_phy
            + self.activate_precharge
            + self.read_write
            + self.termination
        )


class _MemoryPowerFields(NamedTuple):
    """The fields of :class:`MemoryPowerModel`, in declaration order."""

    f_mem_max: float
    background_idle: float
    background_slope: float
    pll_phy_idle: float
    pll_phy_slope: float
    activate_energy: float
    read_write_energy_per_byte: float
    read_write_low_freq_penalty: float
    termination_energy_per_byte: float
    burst_bytes: int
    #: bus voltage at the maximum frequency (V); used only when voltage
    #: scaling is enabled
    bus_voltage_max: float = 1.6
    #: bus voltage at the minimum usable frequency (V)
    bus_voltage_min: float = 1.35
    #: enable memory bus voltage scaling — the paper's platform (and the
    #: default model) cannot do this; Section 7.2 flags it as the obvious
    #: extension ("far more power savings ... if voltage scaling is
    #: applied while lowering bus speeds")
    voltage_scaling: bool = False


class MemoryPowerModel(_MemoryPowerFields):
    """Parametric GDDR5 + PHY power model.

    All ``*_idle``/``*_slope`` pairs express a component as
    ``idle + slope * (f_mem / f_mem_max)`` — linear in bus frequency at
    fixed voltage. Traffic-driven components are energy-per-event times the
    achieved rate.

    Attributes:
        f_mem_max: the platform's maximum bus frequency (Hz).
        background_idle: frequency-independent DRAM background power (W).
        background_slope: frequency-dependent background power at max (W).
        pll_phy_idle: frequency-independent PHY/PLL power (W).
        pll_phy_slope: frequency-dependent PHY/PLL power at max (W).
        activate_energy: energy per DRAM burst access (J) for
            activation/pre-charge, amortized over the kernel's row locality.
        read_write_energy_per_byte: array + IO read/write energy (J/B) at
            the maximum bus frequency.
        read_write_low_freq_penalty: fractional increase of read/write
            energy per byte when the bus runs at its minimum frequency
            (longer intervals between array accesses, Section 2.4).
        termination_energy_per_byte: on-die termination energy (J/B).
        burst_bytes: bytes per DRAM access (for the activate-rate term).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "MemoryPowerModel":
        model = super().__new__(cls, *args, **kwargs)
        if model.bus_voltage_max <= 0 or model.bus_voltage_min <= 0:
            raise CalibrationError("bus voltages must be positive")
        if model.bus_voltage_min > model.bus_voltage_max:
            raise CalibrationError("bus_voltage_min must not exceed max")
        if model.f_mem_max <= 0:
            raise CalibrationError("f_mem_max must be positive")
        for name in (
            "background_idle",
            "background_slope",
            "pll_phy_idle",
            "pll_phy_slope",
            "activate_energy",
            "read_write_energy_per_byte",
            "termination_energy_per_byte",
        ):
            if getattr(model, name) < 0:
                raise CalibrationError(f"{name} must be non-negative")
        if not 0 <= model.read_write_low_freq_penalty < 1:
            raise CalibrationError("read_write_low_freq_penalty must be in [0, 1)")
        if model.burst_bytes <= 0:
            raise CalibrationError("burst_bytes must be positive")
        return model

    def breakdown(self, f_mem: float, achieved_bandwidth: float) -> MemoryPowerBreakdown:
        """Memory power breakdown at bus frequency ``f_mem`` (Hz) while the
        subsystem moves ``achieved_bandwidth`` bytes/second.

        Raises:
            CalibrationError: if the operating point is non-physical.
        """
        if f_mem <= 0 or f_mem > self.f_mem_max * 1.001:
            raise CalibrationError(
                f"bus frequency {f_mem:.3e} Hz outside (0, {self.f_mem_max:.3e}]"
            )
        if achieved_bandwidth < 0:
            raise CalibrationError("achieved bandwidth must be non-negative")

        ratio = f_mem / self.f_mem_max
        v_factor = self._voltage_factor(ratio)
        background = (self.background_idle
                      + self.background_slope * ratio * v_factor)
        pll_phy = self.pll_phy_idle + self.pll_phy_slope * ratio * v_factor

        access_rate = achieved_bandwidth / self.burst_bytes
        activate = self.activate_energy * access_rate * v_factor

        rw_energy = self.read_write_energy_per_byte * (
            1.0 + self.read_write_low_freq_penalty * (1.0 - ratio)
        )
        read_write = rw_energy * achieved_bandwidth * v_factor
        termination = (self.termination_energy_per_byte
                       * achieved_bandwidth * v_factor)

        return MemoryPowerBreakdown(
            background=background,
            pll_phy=pll_phy,
            activate_precharge=activate,
            read_write=read_write,
            termination=termination,
        )

    def bus_voltage(self, f_mem: float) -> float:
        """Bus voltage (V) at frequency ``f_mem``.

        Without voltage scaling the bus runs at ``bus_voltage_max``
        regardless of frequency (the paper's platform constraint). With
        scaling, voltage tracks frequency linearly between the endpoints.
        """
        if not self.voltage_scaling:
            return self.bus_voltage_max
        ratio = max(0.0, min(1.0, f_mem / self.f_mem_max))
        low_ratio = 0.345  # 475/1375: the lowest supported bus frequency
        span = max(1e-9, 1.0 - low_ratio)
        frac = max(0.0, (ratio - low_ratio) / span)
        return self.bus_voltage_min + frac * (
            self.bus_voltage_max - self.bus_voltage_min
        )

    def _voltage_factor(self, ratio: float) -> float:
        """V² derating of the voltage-dependent power components."""
        if not self.voltage_scaling:
            return 1.0
        voltage = self.bus_voltage(ratio * self.f_mem_max)
        return (voltage / self.bus_voltage_max) ** 2

    def total_power(self, f_mem: float, achieved_bandwidth: float) -> float:
        """Total memory-subsystem power (W); see :meth:`breakdown`."""
        return self.breakdown(f_mem, achieved_bandwidth).total

    # --- vectorized path ------------------------------------------------------

    def _voltage_factor_many(self, ratio: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_voltage_factor`, mirroring the scalar math."""
        if not self.voltage_scaling:
            return np.ones_like(ratio)
        f_mem = ratio * self.f_mem_max
        clamped = np.maximum(0.0, np.minimum(1.0, f_mem / self.f_mem_max))
        low_ratio = 0.345  # 475/1375: the lowest supported bus frequency
        span = max(1e-9, 1.0 - low_ratio)
        frac = np.maximum(0.0, (clamped - low_ratio) / span)
        voltage = self.bus_voltage_min + frac * (
            self.bus_voltage_max - self.bus_voltage_min
        )
        return (voltage / self.bus_voltage_max) ** 2

    def total_power_many(self, f_mem: np.ndarray,
                         achieved_bandwidth: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`total_power` over arrays of operating points.

        Every arithmetic step mirrors :meth:`breakdown` operation for
        operation so a batched grid sweep agrees with per-launch sampling.

        Raises:
            CalibrationError: if any operating point is non-physical.
        """
        f_mem = np.asarray(f_mem, dtype=np.float64)
        achieved_bandwidth = np.asarray(achieved_bandwidth, dtype=np.float64)
        if np.any(f_mem <= 0) or np.any(f_mem > self.f_mem_max * 1.001):
            raise CalibrationError(
                f"bus frequency outside (0, {self.f_mem_max:.3e}]"
            )
        if np.any(achieved_bandwidth < 0):
            raise CalibrationError("achieved bandwidth must be non-negative")

        ratio = f_mem / self.f_mem_max
        v_factor = self._voltage_factor_many(ratio)
        background = (self.background_idle
                      + self.background_slope * ratio * v_factor)
        pll_phy = self.pll_phy_idle + self.pll_phy_slope * ratio * v_factor

        access_rate = achieved_bandwidth / self.burst_bytes
        activate = self.activate_energy * access_rate * v_factor

        rw_energy = self.read_write_energy_per_byte * (
            1.0 + self.read_write_low_freq_penalty * (1.0 - ratio)
        )
        read_write = rw_energy * achieved_bandwidth * v_factor
        termination = (self.termination_energy_per_byte
                       * achieved_bandwidth * v_factor)
        return background + pll_phy + activate + read_write + termination
