"""GPU chip power model.

``GPUPwr`` in the paper's terminology: the GPU compute units plus the
integrated memory controller, but not the DDR PHYs (Section 6). Modelled
as:

* **per-CU dynamic power** — classic ``C V^2 f`` scaled by an activity
  factor derived from how busy the vector pipelines are; inactive CUs are
  power-gated and contribute nothing (Section 6: "All inactive CUs are
  power gated"),
* **per-CU leakage** — a quadratic function of voltage for active CUs
  (power-gated CUs leak ~0),
* **uncore** — command processor, L2, fabric and the integrated memory
  controller; dynamic part on the compute clock/voltage plus leakage.

Voltage tracks frequency through the Table 1 DVFS curve (Section 6: "When
varying compute frequency, voltage is also scaled as noted in Table 1").
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import CalibrationError
from repro.gpu.dvfs import GpuDvfsTable


class _GpuPowerFields(NamedTuple):
    """The fields of :class:`GpuPowerModel`, in declaration order."""

    dvfs: GpuDvfsTable
    cu_capacitance: float
    cu_leakage_nominal: float
    uncore_capacitance: float
    uncore_leakage_nominal: float
    v_nominal: float
    min_activity: float = 0.08


class GpuPowerModel(_GpuPowerFields):
    """Parametric GPU chip power model.

    Attributes:
        dvfs: the voltage/frequency curve.
        cu_capacitance: effective switched capacitance per CU (F).
        cu_leakage_nominal: leakage per active CU (W) at ``v_nominal``.
        uncore_capacitance: effective switched capacitance of the uncore (F).
        uncore_leakage_nominal: uncore leakage (W) at ``v_nominal``.
        v_nominal: voltage at which the leakage constants are specified (V).
        min_activity: activity floor for an active but idle CU (clock tree
            and scheduler switching never go to zero).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GpuPowerModel":
        model = super().__new__(cls, *args, **kwargs)
        for name in ("cu_capacitance", "cu_leakage_nominal",
                     "uncore_capacitance", "uncore_leakage_nominal"):
            if getattr(model, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if model.v_nominal <= 0:
            raise CalibrationError("v_nominal must be positive")
        if not 0 <= model.min_activity <= 1:
            raise CalibrationError("min_activity must be in [0, 1]")
        return model

    def _leakage(self, nominal_watts: float, voltage: float) -> float:
        """Leakage scales roughly quadratically with supply voltage."""
        return nominal_watts * (voltage / self.v_nominal) ** 2

    def activity_factor(self, valu_busy: float, valu_utilization: float,
                        mem_unit_busy: float) -> float:
        """Switching-activity factor in [min_activity, 1].

        Dominated by how often the vector ALUs issue (``VALUBusy``) and how
        many lanes are live (``VALUUtilization``); memory-unit activity
        contributes a smaller share (address generation, L1/LDS traffic).
        Counter inputs are on their 0-100 scale.
        """
        for name, value in (("valu_busy", valu_busy),
                            ("valu_utilization", valu_utilization),
                            ("mem_unit_busy", mem_unit_busy)):
            if not 0 <= value <= 100 + 1e-9:
                raise CalibrationError(f"{name}={value} outside [0, 100]")
        alu_share = (valu_busy / 100.0) * (0.4 + 0.6 * valu_utilization / 100.0)
        mem_share = 0.25 * (mem_unit_busy / 100.0)
        return min(1.0, max(self.min_activity, alu_share + mem_share))

    def chip_power(self, n_cu: int, f_cu: float, activity: float) -> float:
        """GPU chip power (W) at the given compute configuration.

        Args:
            n_cu: active (non-gated) compute units.
            f_cu: compute frequency (Hz); voltage follows the DVFS curve.
            activity: switching-activity factor in [0, 1].
        """
        if n_cu <= 0:
            raise CalibrationError("n_cu must be positive")
        if f_cu <= 0:
            raise CalibrationError("f_cu must be positive")
        if not 0 <= activity <= 1:
            raise CalibrationError("activity must be in [0, 1]")
        voltage = self.dvfs.voltage_at(f_cu)
        cu_dynamic = n_cu * self.cu_capacitance * f_cu * voltage ** 2 * activity
        cu_leak = n_cu * self._leakage(self.cu_leakage_nominal, voltage)
        uncore_dynamic = self.uncore_capacitance * f_cu * voltage ** 2 * max(
            activity, 0.3
        )
        uncore_leak = self._leakage(self.uncore_leakage_nominal, voltage)
        return cu_dynamic + cu_leak + uncore_dynamic + uncore_leak

    # --- vectorized path ------------------------------------------------------

    def activity_factor_many(self, valu_busy: np.ndarray,
                             valu_utilization: float,
                             mem_unit_busy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activity_factor` over counter arrays.

        ``valu_utilization`` is configuration-invariant (it reflects branch
        divergence, not the operating point) and stays a scalar.
        """
        if not 0 <= valu_utilization <= 100 + 1e-9:
            raise CalibrationError(
                f"valu_utilization={valu_utilization} outside [0, 100]"
            )
        for name, values in (("valu_busy", valu_busy),
                             ("mem_unit_busy", mem_unit_busy)):
            if np.any(values < 0) or np.any(values > 100 + 1e-9):
                raise CalibrationError(f"{name} outside [0, 100]")
        alu_share = (valu_busy / 100.0) * (0.4 + 0.6 * valu_utilization / 100.0)
        mem_share = 0.25 * (mem_unit_busy / 100.0)
        return np.minimum(1.0, np.maximum(self.min_activity,
                                          alu_share + mem_share))

    def chip_power_many(self, n_cu: np.ndarray, f_cu: np.ndarray,
                        activity: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`chip_power` over configuration arrays.

        The arithmetic mirrors the scalar path operation for operation so
        batched sweeps agree with per-launch sampling.
        """
        if np.any(n_cu <= 0):
            raise CalibrationError("n_cu must be positive")
        if np.any(f_cu <= 0):
            raise CalibrationError("f_cu must be positive")
        if np.any(activity < 0) or np.any(activity > 1):
            raise CalibrationError("activity must be in [0, 1]")
        voltage = self.dvfs.voltage_at_many(f_cu)
        cu_dynamic = n_cu * self.cu_capacitance * f_cu * voltage ** 2 * activity
        cu_leak = n_cu * (self.cu_leakage_nominal
                          * (voltage / self.v_nominal) ** 2)
        uncore_dynamic = (self.uncore_capacitance * f_cu * voltage ** 2
                          * np.maximum(activity, 0.3))
        uncore_leak = (self.uncore_leakage_nominal
                       * (voltage / self.v_nominal) ** 2)
        return cu_dynamic + cu_leak + uncore_dynamic + uncore_leak
