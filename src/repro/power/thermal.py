"""Lumped RC thermal model of the GPU card.

Section 2.3: AMD PowerTune "adjusts power between the DPM0, DPM1 and DPM2
power states ... based on power and thermal headroom availability", and
only boosts "when there is headroom". On the paper's open test bed the
headroom never runs out (fan pinned at maximum), so the baseline sits in
boost permanently — but the paper's motivation (Section 1, insight 6) is
precisely that future tightly-integrated packages will *not* have that
luxury. This module supplies the thermal substrate for those constrained
scenarios:

* :class:`ThermalModel` — a first-order RC model: the die-to-ambient
  temperature rise follows ``dT/dt = (P * R - T) / (R * C)``,
* :class:`ThermalState` — integrates the model across launch segments,
* :class:`ThermalGovernor` — a policy wrapper that enforces the thermal
  cap on any inner policy by stepping the compute frequency down while
  hot, exactly how PowerTune sheds heat.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import CalibrationError, PolicyError
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.perf.result import KernelRunResult


class _ThermalFields(NamedTuple):
    """The fields of :class:`ThermalModel`, in declaration order."""

    resistance: float
    capacitance: float
    ambient: float = 35.0
    t_max: float = 95.0


class ThermalModel(_ThermalFields):
    """First-order thermal RC network from die to ambient.

    Attributes:
        resistance: junction-to-ambient thermal resistance (°C/W).
        capacitance: lumped thermal capacitance (J/°C).
        ambient: ambient temperature (°C).
        t_max: junction temperature limit (°C).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ThermalModel":
        model = super().__new__(cls, *args, **kwargs)
        if model.resistance <= 0:
            raise CalibrationError("thermal resistance must be positive")
        if model.capacitance <= 0:
            raise CalibrationError("thermal capacitance must be positive")
        if model.t_max <= model.ambient:
            raise CalibrationError("t_max must exceed ambient")
        return model

    @property
    def time_constant(self) -> float:
        """The RC time constant (s)."""
        return self.resistance * self.capacitance

    def steady_state(self, power: float) -> float:
        """Equilibrium temperature (°C) at constant ``power`` (W)."""
        if power < 0:
            raise CalibrationError("power must be non-negative")
        return self.ambient + power * self.resistance

    def sustainable_power(self) -> float:
        """The power (W) whose steady state exactly hits ``t_max``."""
        return (self.t_max - self.ambient) / self.resistance

    def advance(self, temperature: float, power: float, dt: float) -> float:
        """Temperature after holding ``power`` for ``dt`` seconds.

        Exact solution of the first-order ODE (no integration error for
        piecewise-constant power).
        """
        if dt < 0:
            raise CalibrationError("dt must be non-negative")
        target = self.steady_state(power)
        decay = math.exp(-dt / self.time_constant)
        return target + (temperature - target) * decay


class ThermalState:
    """Integrates a :class:`ThermalModel` across run segments."""

    def __init__(self, model: ThermalModel,
                 initial_temperature: float = None):
        self._model = model
        self._temperature = (
            model.ambient if initial_temperature is None
            else initial_temperature
        )
        self._time_above_cap = 0.0
        self._total_time = 0.0
        self._peak = self._temperature

    @property
    def temperature(self) -> float:
        """Current junction temperature (°C)."""
        return self._temperature

    @property
    def peak_temperature(self) -> float:
        """Highest temperature seen (°C)."""
        return self._peak

    @property
    def headroom(self) -> float:
        """Degrees of headroom to the cap (negative when over)."""
        return self._model.t_max - self._temperature

    def fraction_above_cap(self) -> float:
        """Fraction of integrated time spent above the thermal cap."""
        if self._total_time <= 0:
            return 0.0
        return self._time_above_cap / self._total_time

    def apply(self, power: float, duration: float) -> float:
        """Integrate one (power, duration) segment; returns the new
        temperature. Over-cap time is charged at segment granularity."""
        self._temperature = self._model.advance(
            self._temperature, power, duration
        )
        self._peak = max(self._peak, self._temperature)
        self._total_time += duration
        if self._temperature > self._model.t_max:
            self._time_above_cap += duration
        return self._temperature


class ThermalGovernor:
    """Thermal enforcement layered over any power policy.

    PowerTune semantics: while the junction is within ``margin`` of the
    cap, the compute frequency of whatever configuration the inner policy
    requested is stepped down one DVFS grid step per shortfall degree
    band; with ample headroom the inner policy's choice passes through
    untouched. Harmonia "operates as a system software policy overlaid on
    top of the baseline power management system" (Section 5.1) — this
    wrapper is that baseline layer made explicit.
    """

    def __init__(self, inner, space: ConfigSpace, model: ThermalModel,
                 margin: float = 5.0):
        if margin < 0:
            raise PolicyError("margin must be non-negative")
        self._inner = inner
        self._space = space
        self._margin = margin
        self._state = ThermalState(model)

    @property
    def name(self) -> str:
        """Policy name: inner name with a thermal tag."""
        return f"{self._inner.name}+thermal"

    @property
    def thermal_state(self) -> ThermalState:
        """The integrated thermal state (exposed for analysis)."""
        return self._state

    def reset(self) -> None:
        """Reset the inner policy's history.

        The junction heat is card state, not policy history, so it
        survives: a governor pre-charged to a heat-soaked operating point
        starts its run from there.
        """
        self._inner.reset()

    def config_for(self, context) -> HardwareConfig:
        """The inner policy's choice, throttled if headroom is short."""
        config = self._inner.config_for(context)
        headroom = self._state.headroom
        if headroom >= self._margin:
            return config
        # One grid step down per margin-band of missing headroom, to a
        # floor of the lowest compute frequency.
        shortfall = self._margin - headroom
        steps = max(1, int(math.ceil(shortfall / self._margin)))
        return self._space.step_f_cu(config, -steps)

    def observe(self, context, result: KernelRunResult) -> None:
        """Integrate the launch's heat and forward the observation."""
        self._state.apply(result.power.card, result.time)
        self._inner.observe(context, result)
