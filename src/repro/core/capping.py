"""A reactive power-capping policy (the related-work comparator).

Section 8 surveys power-capping approaches (RAPL-style budget enforcement
[8, 14, 18]) and positions Harmonia against them: "unlike many of these
efforts, we seek to concurrently minimize performance impact rather than
trade performance for improvements in energy efficiency."

:class:`PowerCapPolicy` implements the contrasting approach: a
workload-blind budget enforcer that watches average card power and
throttles when over budget. Like production cappers it sheds the
highest-leverage knob first (compute frequency), then parallelism, then
the memory bus, and steps back up when comfortably under budget. It knows
nothing about the kernel's compute/memory balance — which is exactly the
difference the equal-power comparison (`ext_power_capping`) quantifies.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import HistoryMixin, LaunchContext
from repro.errors import PolicyError
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.perf.result import KernelRunResult

#: Throttle order: frequency first (the classic capping knob), then CUs,
#: then the memory bus; recovery proceeds in reverse.
_THROTTLE_ORDER = ("f_cu", "n_cu", "f_mem")


class PowerCapPolicy(HistoryMixin):
    """Reactive, workload-blind power-budget enforcement.

    Args:
        space: the platform configuration grid.
        budget_watts: the card power budget to enforce.
        alpha: EWMA weight of the power estimate.
        hysteresis: fractional band around the budget: throttle above
            ``budget``, recover below ``budget x (1 - hysteresis)``.
    """

    def __init__(self, space: ConfigSpace, budget_watts: float,
                 alpha: float = 0.5, hysteresis: float = 0.05):
        super().__init__()
        if budget_watts <= 0:
            raise PolicyError("budget_watts must be positive")
        if not 0 < alpha <= 1:
            raise PolicyError("alpha must be in (0, 1]")
        if not 0 <= hysteresis < 1:
            raise PolicyError("hysteresis must be in [0, 1)")
        self._space = space
        self._budget = budget_watts
        self._alpha = alpha
        self._hysteresis = hysteresis
        self._power_estimate: Optional[float] = None
        self._config = space.max_config()

    @property
    def name(self) -> str:
        """Policy name."""
        return "power-cap"

    @property
    def power_estimate(self) -> Optional[float]:
        """Current EWMA card-power estimate (W)."""
        return self._power_estimate

    def reset(self) -> None:
        """Forget history and return to the maximum configuration."""
        self.clear_history()
        self._power_estimate = None
        self._config = self._space.max_config()

    # --- stepping helpers ------------------------------------------------------

    def _step(self, config: HardwareConfig, tunable: str,
              direction: int) -> HardwareConfig:
        if tunable == "f_cu":
            return self._space.step_f_cu(config, direction)
        if tunable == "n_cu":
            return self._space.step_cu(config, direction)
        return self._space.step_f_mem(config, direction)

    def _throttle(self, config: HardwareConfig) -> HardwareConfig:
        """One step down the throttle order (first knob with headroom)."""
        for tunable in _THROTTLE_ORDER:
            stepped = self._step(config, tunable, -1)
            if stepped != config:
                return stepped
        return config

    def _recover(self, config: HardwareConfig) -> HardwareConfig:
        """One step back up, unwinding the throttle order in reverse."""
        for tunable in reversed(_THROTTLE_ORDER):
            stepped = self._step(config, tunable, +1)
            if stepped != config:
                return stepped
        return config

    # --- policy interface ------------------------------------------------------

    def config_for(self, context: LaunchContext) -> HardwareConfig:
        """The current capped configuration (workload-independent)."""
        return self._config

    def observe(self, context: LaunchContext,
                result: KernelRunResult) -> None:
        """Fold in the launch's power and adjust the cap state."""
        self.history_for(context.kernel_name).record(result)
        power = result.power.card
        if self._power_estimate is None:
            self._power_estimate = power
        else:
            self._power_estimate = (
                (1 - self._alpha) * self._power_estimate
                + self._alpha * power
            )
        if self._power_estimate > self._budget:
            self._config = self._throttle(self._config)
        elif self._power_estimate < self._budget * (1 - self._hysteresis):
            self._config = self._recover(self._config)
