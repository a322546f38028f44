"""Exhaustive design-space exploration (Section 3, Figures 3-6).

Sweeps a kernel across all ~450 hardware configurations and exposes the
views the paper plots: normalized performance vs. platform ops/byte per
memory configuration (Figure 3), power vs. compute configuration at fixed
memory (Figure 4), power vs. memory configuration at fixed compute
(Figure 5), and metric-optimal configurations (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec
from repro.perf.result import KernelRunResult
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import ed, ed2


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's outcome in a sweep."""

    config: HardwareConfig
    result: KernelRunResult
    #: platform ops/byte of the configuration (Figure 3 x-axis)
    platform_ops_per_byte: float

    @property
    def time(self) -> float:
        """Execution time (s)."""
        return self.result.time

    @property
    def performance(self) -> float:
        """1 / execution time."""
        return self.result.performance

    @property
    def energy(self) -> float:
        """Card energy (J)."""
        return self.result.energy

    @property
    def card_power(self) -> float:
        """Average card power (W)."""
        return self.result.power.card

    @property
    def ed(self) -> float:
        """Energy-delay (J*s)."""
        return ed(self.energy, self.time)

    @property
    def ed2(self) -> float:
        """Energy-delay-squared (J*s^2)."""
        return ed2(self.energy, self.time)


class ConfigSweep:
    """A kernel's full design-space sweep.

    The grid is always evaluated through the batched sweep engine
    (:meth:`~repro.platform.hd7970.HardwarePlatform.grid_sweep`) and the
    deterministic surface is shared across experiments via the
    process-wide sweep cache. With measurement noise enabled, the
    launch-keyed noise is applied after the cache lookup, so every point
    carries exactly the draw a per-launch call would see — noisy sweeps
    run at batch speed without freezing a noise realization.
    """

    def __init__(self, platform: HardwarePlatform, spec: KernelSpec):
        self._platform = platform
        self._points: List[SweepPoint] = []
        space = platform.config_space
        results = platform.grid_sweep(spec).to_results()
        for config, result in zip(space, results):
            self._points.append(SweepPoint(
                config=config,
                result=result,
                platform_ops_per_byte=space.platform_ops_per_byte(config),
            ))

    @property
    def points(self) -> Tuple[SweepPoint, ...]:
        """All sweep points (grid order)."""
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    # --- the paper's views ---------------------------------------------------------

    def reference_point(self) -> SweepPoint:
        """The minimum configuration the paper normalizes to."""
        reference = self._platform.config_space.min_config()
        for point in self._points:
            if point.config == reference:
                return point
        raise AnalysisError("sweep does not contain the minimum configuration")

    def curve_for_memory_config(self, f_mem: float) -> List[SweepPoint]:
        """Figure 3: one curve — all compute configs at a fixed memory
        configuration, ordered by platform ops/byte."""
        curve = [p for p in self._points if p.config.f_mem == f_mem]
        if not curve:
            raise AnalysisError(f"no sweep points at f_mem={f_mem:.3e}")
        return sorted(curve, key=lambda p: p.platform_ops_per_byte)

    def power_vs_compute(self, f_mem: float) -> List[SweepPoint]:
        """Figure 4: card power across compute configs at fixed memory."""
        return self.curve_for_memory_config(f_mem)

    def power_vs_memory(self, n_cu: int, f_cu: float) -> List[SweepPoint]:
        """Figure 5: card power across memory configs at fixed compute."""
        curve = [
            p for p in self._points
            if p.config.n_cu == n_cu and p.config.f_cu == f_cu
        ]
        if not curve:
            raise AnalysisError("no sweep points at that compute config")
        return sorted(curve, key=lambda p: p.config.f_mem)

    def best_by(self, metric: Callable[[SweepPoint], float]) -> SweepPoint:
        """The sweep point minimizing ``metric`` (Figure 6's optima)."""
        if not self._points:
            raise AnalysisError("empty sweep")
        return min(self._points, key=metric)

    def optimum_energy(self) -> SweepPoint:
        """Energy-optimal configuration."""
        return self.best_by(lambda p: p.energy)

    def optimum_ed2(self) -> SweepPoint:
        """ED²-optimal configuration."""
        return self.best_by(lambda p: p.ed2)

    def optimum_performance(self) -> SweepPoint:
        """Performance-optimal (minimum time) configuration."""
        return self.best_by(lambda p: p.time)
