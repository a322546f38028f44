"""Figures 4 and 5: board-power variation across the two knob families.

* **Figure 4** — DeviceMemory's card power across all compute
  configurations at the constant maximum memory bandwidth (264 GB/s):
  the paper measures ~70% variation.
* **Figure 5** — MaxFlops's card power across all memory configurations
  at the maximum compute configuration (32 CUs, 1 GHz): ~10% variation
  (memory bus voltage fixed, so only frequency-linear components move).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.analysis.sweep import ConfigSweep
from repro.experiments.context import ExperimentContext
from repro.units import hz_to_mhz
from repro.workloads.registry import get_kernel


class PowerRangeResult(NamedTuple):
    """Card power across one knob family at a fixed other knob."""

    figure: str
    workload: str
    #: (label, card power W, normalized to minimum in the set)
    points: Tuple[Tuple[str, float, float], ...]

    @property
    def variation(self) -> float:
        """(max - min) / max across the set.

        The paper's figures plot *normalized* board power (normalized to
        the maximum-power configuration in the set), so its "varies by
        about 70%" reads off that normalized axis.
        """
        powers = [p for _, p, _ in self.points]
        return (max(powers) - min(powers)) / max(powers)


def run_fig04(context: ExperimentContext) -> PowerRangeResult:
    """DeviceMemory power across compute configs at max memory (Fig 4)."""
    platform = context.platform
    spec = get_kernel("DeviceMemory.DeviceMemory").base
    sweep = ConfigSweep(platform, spec)
    f_mem_max = platform.config_space.memory_frequencies[-1]
    curve = sweep.power_vs_compute(f_mem_max)
    min_power = min(p.card_power for p in curve)
    points = tuple(
        (p.config.describe_compute(), p.card_power, p.card_power / min_power)
        for p in curve
    )
    return PowerRangeResult(figure="Figure 4", workload=spec.name, points=points)


def run_fig05(context: ExperimentContext) -> PowerRangeResult:
    """MaxFlops power across memory configs at max compute (Fig 5)."""
    platform = context.platform
    spec = get_kernel("MaxFlops.MaxFlops").base
    sweep = ConfigSweep(platform, spec)
    space = platform.config_space
    curve = sweep.power_vs_memory(space.cu_counts[-1],
                                  space.compute_frequencies[-1])
    min_power = min(p.card_power for p in curve)
    points = tuple(
        (f"mem@{hz_to_mhz(p.config.f_mem):.0f}MHz", p.card_power,
         p.card_power / min_power)
        for p in curve
    )
    return PowerRangeResult(figure="Figure 5", workload=spec.name, points=points)


def format_report(result: PowerRangeResult, paper_variation: str) -> str:
    """Render one figure's power range with the paper's variation."""
    rows = [(label, f"{watts:.1f}", f"{norm:.2f}")
            for label, watts, norm in result.points]
    rows.append(("variation", f"{result.variation:.0%}",
                 f"paper: ~{paper_variation}"))
    return format_table(
        headers=("configuration", "card W", "normalized"),
        rows=rows,
        title=f"{result.figure}: {result.workload} card power",
    )
