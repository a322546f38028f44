"""Figure 1: power breakdown in a discrete GPU card.

The paper opens with the power distribution of an HD7970 executing the
memory-intensive XSBench: the memory subsystem (GDDR5 devices + PHYs) is a
major consumer of card power alongside the GPU chip, motivating coordinated
compute/memory management. We reproduce the breakdown by running XSBench's
main kernel at the baseline (boost) configuration and reading the card
power decomposition of Equation 4.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.workloads.registry import get_kernel


class PowerBreakdownResult(NamedTuple):
    """Card power decomposition for a memory-intensive workload (W)."""

    workload: str
    gpu_power: float
    memory_power: float
    other_power: float

    @property
    def card_power(self) -> float:
        """Total card power (W)."""
        return self.gpu_power + self.memory_power + self.other_power

    @property
    def memory_fraction(self) -> float:
        """Memory share of total card power."""
        return self.memory_power / self.card_power

    @property
    def gpu_fraction(self) -> float:
        """GPU chip share of total card power."""
        return self.gpu_power / self.card_power


def run(context: ExperimentContext) -> PowerBreakdownResult:
    """Reproduce the Figure 1 breakdown (XSBench at the baseline config)."""
    platform = context.platform
    kernel = get_kernel("XSBench.CalculateXS").base
    # Power samples are noise-free, so the cached sweep surface serves
    # this point identically to a scalar run.
    result = platform.grid_sweep(kernel).result_at_config(
        platform.baseline_config()
    )
    return PowerBreakdownResult(
        workload=kernel.name,
        gpu_power=result.power.gpu,
        memory_power=result.power.memory,
        other_power=result.power.other,
    )


def format_report(result: PowerBreakdownResult) -> str:
    """Render the breakdown as the paper's pie-chart shares."""
    rows = [
        ("GPU chip (GPUPwr)", f"{result.gpu_power:.1f}",
         f"{result.gpu_fraction:.0%}"),
        ("Memory + PHY (MemPwr)", f"{result.memory_power:.1f}",
         f"{result.memory_fraction:.0%}"),
        ("Rest of card (OtherPwr)", f"{result.other_power:.1f}",
         f"{result.other_power / result.card_power:.0%}"),
        ("Total (GPUCardPwr)", f"{result.card_power:.1f}", "100%"),
    ]
    return format_table(
        headers=("component", "watts", "share"),
        rows=rows,
        title=f"Figure 1: card power breakdown, {result.workload} @ baseline "
              "(paper: memory is a major consumer for memory-intensive work)",
    )
