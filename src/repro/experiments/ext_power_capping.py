"""Extension: Harmonia vs reactive power capping at equal power.

Section 8 positions Harmonia against budget-enforcement approaches:
"unlike many of these efforts, we seek to concurrently minimize
performance impact rather than trade performance for improvements in
energy efficiency."

The comparison that makes this concrete: for each application, run
Harmonia, read off the average card power it settled at, then hand a
workload-blind reactive capper (:class:`~repro.core.capping.
PowerCapPolicy`) **that exact power budget**. Both schemes now spend the
same power; the difference is *where* they spend it. The capper throttles
the classic knob (compute frequency) without knowing whether the kernel
needs compute or bandwidth; Harmonia places the reduction on the
resource the kernel does not need.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.core.capping import PowerCapPolicy
from repro.experiments.context import ExperimentContext
from repro.runtime.session import BatchSessionRunner

#: A representative mixed subset (compute-bound, memory-bound, balanced).
CAPPING_APPS: Tuple[str, ...] = (
    "MaxFlops", "DeviceMemory", "CoMD", "miniFE", "LUD", "SPMV",
)


class CappingRow(NamedTuple):
    """One application at matched power budgets."""

    application: str
    budget: float
    harmonia_perf: float
    capper_perf: float
    harmonia_power: float
    capper_power: float

    @property
    def harmonia_advantage(self) -> float:
        """Performance points Harmonia keeps over the blind capper."""
        return self.harmonia_perf - self.capper_perf


class PowerCappingResult(NamedTuple):
    """The equal-power comparison across the subset."""

    rows: Tuple[CappingRow, ...]

    def mean_advantage(self) -> float:
        """Average performance advantage of coordination over capping."""
        return sum(r.harmonia_advantage for r in self.rows) / len(self.rows)


def run(context: ExperimentContext) -> PowerCappingResult:
    """Run the matched-budget comparison; baseline and Harmonia are the
    shared evaluation's runs, so only the capper runs here."""
    platform = context.platform
    runs = context.evaluation.runs
    runner = BatchSessionRunner(platform)
    rows = []
    for app_name in CAPPING_APPS:
        baseline = runs[app_name]["baseline"]
        harmonia = runs[app_name]["harmonia"]
        budget = harmonia.metrics.avg_power
        capper = PowerCapPolicy(platform.config_space, budget_watts=budget)
        capped = runner.run(context.application(app_name), capper)
        rows.append(CappingRow(
            application=app_name,
            budget=budget,
            harmonia_perf=baseline.metrics.time / harmonia.metrics.time - 1,
            capper_perf=baseline.metrics.time / capped.metrics.time - 1,
            harmonia_power=harmonia.metrics.avg_power,
            capper_power=capped.metrics.avg_power,
        ))
    return PowerCappingResult(rows=tuple(rows))


def format_report(result: PowerCappingResult) -> str:
    """Render the matched-budget comparison."""
    rows = [
        (r.application, f"{r.budget:.0f}",
         f"{r.harmonia_perf:+.1%}", f"{r.capper_perf:+.1%}",
         f"{r.capper_power:.0f}", f"{r.harmonia_advantage:+.1%}")
        for r in result.rows
    ]
    return format_table(
        headers=("app", "budget W", "harmonia perf", "capper perf",
                 "capper W", "advantage"),
        rows=rows,
        title=("Extension [Section 8 contrast]: at equal power budgets, "
               "coordinated balance beats blind capping by "
               f"{result.mean_advantage():+.1%} performance on average"),
    )
