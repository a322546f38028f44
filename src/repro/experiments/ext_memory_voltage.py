"""Extension: memory bus voltage scaling (the Section 7.2 what-if).

The paper twice flags the fixed memory bus voltage as the limiting factor
on memory-side savings: "the differences would actually be greater if we
are able to scale memory bus voltage according to bus frequency"
(Section 3.3) and "we believe that it is feasible to achieve far more
power savings from memory configuration changes if voltage scaling is
applied while lowering bus speeds" (Section 7.2).

This experiment compares the full Harmonia evaluation on two otherwise
identical platforms — bus voltage fixed (the paper's hardware) vs. bus
voltage tracking frequency — and quantifies how much of the left-on-the-
table saving the what-if recovers. The fixed-voltage half is the shared
Figures 10-13 evaluation; only the scaled half runs here.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.evaluation import EvaluationHarness
from repro.analysis.report import format_table
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.experiments.context import ExperimentContext
from repro.platform.hd7970 import make_hd7970_platform
from repro.sensitivity.predictor import train_predictors


class VoltageScalingRow(NamedTuple):
    """One application under fixed vs. scaled memory bus voltage."""

    application: str
    ed2_fixed: float
    ed2_scaled: float
    power_fixed: float
    power_scaled: float


class VoltageScalingResult(NamedTuple):
    """The fixed-vs-scaled comparison across all applications."""

    rows: Tuple[VoltageScalingRow, ...]
    geomean_ed2_fixed: float
    geomean_ed2_scaled: float
    geomean_power_fixed: float
    geomean_power_scaled: float

    @property
    def ed2_gain_from_scaling(self) -> float:
        """Extra average ED² improvement the what-if unlocks (points)."""
        return self.geomean_ed2_scaled - self.geomean_ed2_fixed

    @property
    def power_gain_from_scaling(self) -> float:
        """Extra average power saving the what-if unlocks (points)."""
        return self.geomean_power_scaled - self.geomean_power_fixed


def run(context: ExperimentContext) -> VoltageScalingResult:
    """Compare the Harmonia evaluation with and without bus voltage
    scaling.

    The fixed-voltage half is the shared ``context.evaluation``; the
    scaled half trains and runs on its own platform, because the
    comparison is between two calibrations.
    """
    fixed = context.evaluation
    platform = make_hd7970_platform(memory_voltage_scaling=True)
    training = train_predictors(platform, context.applications)
    harmonia = HarmoniaPolicy(
        platform.config_space, training.compute, training.bandwidth
    )
    scaled = EvaluationHarness(
        platform, BaselinePolicy(platform.config_space)
    ).evaluate(context.applications, [harmonia])

    rows = []
    for comparison in fixed.for_policy("harmonia"):
        app = comparison.application
        scaled_cmp = scaled.comparison(app, "harmonia")
        rows.append(VoltageScalingRow(
            application=app,
            ed2_fixed=comparison.ed2_improvement,
            ed2_scaled=scaled_cmp.ed2_improvement,
            power_fixed=comparison.power_saving,
            power_scaled=scaled_cmp.power_saving,
        ))
    return VoltageScalingResult(
        rows=tuple(rows),
        geomean_ed2_fixed=fixed.geomean_ed2("harmonia"),
        geomean_ed2_scaled=scaled.geomean_ed2("harmonia"),
        geomean_power_fixed=fixed.geomean_power("harmonia"),
        geomean_power_scaled=scaled.geomean_power("harmonia"),
    )


def format_report(result: VoltageScalingResult) -> str:
    """Render the fixed-vs-scaled comparison."""
    table_rows = [
        (r.application, f"{r.ed2_fixed:+.1%}", f"{r.ed2_scaled:+.1%}",
         f"{r.power_fixed:+.1%}", f"{r.power_scaled:+.1%}")
        for r in result.rows
    ]
    table_rows.append((
        "geomean",
        f"{result.geomean_ed2_fixed:+.1%}",
        f"{result.geomean_ed2_scaled:+.1%}",
        f"{result.geomean_power_fixed:+.1%}",
        f"{result.geomean_power_scaled:+.1%}",
    ))
    return format_table(
        headers=("application", "ED2 (fixed V)", "ED2 (scaled V)",
                 "power (fixed V)", "power (scaled V)"),
        rows=table_rows,
        title=("Extension [Section 7.2 what-if]: memory bus voltage "
               "scaling unlocks additional savings "
               f"(+{result.ed2_gain_from_scaling:.1%} ED2, "
               f"+{result.power_gain_from_scaling:.1%} power on average)"),
    )
