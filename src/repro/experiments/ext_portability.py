"""Extension: portability of the methodology to a second platform.

Section 4.3: "We believe principles of hardware balance and coordinated
management are portable across platforms. Therefore, we expect the
methodology is portable since most platforms provide similar classes of
counters."

This experiment runs the entire pipeline — sensitivity measurement,
training-set construction, regression fitting, binning, and the two-level
controller — unchanged on a second GCN platform (a Pitcairn-class part:
20 CUs, four GDDR5 channels, 154 GB/s peak, a 240-point configuration
grid) and reports the same headline quantities as the HD7970 evaluation.
The *coefficients* retrain per platform (the ablation suite shows why);
the *methodology* is what ports.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.evaluation import EvaluationHarness
from repro.analysis.report import format_table
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.experiments.context import ExperimentContext
from repro.platform.hd7970 import make_pitcairn_platform
from repro.sensitivity.predictor import train_predictors
from repro.workloads.registry import all_applications


class PortabilityResult(NamedTuple):
    """HD7970 vs Pitcairn headline comparison."""

    hd7970_ed2: float
    hd7970_perf: float
    hd7970_power: float
    pitcairn_ed2: float
    pitcairn_perf: float
    pitcairn_power: float
    pitcairn_bw_correlation: float
    pitcairn_compute_correlation: float
    pitcairn_configs: int


def run(context: ExperimentContext) -> PortabilityResult:
    """Rerun the full pipeline on the Pitcairn platform."""
    hd = context.evaluation

    platform = make_pitcairn_platform()
    applications = all_applications()
    training = train_predictors(platform, applications)
    harness = EvaluationHarness(platform, BaselinePolicy(platform.config_space))
    harmonia = HarmoniaPolicy(
        platform.config_space, training.compute, training.bandwidth
    )
    summary = harness.evaluate(applications, [harmonia])

    return PortabilityResult(
        hd7970_ed2=hd.geomean_ed2("harmonia"),
        hd7970_perf=hd.geomean_performance("harmonia"),
        hd7970_power=hd.geomean_power("harmonia"),
        pitcairn_ed2=summary.geomean_ed2("harmonia"),
        pitcairn_perf=summary.geomean_performance("harmonia"),
        pitcairn_power=summary.geomean_power("harmonia"),
        pitcairn_bw_correlation=training.bandwidth_correlation,
        pitcairn_compute_correlation=training.compute_correlation,
        pitcairn_configs=len(platform.config_space),
    )


def format_report(result: PortabilityResult) -> str:
    """Render the cross-platform headline comparison."""
    rows = [
        ("configuration grid", "448", str(result.pitcairn_configs)),
        ("ED2 improvement", f"{result.hd7970_ed2:+.1%}",
         f"{result.pitcairn_ed2:+.1%}"),
        ("performance", f"{result.hd7970_perf:+.2%}",
         f"{result.pitcairn_perf:+.2%}"),
        ("power saving", f"{result.hd7970_power:+.1%}",
         f"{result.pitcairn_power:+.1%}"),
        ("bandwidth model r", "-",
         f"{result.pitcairn_bw_correlation:.2f}"),
        ("compute model r", "-",
         f"{result.pitcairn_compute_correlation:.2f}"),
    ]
    return format_table(
        headers=("quantity", "HD7970 (paper platform)", "Pitcairn-class"),
        rows=rows,
        title=("Extension [Section 4.3 portability]: the unchanged "
               "methodology retrained and rerun on a second platform"),
    )
