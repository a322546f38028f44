"""Section 7.2 textual results: predictor errors and compute-DVFS-only.

* predictor errors — "The prediction errors between measured and estimated
  bandwidth and compute sensitivities are 3.03% and 5.71% respectively".
* compute-DVFS-only — "compute frequency and voltage scaling alone achieve
  only an average ED² gain of 3% with a 1% performance loss": scaling the
  legacy single knob leaves most of Harmonia's benefit on the table,
  motivating coordinated CU-count + memory-bandwidth scaling (Section 7.3,
  insight 2).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext


class VariantsResult(NamedTuple):
    """DVFS-only vs Harmonia geomeans plus predictor errors."""

    dvfs_only_ed2: float
    dvfs_only_performance: float
    harmonia_ed2: float
    harmonia_performance: float
    bandwidth_prediction_error: float
    compute_prediction_error: float

    @property
    def dvfs_only_share(self) -> float:
        """Fraction of Harmonia's ED² gain the legacy knob captures."""
        if self.harmonia_ed2 <= 0:
            return 0.0
        return self.dvfs_only_ed2 / self.harmonia_ed2


def run(context: ExperimentContext) -> VariantsResult:
    """Compute the Section 7.2 comparison quantities."""
    summary = context.evaluation
    bw_err, comp_err = context.training.prediction_errors()
    return VariantsResult(
        dvfs_only_ed2=summary.geomean_ed2("dvfs-only"),
        dvfs_only_performance=summary.geomean_performance("dvfs-only"),
        harmonia_ed2=summary.geomean_ed2("harmonia"),
        harmonia_performance=summary.geomean_performance("harmonia"),
        bandwidth_prediction_error=bw_err,
        compute_prediction_error=comp_err,
    )


def format_report(result: VariantsResult) -> str:
    """Render the Section 7.2 numbers next to the paper's."""
    return format_table(
        headers=("quantity", "this substrate", "paper"),
        rows=[
            ("DVFS-only ED2 gain", f"{result.dvfs_only_ed2:+.1%}", "+3%"),
            ("DVFS-only performance", f"{result.dvfs_only_performance:+.1%}",
             "-1%"),
            ("Harmonia ED2 gain", f"{result.harmonia_ed2:+.1%}", "+12%"),
            ("Harmonia performance", f"{result.harmonia_performance:+.1%}",
             "-0.36%"),
            ("DVFS-only / Harmonia", f"{result.dvfs_only_share:.0%}", "~25%"),
            ("bandwidth pred. error",
             f"{result.bandwidth_prediction_error:.2%}", "3.03%"),
            ("compute pred. error",
             f"{result.compute_prediction_error:.2%}", "5.71%"),
        ],
        title="Section 7.2: legacy-knob comparison and predictor accuracy",
    )
