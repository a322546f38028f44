"""Tables 2 and 3: the counter vocabulary and the sensitivity models.

Table 2 defines the counters and derived metrics (icActivity per
Equations 1-2, C-to-M Intensity per Equation 3). Table 3 gives the linear
regression coefficients; the paper reports fit correlations of 0.91
(compute throughput) and 0.96 (memory bandwidth), and Section 7.2 reports
online prediction errors of 3.03% (bandwidth) and 5.71% (compute).

We rerun the full Section 4 pipeline against this substrate and print the
refit coefficients next to the paper's. Absolute weights differ (they
encode the silicon's counter scales); the fit quality and the error
magnitudes are the reproducible quantities.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.perf.counters import PerfCounters
from repro.sensitivity.predictor import (
    PAPER_BANDWIDTH_PREDICTOR,
    PAPER_COMPUTE_PREDICTOR,
    TrainingReport,
)

#: Paper fit correlations (Section 4.3).
PAPER_COMPUTE_CORRELATION = 0.91
PAPER_BANDWIDTH_CORRELATION = 0.96
#: Paper prediction errors (Section 7.2).
PAPER_BANDWIDTH_ERROR = 0.0303
PAPER_COMPUTE_ERROR = 0.0571


class ModelComparisonResult(NamedTuple):
    """Refit Table 3 next to the published one."""

    training: TrainingReport

    @property
    def compute_correlation(self) -> float:
        """Refit compute-model correlation (paper: 0.91)."""
        return self.training.compute_correlation

    @property
    def bandwidth_correlation(self) -> float:
        """Refit bandwidth-model correlation (paper: 0.96)."""
        return self.training.bandwidth_correlation

    def prediction_errors(self) -> Tuple[float, float]:
        """(bandwidth, compute) mean absolute prediction errors."""
        return self.training.prediction_errors()


def run(context: ExperimentContext) -> ModelComparisonResult:
    """Rerun the Section 4 pipeline on this substrate."""
    return ModelComparisonResult(training=context.training)


def format_report(result: ModelComparisonResult) -> str:
    """Render Table 2 (vocabulary) and Table 3 (paper vs refit)."""
    table2_rows = [(name,) for name in PerfCounters.feature_names()]
    table2 = format_table(
        headers=("Table 2 counter / metric",),
        rows=table2_rows,
        title="Table 2: counters and derived metrics available online",
    )

    sections = [table2]
    for kind, refit, paper in (
        ("bandwidth", result.training.bandwidth.model,
         PAPER_BANDWIDTH_PREDICTOR.model),
        ("compute", result.training.compute.model,
         PAPER_COMPUTE_PREDICTOR.model),
    ):
        paper_coeffs = dict(paper.coefficient_rows())
        rows = []
        for name, value in refit.coefficient_rows():
            paper_value = paper_coeffs.get(name)
            rows.append((
                name,
                f"{value:+.4f}",
                f"{paper_value:+.4f}" if paper_value is not None else "-",
            ))
        sections.append(format_table(
            headers=("feature", "refit coeff", "paper coeff"),
            rows=rows,
            title=f"Table 3 [{kind} sensitivity model]",
        ))

    bw_err, comp_err = result.prediction_errors()
    summary = format_table(
        headers=("quantity", "this substrate", "paper"),
        rows=[
            ("compute correlation", f"{result.compute_correlation:.2f}",
             f"{PAPER_COMPUTE_CORRELATION:.2f}"),
            ("bandwidth correlation", f"{result.bandwidth_correlation:.2f}",
             f"{PAPER_BANDWIDTH_CORRELATION:.2f}"),
            ("bandwidth pred. error", f"{bw_err:.2%}",
             f"{PAPER_BANDWIDTH_ERROR:.2%}"),
            ("compute pred. error", f"{comp_err:.2%}",
             f"{PAPER_COMPUTE_ERROR:.2%}"),
        ],
        title="Section 4.3 / 7.2: model quality",
    )
    sections.append(summary)
    return "\n\n".join(sections)
