"""Figures 10-13: the headline evaluation.

Baseline (PowerTune boost) vs CG-only vs Harmonia (FG+CG) vs the ED²
oracle over all fourteen applications. Paper anchors:

* **Figure 10 (ED²)** — Harmonia improves ED² by 12% on average (up to
  36% on BPT), of which ~6 points come from CG; Harmonia lands within
  ~3% of the oracle on average. Two geomeans are reported; "Geomean 2"
  excludes the MaxFlops/DeviceMemory stress benchmarks.
* **Figure 11 (energy)** — CG and FG+CG save nearly identical energy
  (the FG loop adds only ~2%); its role is protecting performance.
* **Figure 12 (power)** — 12% average card-power saving, up to ~19%.
* **Figure 13 (performance)** — Harmonia loses only 0.36% on average
  (max 3.6%, Streamcluster); CG-only loses 2.2% on average with a 27%
  worst case (Streamcluster); BPT gains 11%, CFD and XSBench gain ~3%
  from reduced L2 interference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

if TYPE_CHECKING:
    from repro.analysis.evaluation import EvaluationSummary, MonteCarloSummary

#: Candidate policies in presentation order. The shared evaluation
#: matrix runs them plus ``dvfs-only`` (Section 7.2).
POLICIES: Tuple[str, ...] = ("cg-only", "harmonia", "oracle")

#: Paper headline anchors, used by the report footers and the tests.
PAPER_ANCHORS: Mapping[str, float] = {
    "harmonia_ed2_avg": 0.12,
    "harmonia_ed2_max": 0.36,
    "cg_share_of_ed2": 0.06,
    "oracle_gap": 0.03,
    "harmonia_perf_avg": -0.0036,
    "harmonia_perf_worst": -0.036,
    "cg_perf_avg": -0.022,
    "cg_perf_worst": -0.27,
    "power_saving_avg": 0.12,
    "power_saving_max": 0.19,
    "bpt_perf_gain": 0.11,
}


class EvaluationResult(NamedTuple):
    """The full Figures 10-13 data."""

    summary: EvaluationSummary
    applications: Tuple[str, ...]

    def per_app(self, policy: str, attribute: str) -> Dict[str, float]:
        """One metric for one policy across all applications."""
        return {
            app: getattr(self.summary.comparison(app, policy), attribute)
            for app in self.applications
        }


def run(context: ExperimentContext) -> EvaluationResult:
    """Run (or fetch the cached) evaluation matrix."""
    apps = tuple(app.name for app in context.applications)
    return EvaluationResult(summary=context.evaluation, applications=apps)


def _figure_report(result: EvaluationResult, attribute: str, title: str,
                   footer_rows: List[Tuple[str, str, str]]) -> str:
    rows = []
    for app in result.applications:
        cells = [app]
        for policy in POLICIES:
            value = getattr(result.summary.comparison(app, policy), attribute)
            cells.append(f"{value:+.1%}")
        rows.append(tuple(cells))
    for label, geo_kind, paper in footer_rows:
        cells = [label]
        exclude = geo_kind == "geomean2"
        for policy in POLICIES:
            value = result.summary.geomean(policy, attribute, exclude)
            cells.append(f"{value:+.1%}")
        rows.append(tuple(cells))
    table = format_table(
        headers=("application",) + POLICIES,
        rows=rows,
        title=title,
    )
    return table


def format_fig10(result: EvaluationResult) -> str:
    """Figure 10: ED² improvement."""
    return _figure_report(
        result, "ed2_improvement",
        "Figure 10: ED2 improvement over baseline "
        "(paper: Harmonia 12% avg / 36% max, within ~3% of oracle)",
        [("geomean 1", "geomean1", ""), ("geomean 2", "geomean2", "")],
    )


def format_fig11(result: EvaluationResult) -> str:
    """Figure 11: energy improvement."""
    return _figure_report(
        result, "energy_improvement",
        "Figure 11: energy improvement over baseline "
        "(paper: CG and FG+CG nearly identical)",
        [("geomean 1", "geomean1", ""), ("geomean 2", "geomean2", "")],
    )


def format_fig12(result: EvaluationResult) -> str:
    """Figure 12: power saving."""
    return _figure_report(
        result, "power_saving",
        "Figure 12: card power saving over baseline "
        "(paper: 12% avg, up to ~19%)",
        [("geomean 1", "geomean1", ""), ("geomean 2", "geomean2", "")],
    )


def format_fig13(result: EvaluationResult) -> str:
    """Figure 13: performance delta."""
    return _figure_report(
        result, "performance_delta",
        "Figure 13: performance vs baseline (paper: Harmonia -0.36% avg / "
        "-3.6% max; CG-only -2.2% avg / -27% max; BPT +11%)",
        [("geomean 1", "geomean1", ""), ("geomean 2", "geomean2", "")],
    )


# --- Monte Carlo confidence bands --------------------------------------------------------

#: (attribute, table title) pairs the CI report prints, one per figure.
_CI_TABLES: Tuple[Tuple[str, str], ...] = (
    ("ed2_improvement", "Figure 10 CI: ED2 improvement over baseline"),
    ("energy_improvement", "Figure 11 CI: energy improvement over baseline"),
    ("power_saving", "Figure 12 CI: card power saving over baseline"),
    ("performance_delta", "Figure 13 CI: performance vs baseline"),
)


def run_ci(context: ExperimentContext, seeds: int = 16,
           noise_std_fraction: float = 0.05) -> MonteCarloSummary:
    """The evaluation matrix under repeated-trial measurement noise.

    The paper's numbers average repeated hardware measurements; this is
    the reproduction's analogue — ``seeds`` Monte Carlo trials at
    ``noise_std_fraction`` run-to-run time noise, seed-paired against the
    baseline, vectorized by the launch-keyed noise model.
    """
    from repro.analysis.evaluation import EvaluationHarness

    harness = EvaluationHarness(context.platform, context.baseline_policy())
    return harness.evaluate_montecarlo(
        context.applications,
        [context.cg_only_policy(), context.harmonia_policy(),
         context.oracle_policy()],
        seeds=seeds,
        noise_std_fraction=noise_std_fraction,
    )


def format_ci(summary: MonteCarloSummary) -> str:
    """Figures 10-13 with 95% confidence bands (mean ± half-width)."""
    applications = []
    for comparison in summary.comparisons:
        if comparison.application not in applications:
            applications.append(comparison.application)
    tables = []
    for attribute, title in _CI_TABLES:
        rows = []
        for app in applications:
            cells = [app]
            for policy in POLICIES:
                band = getattr(summary.comparison(app, policy), attribute)
                cells.append(f"{band.mean:+.1%} ±{band.half_width:.1%}")
            rows.append(tuple(cells))
        for label, exclude in (("geomean 1", False), ("geomean 2", True)):
            cells = [label]
            for policy in POLICIES:
                band = summary.geomean(policy, attribute, exclude)
                cells.append(f"{band.mean:+.1%} ±{band.half_width:.1%}")
            rows.append(tuple(cells))
        tables.append(format_table(
            headers=("application",) + POLICIES,
            rows=rows,
            title=f"{title} ({len(summary.seeds)} trials, "
                  f"{summary.noise_std_fraction:.0%} time noise)",
        ))
    return "\n\n".join(tables)
