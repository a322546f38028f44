"""Ablation studies over Harmonia's design choices.

The paper fixes several controller constants empirically (Section 5.2:
the HIGH/MED/LOW bin edges and per-bin tunable values; the FG dithering
bound) and relies on properties it does not isolate (the performance-
feedback guard, counter smoothing, predictor provenance, measurement
noise). Each ablation here re-runs the full 14-application evaluation with
one knob moved and reports the headline triplet (ED² gain, performance
delta, power saving), so the contribution of each design choice is
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

if TYPE_CHECKING:
    from repro.core.harmonia import HarmoniaPolicy
    from repro.platform.hd7970 import HardwarePlatform


@dataclass(frozen=True)
class AblationRow:
    """Headline triplet for one variant."""

    variant: str
    ed2: float
    performance: float
    power: float


@dataclass(frozen=True)
class AblationResult:
    """One ablation study: a set of variants around the default."""

    study: str
    rows: Tuple[AblationRow, ...]

    def row(self, variant: str) -> AblationRow:
        """Look up one variant's row."""
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(variant)

    def best_ed2_variant(self) -> AblationRow:
        """The variant with the highest ED² gain."""
        return max(self.rows, key=lambda r: r.ed2)


def _headline(context: ExperimentContext,
              make_policy: Callable[[], HarmoniaPolicy],
              platform: HardwarePlatform = None) -> Tuple[float, float, float]:
    from repro.analysis.evaluation import EvaluationHarness
    from repro.core.baseline import BaselinePolicy

    platform = platform or context.platform
    harness = EvaluationHarness(platform, BaselinePolicy(platform.config_space))
    summary = harness.evaluate(context.applications, [make_policy()])
    name = make_policy().name
    return (
        summary.geomean_ed2(name),
        summary.geomean_performance(name),
        summary.geomean_power(name),
    )


def _policy(context: ExperimentContext, **kwargs) -> HarmoniaPolicy:
    from repro.core.harmonia import HarmoniaPolicy

    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space, training.compute, training.bandwidth,
        **kwargs,
    )


# --- individual studies -----------------------------------------------------------


def ablate_bin_edges(context: ExperimentContext) -> AblationResult:
    """Sensitivity-bin edges (paper: <30% / 30-70% / >70%)."""
    from repro.sensitivity.binning import SensitivityBins

    rows = []
    for low, high in ((0.20, 0.60), (0.30, 0.70), (0.40, 0.80), (0.30, 0.90)):
        bins = SensitivityBins(low_edge=low, high_edge=high)
        ed2, perf, power = _headline(
            context, lambda b=bins: _policy(context, bins=b)
        )
        label = f"edges {low:.0%}/{high:.0%}"
        if (low, high) == (0.30, 0.70):
            label += " (paper)"
        rows.append(AblationRow(variant=label, ed2=ed2, performance=perf,
                                power=power))
    return AblationResult(study="sensitivity bin edges", rows=tuple(rows))


def ablate_fg_tolerance(context: ExperimentContext) -> AblationResult:
    """The FG performance-feedback tolerance (default 1%)."""
    rows = []
    for tolerance in (0.002, 0.01, 0.03, 0.10):
        ed2, perf, power = _headline(
            context, lambda t=tolerance: _policy(context, tolerance=t)
        )
        label = f"tolerance {tolerance:.1%}"
        if tolerance == 0.01:
            label += " (default)"
        rows.append(AblationRow(variant=label, ed2=ed2, performance=perf,
                                power=power))
    return AblationResult(study="FG feedback tolerance", rows=tuple(rows))


def ablate_max_dithering(context: ExperimentContext) -> AblationResult:
    """The FG dithering bound before convergence (Algorithm 1)."""
    rows = []
    for bound in (2, 4, 8, 16):
        ed2, perf, power = _headline(
            context, lambda b=bound: _policy(context, max_dithering=b)
        )
        label = f"max dithering {bound}"
        if bound == 8:
            label += " (default)"
        rows.append(AblationRow(variant=label, ed2=ed2, performance=perf,
                                power=power))
    return AblationResult(study="FG dithering bound", rows=tuple(rows))


def ablate_fg_disabled(context: ExperimentContext) -> AblationResult:
    """CG-only vs FG+CG vs FG-heavy (no CG jumps beyond the first)."""
    variants = (
        ("CG only", dict(enable_fg=False)),
        ("FG+CG (Harmonia)", dict()),
        ("FG impatient (patience 1)", dict(fg_patience=1)),
        ("FG patient (patience 4)", dict(fg_patience=4)),
    )
    rows = []
    for label, kwargs in variants:
        ed2, perf, power = _headline(
            context, lambda k=kwargs: _policy(context, **k)
        )
        rows.append(AblationRow(variant=label, ed2=ed2, performance=perf,
                                power=power))
    return AblationResult(study="CG/FG composition", rows=tuple(rows))


def ablate_predictor_source(context: ExperimentContext) -> AblationResult:
    """Refit Table 3 models vs the paper's published coefficients.

    The paper's weights encode the HD7970 silicon's counter scales; run
    verbatim on this substrate they misrank sensitivities, quantifying how
    platform-specific the regression is (and why Section 4's *methodology*
    — retrain per platform — is the portable artifact).
    """
    from repro.core.harmonia import HarmoniaPolicy
    from repro.sensitivity.predictor import (
        PAPER_BANDWIDTH_PREDICTOR, PAPER_COMPUTE_PREDICTOR)

    training = context.training
    space = context.platform.config_space
    variants = (
        ("refit on this substrate",
         lambda: HarmoniaPolicy(space, training.compute, training.bandwidth)),
        ("paper Table 3 verbatim",
         lambda: HarmoniaPolicy(space, PAPER_COMPUTE_PREDICTOR,
                                PAPER_BANDWIDTH_PREDICTOR)),
    )
    rows = []
    for label, factory in variants:
        ed2, perf, power = _headline(context, factory)
        rows.append(AblationRow(variant=label, ed2=ed2, performance=perf,
                                power=power))
    return AblationResult(study="predictor provenance", rows=tuple(rows))


def ablate_measurement_noise(context: ExperimentContext) -> AblationResult:
    """Controller robustness to run-to-run measurement noise.

    The paper averages repeated runs to remove variance (Section 6); the
    online controller still sees noisy per-launch feedback. This study
    runs the whole evaluation on noisy platforms.
    """
    from repro.analysis.evaluation import EvaluationHarness
    from repro.core.baseline import BaselinePolicy
    from repro.core.harmonia import HarmoniaPolicy
    from repro.platform.hd7970 import make_hd7970_platform
    from repro.sensitivity.predictor import train_predictors
    from repro.workloads.registry import all_applications

    rows = []
    for noise in (0.0, 0.005, 0.02, 0.05):
        platform = make_hd7970_platform(noise_std_fraction=noise, seed=17)
        applications = all_applications()
        training = train_predictors(platform, applications)
        harness = EvaluationHarness(
            platform, BaselinePolicy(platform.config_space)
        )
        policy = HarmoniaPolicy(
            platform.config_space, training.compute, training.bandwidth
        )
        summary = harness.evaluate(applications, [policy])
        label = f"noise {noise:.1%}"
        if noise == 0.0:
            label += " (default)"
        rows.append(AblationRow(
            variant=label,
            ed2=summary.geomean_ed2("harmonia"),
            performance=summary.geomean_performance("harmonia"),
            power=summary.geomean_power("harmonia"),
        ))
    return AblationResult(study="measurement noise", rows=tuple(rows))


#: All studies, for the benchmark harness.
ALL_STUDIES: Tuple[Tuple[str, Callable[..., AblationResult]], ...] = (
    ("bin_edges", ablate_bin_edges),
    ("fg_tolerance", ablate_fg_tolerance),
    ("max_dithering", ablate_max_dithering),
    ("cg_fg_composition", ablate_fg_disabled),
    ("predictor_source", ablate_predictor_source),
    ("measurement_noise", ablate_measurement_noise),
)


def format_report(result: AblationResult) -> str:
    """Render one ablation study."""
    rows = [
        (r.variant, f"{r.ed2:+.1%}", f"{r.performance:+.2%}",
         f"{r.power:+.1%}")
        for r in result.rows
    ]
    return format_table(
        headers=("variant", "ED2 gain", "performance", "power saving"),
        rows=rows,
        title=f"Ablation: {result.study}",
    )
