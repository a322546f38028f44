"""Ablation studies over Harmonia's design choices.

The paper fixes several controller constants empirically (Section 5.2:
the HIGH/MED/LOW bin edges and per-bin tunable values; the FG dithering
bound) and relies on properties it does not isolate (the performance-
feedback guard, counter smoothing, predictor provenance, measurement
noise). Each ablation here runs the full 14-application evaluation with
one knob moved per variant and reports each variant's headline triplet
(ED² gain, performance delta, power saving), so the contribution of each
design choice is measurable. A study's variants are Harmonia policies
named by their row label, evaluated in one harness call, so the baseline
runs once per application, not once per variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

if TYPE_CHECKING:
    from repro.core.harmonia import HarmoniaPolicy
    from repro.core.policy import PowerPolicy
    from repro.platform.hd7970 import HardwarePlatform
    from repro.workloads.application import Application


class AblationRow(NamedTuple):
    """Headline triplet for one variant."""

    variant: str
    ed2: float
    performance: float
    power: float


class AblationResult(NamedTuple):
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


def _rows(platform: HardwarePlatform, applications: Sequence[Application],
          policies: Sequence[PowerPolicy]) -> Tuple[AblationRow, ...]:
    """Evaluate ``policies`` against the baseline in one harness call (the
    baseline runs once per application), one row per policy, named by
    the policy."""
    from repro.analysis.evaluation import EvaluationHarness
    from repro.core.baseline import BaselinePolicy

    harness = EvaluationHarness(platform, BaselinePolicy(platform.config_space))
    summary = harness.evaluate(applications, policies)
    return tuple(
        AblationRow(
            variant=policy.name,
            ed2=summary.geomean_ed2(policy.name),
            performance=summary.geomean_performance(policy.name),
            power=summary.geomean_power(policy.name),
        )
        for policy in policies
    )


def _study(context: ExperimentContext, study: str,
           policies: Sequence[PowerPolicy]) -> AblationResult:
    """One study: every variant on the context's platform and roster."""
    return AblationResult(study=study, rows=_rows(
        context.platform, context.applications, policies))


def _policy(context: ExperimentContext, label: str,
            **kwargs) -> HarmoniaPolicy:
    """Harmonia on the context's predictors, reported as ``label``."""
    from repro.core.harmonia import HarmoniaPolicy

    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space, training.compute, training.bandwidth,
        policy_name=label, **kwargs,
    )


# --- individual studies -----------------------------------------------------------


def ablate_bin_edges(context: ExperimentContext) -> AblationResult:
    """Sensitivity-bin edges (paper: <30% / 30-70% / >70%)."""
    from repro.sensitivity.binning import SensitivityBins

    policies = []
    for low, high in ((0.20, 0.60), (0.30, 0.70), (0.40, 0.80), (0.30, 0.90)):
        label = f"edges {low:.0%}/{high:.0%}"
        if (low, high) == (0.30, 0.70):
            label += " (paper)"
        policies.append(_policy(
            context, label,
            bins=SensitivityBins(low_edge=low, high_edge=high)))
    return _study(context, "sensitivity bin edges", policies)


def ablate_fg_tolerance(context: ExperimentContext) -> AblationResult:
    """The FG performance-feedback tolerance (default 1%)."""
    policies = []
    for tolerance in (0.002, 0.01, 0.03, 0.10):
        label = f"tolerance {tolerance:.1%}"
        if tolerance == 0.01:
            label += " (default)"
        policies.append(_policy(context, label, tolerance=tolerance))
    return _study(context, "FG feedback tolerance", policies)


def ablate_max_dithering(context: ExperimentContext) -> AblationResult:
    """The FG dithering bound before convergence (Algorithm 1)."""
    policies = []
    for bound in (2, 4, 8, 16):
        label = f"max dithering {bound}"
        if bound == 8:
            label += " (default)"
        policies.append(_policy(context, label, max_dithering=bound))
    return _study(context, "FG dithering bound", policies)


def ablate_fg_disabled(context: ExperimentContext) -> AblationResult:
    """CG-only vs FG+CG vs FG-heavy (no CG jumps beyond the first)."""
    return _study(context, "CG/FG composition", [
        _policy(context, "CG only", enable_fg=False),
        _policy(context, "FG+CG (Harmonia)"),
        _policy(context, "FG impatient (patience 1)", fg_patience=1),
        _policy(context, "FG patient (patience 4)", fg_patience=4),
    ])


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

    return _study(context, "predictor provenance", [
        _policy(context, "refit on this substrate"),
        HarmoniaPolicy(context.platform.config_space,
                       PAPER_COMPUTE_PREDICTOR, PAPER_BANDWIDTH_PREDICTOR,
                       policy_name="paper Table 3 verbatim"),
    ])


def ablate_measurement_noise(context: ExperimentContext) -> AblationResult:
    """Controller robustness to run-to-run measurement noise.

    The paper averages repeated runs to remove variance (Section 6); the
    online controller still sees noisy per-launch feedback. This study
    runs the whole evaluation on noisy platforms, one per variant, each
    with predictors trained on it.
    """
    from repro.core.harmonia import HarmoniaPolicy
    from repro.platform.hd7970 import make_hd7970_platform
    from repro.sensitivity.predictor import train_predictors
    from repro.workloads.registry import all_applications

    rows: List[AblationRow] = []
    for noise in (0.0, 0.005, 0.02, 0.05):
        platform = make_hd7970_platform(noise_std_fraction=noise, seed=17)
        applications = all_applications()
        training = train_predictors(platform, applications)
        label = f"noise {noise:.1%}"
        if noise == 0.0:
            label += " (default)"
        rows.extend(_rows(platform, applications, [HarmoniaPolicy(
            platform.config_space, training.compute, training.bandwidth,
            policy_name=label,
        )]))
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
