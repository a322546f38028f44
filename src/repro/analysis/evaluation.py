"""The Figures 10-13 policy-comparison harness.

Runs every application under every policy, normalizes to the baseline, and
produces exactly the rows the paper's result figures plot: per-application
ED² / energy / power improvements and performance deltas, plus the two
geometric means ("Geomean 2 ... excludes those two stress benchmarks").
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Sequence, Tuple)

from repro.errors import AnalysisError, map_items
from repro.core.policy import PowerPolicy
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import RunMetrics, geomean, improvement
from repro.runtime.simulator import RunResult
from repro.workloads.application import Application
from repro.workloads.registry import STRESS_BENCHMARKS

if TYPE_CHECKING:
    from repro.runtime.montecarlo import MetricBand, MonteCarloComparison


class ApplicationComparison(NamedTuple):
    """One application's outcome under one policy, vs. the baseline."""

    application: str
    policy: str
    baseline: RunMetrics
    candidate: RunMetrics

    @property
    def ed2_improvement(self) -> float:
        """Fractional ED² improvement over the baseline (Figure 10)."""
        return improvement(self.baseline.ed2, self.candidate.ed2)

    @property
    def energy_improvement(self) -> float:
        """Fractional energy improvement over the baseline (Figure 11)."""
        return improvement(self.baseline.energy, self.candidate.energy)

    @property
    def power_saving(self) -> float:
        """Fractional average-power saving over the baseline (Figure 12)."""
        return improvement(self.baseline.avg_power, self.candidate.avg_power)

    @property
    def performance_delta(self) -> float:
        """Relative performance change (Figure 13); negative = slowdown."""
        return self.baseline.time / self.candidate.time - 1.0


class EvaluationSummary(NamedTuple):
    """All policies x all applications, with the paper's two geomeans."""

    comparisons: Tuple[ApplicationComparison, ...]
    runs: Mapping[str, Mapping[str, RunResult]]

    def for_policy(self, policy: str) -> Tuple[ApplicationComparison, ...]:
        """All per-application comparisons of one policy."""
        rows = tuple(c for c in self.comparisons if c.policy == policy)
        if not rows:
            raise AnalysisError(f"no comparisons for policy {policy!r}")
        return rows

    def comparison(self, application: str, policy: str) -> ApplicationComparison:
        """One application x policy cell."""
        for c in self.comparisons:
            if c.application == application and c.policy == policy:
                return c
        raise AnalysisError(f"no comparison for {application!r} x {policy!r}")

    def _geomean_of(self, policy: str, attribute: str,
                    exclude_stress: bool) -> float:
        rows = self.for_policy(policy)
        if exclude_stress:
            rows = tuple(r for r in rows if r.application not in STRESS_BENCHMARKS)
        if attribute == "performance_delta":
            # delta = baseline_time / candidate_time - 1; the ratio
            # (1 + delta) is positive by construction.
            return geomean(1.0 + r.performance_delta for r in rows) - 1.0
        # Improvement metrics are (baseline - candidate) / baseline; the
        # geomean must run over the positive candidate/baseline ratios —
        # a candidate can be arbitrarily worse than baseline (ratio > 2),
        # where naive geomean over (1 + improvement) would go negative.
        return 1.0 - geomean(1.0 - getattr(r, attribute) for r in rows)

    def geomean(self, policy: str, attribute: str,
                exclude_stress: bool = False) -> float:
        """Geomean of any comparison attribute for one policy."""
        return self._geomean_of(policy, attribute, exclude_stress)

    def geomean_ed2(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean ED² improvement (Geomean 1, or Geomean 2 if excluding
        the MaxFlops/DeviceMemory stress benchmarks)."""
        return self._geomean_of(policy, "ed2_improvement", exclude_stress)

    def geomean_energy(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean energy improvement."""
        return self._geomean_of(policy, "energy_improvement", exclude_stress)

    def geomean_power(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean power saving."""
        return self._geomean_of(policy, "power_saving", exclude_stress)

    def geomean_performance(self, policy: str,
                            exclude_stress: bool = False) -> float:
        """Geomean performance delta."""
        return self._geomean_of(policy, "performance_delta", exclude_stress)


class MonteCarloSummary(NamedTuple):
    """All policies x all applications under repeated-trial noise.

    The Monte Carlo analogue of :class:`EvaluationSummary`: every cell is
    a seed-paired :class:`~repro.runtime.montecarlo.MonteCarloComparison`
    whose improvement metrics carry mean/std/95% CI bands instead of
    point values.
    """

    comparisons: Tuple[MonteCarloComparison, ...]
    seeds: Tuple[int, ...]
    noise_std_fraction: float

    def for_policy(self, policy: str) -> Tuple[MonteCarloComparison, ...]:
        """All per-application comparisons of one policy."""
        rows = tuple(c for c in self.comparisons if c.policy == policy)
        if not rows:
            raise AnalysisError(f"no comparisons for policy {policy!r}")
        return rows

    def comparison(self, application: str,
                   policy: str) -> MonteCarloComparison:
        """One application x policy cell."""
        for c in self.comparisons:
            if c.application == application and c.policy == policy:
                return c
        raise AnalysisError(f"no comparison for {application!r} x {policy!r}")

    def geomean(self, policy: str, attribute: str,
                exclude_stress: bool = False) -> MetricBand:
        """Banded geomean of a comparison attribute for one policy.

        The geomean runs over applications within each trial seed and is
        banded across seeds, so the CI reflects what repeated measurement
        campaigns of the whole suite would report.
        """
        from repro.runtime.montecarlo import geomean_band

        rows = self.for_policy(policy)
        if exclude_stress:
            rows = tuple(r for r in rows
                         if r.application not in STRESS_BENCHMARKS)
        if not rows:
            raise AnalysisError("no applications left after exclusion")
        return geomean_band(rows, attribute)


class EvaluationHarness:
    """Runs the full policy-comparison matrix."""

    def __init__(self, platform: HardwarePlatform,
                 baseline_policy: PowerPolicy):
        self._platform = platform
        self._baseline = baseline_policy

    def _compare(self, application: Application,
                 policies: Sequence[PowerPolicy]):
        """One application's baseline + candidates as lockstep lanes of
        the batched session engine (:mod:`repro.runtime.session`).

        Returns:
            ``(per_app, comparisons)``: the runs keyed by policy name and
            one :class:`ApplicationComparison` per candidate.
        """
        from repro.runtime.session import BatchSessionRunner, SessionSpec
        outcomes = BatchSessionRunner(self._platform).run_sessions([
            SessionSpec(application=application, policy=policy)
            for policy in (self._baseline, *policies)
        ])
        base_run = outcomes[0]
        per_app: Dict[str, RunResult] = {self._baseline.name: base_run}
        comparisons: List[ApplicationComparison] = []
        for policy, run in zip(policies, outcomes[1:]):
            per_app[policy.name] = run
            comparisons.append(ApplicationComparison(
                application=application.name,
                policy=policy.name,
                baseline=base_run.metrics,
                candidate=run.metrics,
            ))
        return per_app, comparisons

    def evaluate(self, applications: Sequence[Application],
                 policies: Sequence[PowerPolicy]) -> EvaluationSummary:
        """Run baseline + candidates over all applications.

        Each application's baseline and candidates advance in lockstep
        via the batched session engine, bitwise-identical to one
        :meth:`~repro.runtime.simulator.ApplicationRunner.run` per policy.
        Every session starts from ``policy.reset()``, so one instance
        per policy serves every application.

        Args:
            applications: workloads to evaluate.
            policies: candidate policies (the baseline is implicit).
        """
        if not applications:
            raise AnalysisError("no applications to evaluate")
        outcomes = map_items(
            lambda application: self._compare(application, policies),
            applications)
        comparisons: List[ApplicationComparison] = []
        runs: Dict[str, Dict[str, RunResult]] = {}
        for application, (per_app, comps) in zip(applications, outcomes):
            runs[application.name] = per_app
            comparisons.extend(comps)
        return EvaluationSummary(comparisons=tuple(comparisons), runs=runs)

    def evaluate_montecarlo(
        self,
        applications: Sequence[Application],
        policies: Sequence[PowerPolicy],
        seeds: "int | Sequence[int]" = 16,
        noise_std_fraction: float = 0.05,
    ) -> MonteCarloSummary:
        """Run the matrix under repeated-trial measurement noise.

        Each application's baseline and candidates are rolled out
        together by the vectorized
        :class:`~repro.runtime.montecarlo.MonteCarloEngine`: their
        deterministic reference runs advance in lockstep via the batched
        session engine, and every trial seed's noise stream is derived
        and read once for all of them. The launch-keyed noise model
        guarantees each trial matches the scalar noisy run at the same
        platform seed. Baseline and candidate share seeds, so the
        reported improvement bands are paired. As in :meth:`evaluate`,
        one instance per policy serves every application.

        Args:
            applications: workloads to evaluate.
            policies: candidate policies (the baseline is implicit).
            seeds: trial platform seeds — an int N means ``range(N)``.
            noise_std_fraction: per-trial execution-time noise fraction.
        """
        # Loaded here, not with the module: the plain evaluation that a
        # ``reproduce`` run makes rolls out no Monte Carlo trial.
        from repro.runtime.montecarlo import (MonteCarloComparison,
                                              MonteCarloEngine)

        if not applications:
            raise AnalysisError("no applications to evaluate")
        engine = MonteCarloEngine(self._platform, noise_std_fraction, seeds)

        def evaluate_app(application: Application):
            base_run, *cand_runs = engine.rollout(
                application, (self._baseline, *policies))
            return [MonteCarloComparison(application=application.name,
                                         policy=cand_run.policy,
                                         baseline=base_run,
                                         candidate=cand_run)
                    for cand_run in cand_runs]

        comparisons: List[MonteCarloComparison] = []
        for comps in map_items(evaluate_app, applications):
            comparisons.extend(comps)
        return MonteCarloSummary(
            comparisons=tuple(comparisons),
            seeds=engine.seeds,
            noise_std_fraction=noise_std_fraction,
        )
