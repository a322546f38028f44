"""Unit tests for :mod:`repro.analysis.evaluation`."""

import pytest

from repro.analysis.evaluation import ApplicationComparison
from repro.errors import AnalysisError
from repro.runtime.metrics import RunMetrics


def metrics(time=1.0, energy=100.0, power=100.0, gpu=60.0, mem=30.0):
    return RunMetrics(time=time, energy=energy, avg_power=power,
                      avg_gpu_power=gpu, avg_memory_power=mem)


class TestComparison:
    def test_ed2_improvement(self):
        comparison = ApplicationComparison(
            application="X", policy="p",
            baseline=metrics(time=1.0, energy=100.0),
            candidate=metrics(time=1.0, energy=88.0),
        )
        assert comparison.ed2_improvement == pytest.approx(0.12)

    def test_performance_delta_sign(self):
        slower = ApplicationComparison(
            application="X", policy="p",
            baseline=metrics(time=1.0),
            candidate=metrics(time=1.25),
        )
        assert slower.performance_delta == pytest.approx(-0.2)
        faster = ApplicationComparison(
            application="X", policy="p",
            baseline=metrics(time=1.0),
            candidate=metrics(time=0.8),
        )
        assert faster.performance_delta == pytest.approx(0.25)

    def test_power_saving(self):
        comparison = ApplicationComparison(
            application="X", policy="p",
            baseline=metrics(power=100.0),
            candidate=metrics(power=88.0),
        )
        assert comparison.power_saving == pytest.approx(0.12)


class TestSummary:
    def test_lookup(self, evaluation):
        comparison = evaluation.comparison("BPT", "harmonia")
        assert comparison.application == "BPT"
        assert comparison.policy == "harmonia"

    def test_unknown_cell_raises(self, evaluation):
        with pytest.raises(AnalysisError):
            evaluation.comparison("BPT", "nonexistent")

    def test_for_policy_covers_all_apps(self, evaluation):
        rows = evaluation.for_policy("harmonia")
        assert len(rows) == 14

    def test_geomean2_excludes_stress(self, evaluation):
        # Removing the stress benchmarks must change the mean.
        with_stress = evaluation.geomean_ed2("harmonia", exclude_stress=False)
        without = evaluation.geomean_ed2("harmonia", exclude_stress=True)
        assert with_stress != without

    def test_geomean_handles_large_regressions(self, evaluation):
        # Streamcluster's CG-only ED² is worse than -100% improvement;
        # the ratio-based geomean must still be finite.
        value = evaluation.geomean_ed2("cg-only")
        assert value == value  # not NaN
        assert -1.0 < value < 1.0

    def test_runs_recorded(self, evaluation):
        assert "baseline" in evaluation.runs["BPT"]
        assert "harmonia" in evaluation.runs["BPT"]


class TestHarness:
    def test_reused_policies_match_fresh_instances_per_application(
            self, context):
        """One baseline and one instance per candidate serve every
        application: each session starts from ``policy.reset()``, so the
        runs equal those of fresh instances built per application."""
        from repro.analysis.evaluation import EvaluationHarness

        apps = [context.application(name)
                for name in ("MaxFlops", "CoMD", "Sort")]

        def evaluate(applications):
            harness = EvaluationHarness(context.platform,
                                        context.baseline_policy())
            return harness.evaluate(
                applications,
                [context.harmonia_policy(), context.oracle_policy()])

        reused = evaluate(apps)
        fresh = [comparison for app in apps
                 for comparison in evaluate([app]).comparisons]
        assert len(reused.comparisons) == len(fresh) == 2 * len(apps)
        for a, b in zip(reused.comparisons, fresh):
            assert (a.application, a.policy) == (b.application, b.policy)
            assert a.baseline == b.baseline
            assert a.candidate == b.candidate
