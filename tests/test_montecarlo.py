"""The vectorized Monte Carlo evaluation engine.

Pins the contract documented in :mod:`repro.runtime.montecarlo`: each
trial of a non-adaptive policy reproduces a full scalar harness run on a
noisy platform with the trial's seed, bands summarize the trials, and one
policy instance serves every application exactly like fresh ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationHarness
from repro.core.baseline import BaselinePolicy
from repro.core.oracle import OraclePolicy
from repro.errors import AnalysisError
from repro.platform import noise
from repro.platform.hd7970 import make_hd7970_platform
from repro.runtime.montecarlo import (
    MonteCarloEngine,
    band,
    geomean_band,
)
from repro.runtime.simulator import ApplicationRunner
from repro.workloads.registry import get_application

NOISE = 0.05
SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def engine():
    return MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS)


@pytest.fixture(scope="module")
def apps():
    return [get_application("MaxFlops"), get_application("BPT")]


class TestMetricBand:
    def test_band_math(self):
        b = band(np.array([1.0, 2.0, 3.0, 4.0]))
        assert b.mean == 2.5
        assert b.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert b.n == 4
        assert b.ci_low < b.mean < b.ci_high
        assert b.half_width == pytest.approx(1.96 * b.std / 2, rel=1e-3)

    def test_single_trial_has_zero_width(self):
        b = band(np.array([7.0]))
        assert b.mean == 7.0
        assert b.std == 0.0
        assert b.ci_low == b.ci_high == 7.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            band(np.array([]))


class TestEngineValidation:
    def test_noisy_platform_rejected(self):
        noisy = make_hd7970_platform(noise_std_fraction=0.05, seed=1)
        with pytest.raises(AnalysisError):
            MonteCarloEngine(noisy, NOISE, 2)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), 0.0, 2)

    def test_empty_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [1, 1])

    def test_int_seeds_means_range(self):
        engine = MonteCarloEngine(make_hd7970_platform(), NOISE, 3)
        assert engine.seeds == (0, 1, 2)


class TestRollout:
    def test_trials_match_scalar_noisy_runs(self, engine, apps):
        """Trial s == a full scalar harness run at platform seed s."""
        for app in apps:
            run = engine.rollout(app, BaselinePolicy(
                engine.platform.config_space))
            for idx, seed in enumerate(engine.seeds):
                noisy = make_hd7970_platform(noise_std_fraction=NOISE,
                                             seed=seed)
                scalar = ApplicationRunner(noisy).run(
                    app, BaselinePolicy(noisy.config_space))
                # Totals agree to summation tolerance (per-launch times
                # are bitwise equal; np.sum is pairwise, Python's is not).
                assert run.time_samples[idx] == pytest.approx(
                    scalar.metrics.time, rel=1e-12)
                assert run.energy_samples[idx] == pytest.approx(
                    scalar.metrics.energy, rel=1e-12)
                assert run.ed2_samples[idx] == pytest.approx(
                    scalar.metrics.ed2, rel=1e-12)

    def test_memo_smaller_than_a_rollout_changes_no_draw(
            self, engine, apps, monkeypatch, derived_streams):
        """With ``MEMO_SIZE`` below a rollout's stream count the rollout
        fills and reads its streams in chunks: trials stay bitwise those
        of the default memo (and so match the scalar noisy runs), and
        the fill evicts no stream before it is read, so none is derived
        twice."""
        space = engine.platform.config_space
        reference = [engine.rollout(app, BaselinePolicy(space))
                     for app in apps]
        monkeypatch.setattr(noise, "MEMO_SIZE", 7)
        for app, expected in zip(apps, reference):
            small = MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS)
            derived_streams.clear()
            run = small.rollout(app, BaselinePolicy(space))
            for field in ("time_samples", "energy_samples", "ed2_samples"):
                assert getattr(run, field).tobytes() == \
                    getattr(expected, field).tobytes()
            streams = {(spec, iteration)
                       for iteration, _, spec in app.launches()}
            assert len(streams) > noise.MEMO_SIZE
            assert len(derived_streams) == len(set(derived_streams)) == \
                len(streams) * len(SEEDS)
        self.test_trials_match_scalar_noisy_runs(
            MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS), apps)

    def test_bands_summarize_samples(self, engine, apps):
        run = engine.rollout(apps[0], BaselinePolicy(
            engine.platform.config_space))
        assert run.time.n == len(SEEDS)
        assert run.time.mean == pytest.approx(np.mean(run.time_samples))
        assert run.ed2.std > 0
        assert run.performance.mean == pytest.approx(
            np.mean(1.0 / run.time_samples))

    def test_rollouts_are_reproducible(self, engine, apps):
        a = engine.rollout(apps[0], BaselinePolicy(
            engine.platform.config_space))
        b = engine.rollout(apps[0], BaselinePolicy(
            engine.platform.config_space))
        np.testing.assert_array_equal(a.time_samples, b.time_samples)
        np.testing.assert_array_equal(a.energy_samples, b.energy_samples)


class TestComparison:
    def test_baseline_vs_itself_is_null(self, engine, apps):
        space = engine.platform.config_space
        comparison = engine.compare(apps[0], BaselinePolicy(space),
                                    BaselinePolicy(space))
        assert comparison.ed2_improvement.mean == 0.0
        assert comparison.ed2_improvement.half_width == 0.0
        assert comparison.performance_delta.mean == 0.0

    def test_oracle_beats_baseline(self, engine, apps):
        space = engine.platform.config_space
        comparison = engine.compare(apps[1], BaselinePolicy(space),
                                    OraclePolicy(engine.platform))
        assert comparison.ed2_improvement.mean > 0
        assert comparison.energy_improvement.mean > 0

    def test_geomean_band_aggregates(self, engine, apps):
        space = engine.platform.config_space
        comparisons = [
            engine.compare(app, BaselinePolicy(space),
                           OraclePolicy(engine.platform))
            for app in apps
        ]
        geo = geomean_band(comparisons, "ed2_improvement")
        assert geo.n == len(SEEDS)
        means = [c.ed2_improvement.mean for c in comparisons]
        assert min(means) <= geo.mean <= max(means)
        with pytest.raises(AnalysisError):
            geomean_band(comparisons, "no_such_metric")
        with pytest.raises(AnalysisError):
            geomean_band([], "ed2_improvement")


class TestHarness:
    def test_reused_policy_matches_fresh_instances(self, apps, context):
        """One policy instance serves every application: each session
        starts from ``policy.reset()``, so the bands equal those of a
        fresh instance per application, sample for sample."""
        platform = context.platform

        def summarize(applications, policy):
            harness = EvaluationHarness(platform, context.baseline_policy())
            return harness.evaluate_montecarlo(
                applications, [policy],
                seeds=SEEDS, noise_std_fraction=NOISE,
            )

        reused = summarize(apps, context.harmonia_policy())
        fresh = [summarize([app], context.harmonia_policy())
                 for app in apps]
        assert reused.seeds == SEEDS
        assert len(reused.comparisons) == len(apps)
        for a, (b,) in zip(reused.comparisons,
                           (summary.comparisons for summary in fresh)):
            assert (a.application, a.policy) == (b.application, b.policy)
            for side in ("baseline", "candidate"):
                for field in ("time_samples", "energy_samples",
                              "avg_power_samples", "ed2_samples"):
                    np.testing.assert_array_equal(
                        getattr(getattr(a, side), field),
                        getattr(getattr(b, side), field))

    def test_summary_lookup(self, apps):
        platform = make_hd7970_platform()
        harness = EvaluationHarness(
            platform, BaselinePolicy(platform.config_space))
        summary = harness.evaluate_montecarlo(
            apps, [OraclePolicy(platform)],
            seeds=2,
            noise_std_fraction=NOISE,
        )
        cell = summary.comparison("MaxFlops", "oracle")
        assert cell.application == "MaxFlops"
        assert len(summary.for_policy("oracle")) == 2
        with pytest.raises(AnalysisError):
            summary.for_policy("nonexistent")
        with pytest.raises(AnalysisError):
            summary.comparison("MaxFlops", "nonexistent")


class TestCli:
    def test_montecarlo_subcommand(self, capsys):
        from repro.cli import main

        code = main(["montecarlo", "MaxFlops", "--policy", "oracle",
                     "--seeds", "2", "--noise", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Monte Carlo" in out
        assert "MaxFlops" in out

    def test_montecarlo_unknown_app(self, capsys):
        from repro.cli import main

        code = main(["montecarlo", "NoSuchApp", "--seeds", "2"])
        assert code == 2
