"""The vectorized Monte Carlo evaluation engine.

Pins the contract documented in :mod:`repro.runtime.montecarlo`: each
trial of a non-adaptive policy reproduces a full scalar harness run on a
noisy platform with the trial's seed, whichever policies share its
rollout, bands summarize the trials, and one policy instance serves
every application exactly like fresh ones.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.evaluation import EvaluationHarness
from repro.core.baseline import BaselinePolicy
from repro.core.oracle import OraclePolicy
from repro.errors import AnalysisError
from repro.platform import noise
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.noise import LaunchKeyedNoise
from repro.runtime.montecarlo import (
    MonteCarloEngine,
    band,
    geomean_band,
)
from repro.runtime.simulator import ApplicationRunner
from repro.workloads.registry import application_names, get_application

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

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_nonfinite_noise_rejected(self, fraction):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), fraction, 2)

    def test_fractional_seeds_rejected(self):
        """``[0.5, 1.5]`` is an error, not the trial seeds ``(0, 1)``."""
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [0.5, 1.5])
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, 2.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [0, -1])

    def test_integer_like_seeds_key_their_value(self):
        engine = MonteCarloEngine(make_hd7970_platform(), NOISE,
                                  np.arange(2, 5))
        assert engine.seeds == (2, 3, 4)
        assert all(type(seed) is int for seed in engine.seeds)

    def test_empty_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [1, 1])

    def test_int_seeds_means_range(self):
        engine = MonteCarloEngine(make_hd7970_platform(), NOISE, 3)
        assert engine.seeds == (0, 1, 2)


def baseline_run(engine, app):
    """The single-policy rollout of the baseline on ``app``."""
    (run,) = engine.rollout(app, [BaselinePolicy(
        engine.platform.config_space)])
    return run


class TestRollout:
    def test_trials_match_scalar_noisy_runs(self, engine, apps):
        """Trial s == a full scalar harness run at platform seed s."""
        for app in apps:
            run = baseline_run(engine, app)
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
        reference = [baseline_run(engine, app) for app in apps]
        monkeypatch.setattr(noise, "MEMO_SIZE", 7)
        for app, expected in zip(apps, reference):
            small = MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS)
            derived_streams.clear()
            run = baseline_run(small, app)
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

    def test_one_run_per_policy_in_order(self, engine, apps):
        space = engine.platform.config_space
        policies = [OraclePolicy(engine.platform), BaselinePolicy(space),
                    OraclePolicy(engine.platform)]
        runs = engine.rollout(apps[1], policies)
        assert [run.policy for run in runs] == [
            "oracle", "baseline", "oracle"]
        assert all(run.application == apps[1].name for run in runs)
        assert all(run.seeds == SEEDS for run in runs)
        for field in ("time_samples", "energy_samples", "ed2_samples"):
            assert getattr(runs[0], field).tobytes() == \
                getattr(runs[2], field).tobytes()
        assert runs[1].time_samples.tobytes() == \
            baseline_run(engine, apps[1]).time_samples.tobytes()

    def test_supplied_references_are_used(self, engine, apps):
        """``references`` replaces the rollout's own lockstep sessions:
        scalar reference runs give the same trials bitwise."""
        space = engine.platform.config_space
        runner = ApplicationRunner(engine.platform)
        policies = [BaselinePolicy(space), OraclePolicy(engine.platform)]
        references = [runner.run(apps[1], policy) for policy in policies]
        supplied = engine.rollout(apps[1], policies, references)
        own = engine.rollout(apps[1], policies)
        for a, b in zip(supplied, own):
            assert a.energy_samples.tobytes() == b.energy_samples.tobytes()

    def test_mismatched_references_rejected(self, engine, apps):
        space = engine.platform.config_space
        policies = [BaselinePolicy(space), BaselinePolicy(space)]
        reference = ApplicationRunner(engine.platform).run(
            apps[0], policies[0])
        with pytest.raises(AnalysisError):
            engine.rollout(apps[0], policies, [reference])
        with pytest.raises(AnalysisError):
            engine.rollout(apps[1], policies[:1], [reference])

    def test_bands_summarize_samples(self, engine, apps):
        run = baseline_run(engine, apps[0])
        assert run.time.n == len(SEEDS)
        assert run.time.mean == pytest.approx(np.mean(run.time_samples))
        assert run.ed2.std > 0
        assert run.performance.mean == pytest.approx(
            np.mean(1.0 / run.time_samples))

    def test_rollouts_are_reproducible(self, engine, apps):
        a = baseline_run(engine, apps[0])
        b = baseline_run(engine, apps[0])
        np.testing.assert_array_equal(a.time_samples, b.time_samples)
        np.testing.assert_array_equal(a.energy_samples, b.energy_samples)


#: Seeds around the 32-bit word boundary of the stream key, below it and
#: far above it.
_TRIAL_SEEDS = st.one_of(st.integers(0, 2**16),
                         st.integers(2**32 - 2, 2**32 + 2),
                         st.integers(2**32, 2**70))


class TestRolloutContractFuzz:
    """Generated seeds, application subsets, orders of the non-adaptive
    policies and memo sizes: each policy's run is bitwise its own
    single-policy rollout, and each trial matches a scalar noisy run."""

    #: (application, policy kind, seed) -> the scalar noisy run's totals
    _scalar: dict = {}

    @staticmethod
    def _policies(kinds, platform):
        return [BaselinePolicy(platform.config_space) if kind == "baseline"
                else OraclePolicy(platform) for kind in kinds]

    def _scalar_totals(self, app, kind, seed, platform):
        key = (app.name, kind, seed)
        if key not in self._scalar:
            noisy = make_hd7970_platform(noise_std_fraction=NOISE, seed=seed)
            # The oracle's cached optima come from the deterministic
            # platform, as in the rollout's reference run.
            (policy,) = self._policies([kind], platform)
            metrics = ApplicationRunner(noisy).run(app, policy).metrics
            self._scalar[key] = (metrics.time, metrics.energy, metrics.ed2)
        return self._scalar[key]

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(_TRIAL_SEEDS, min_size=1, max_size=3,
                          unique=True),
           names=st.lists(st.sampled_from(application_names()),
                          min_size=1, max_size=2, unique=True),
           kinds=st.lists(st.sampled_from(("baseline", "oracle")),
                          min_size=1, max_size=3),
           memo_size=st.integers(1, 40))
    def test_runs_match_single_rollouts_and_scalar_runs(
            self, seeds, names, kinds, memo_size):
        platform = make_hd7970_platform()
        apps = [get_application(name) for name in names]
        single = MonteCarloEngine(platform, NOISE, seeds)
        with mock.patch.object(noise, "MEMO_SIZE", memo_size):
            engine = MonteCarloEngine(platform, NOISE, seeds)
            together = [engine.rollout(app, self._policies(kinds, platform))
                        for app in apps]
            assert all(len(model._memo) <= memo_size
                       for model in engine._models)
        for app, runs in zip(apps, together):
            assert [run.policy for run in runs] == list(kinds)
            for kind, run in zip(kinds, runs):
                (alone,) = single.rollout(app,
                                          self._policies([kind], platform))
                for field in ("time_samples", "energy_samples",
                              "avg_power_samples", "ed2_samples"):
                    assert getattr(run, field).tobytes() == \
                        getattr(alone, field).tobytes()
                for idx, seed in enumerate(seeds):
                    time, energy, ed2 = self._scalar_totals(
                        app, kind, seed, platform)
                    assert run.time_samples[idx] == pytest.approx(
                        time, rel=1e-12)
                    assert run.energy_samples[idx] == pytest.approx(
                        energy, rel=1e-12)
                    assert run.ed2_samples[idx] == pytest.approx(
                        ed2, rel=1e-12)


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


class TestWorkingSet:
    #: tracemalloc bound of the run below, in MiB: it peaked at 34.9 MiB
    #: when each model's memo kept up to 256 streams for the whole run,
    #: and at 4.7 MiB with a memo that carries one fill chunk.
    PEAK_BOUND_MIB = 8.0

    def test_production_shape_peak(self, context, monkeypatch):
        """``evaluate_montecarlo`` over CoMD, Sort and LUD (280 stream
        keys) at 32 seeds with Harmonia, sweep surfaces already cached:
        the tracemalloc peak stays under the bound, and no model's memo
        ever holds more than ``MEMO_SIZE`` streams."""
        apps = [context.application(name) for name in ("CoMD", "Sort",
                                                        "LUD")]
        assert len({(spec, iteration) for app in apps
                    for iteration, _, spec in app.launches()}) == 280
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        policies = [context.harmonia_policy()]
        harness.evaluate_montecarlo(apps, policies, seeds=1)  # warm caches
        sizes = []
        store = LaunchKeyedNoise._store

        def recording_store(self, *args, **kwargs):
            entries = store(self, *args, **kwargs)
            sizes.append(len(self._memo))
            return entries

        monkeypatch.setattr(LaunchKeyedNoise, "_store", recording_store)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            summary = harness.evaluate_montecarlo(apps, policies, seeds=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(summary.comparisons) == len(apps)
        assert len(sizes) > 0 and max(sizes) <= noise.MEMO_SIZE
        assert (peak - before) / 2**20 <= self.PEAK_BOUND_MIB


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
