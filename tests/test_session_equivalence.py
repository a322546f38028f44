"""Differential suite: the batched session engine vs the scalar loop.

The batched controller engine (:mod:`repro.runtime.session`) promises
**bitwise identity** with :class:`~repro.runtime.simulator.
ApplicationRunner` for every policy, on clean and noisy platforms, for
any lane composition and order. The scalar path is the oracle; every test
here runs both and compares traces, metrics and policy end-state
exactly — no tolerances.
"""

from __future__ import annotations

import pytest

from repro.core.harmonia import HarmoniaPolicy
from repro.platform.hd7970 import HardwarePlatform, make_hd7970_platform
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.runtime.simulator import ApplicationRunner
from repro.sensitivity.binning import SensitivityBins
from repro.telemetry.handle import Telemetry


def _variant_policy(context) -> HarmoniaPolicy:
    """A retuned Harmonia variant: different bins, EWMA, phase threshold
    and FG pacing — exercises the group-signature path (it must never
    share a vector observer with the stock policy)."""
    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space,
        training.compute,
        training.bandwidth,
        bins=SensitivityBins(low_edge=0.25, high_edge=0.65),
        monitor_alpha=0.6,
        phase_threshold=0.05,
        fg_patience=1,
        max_dithering=4,
        policy_name="harmonia-variant",
    )


POLICY_BUILDERS = (
    ("baseline", lambda ctx: ctx.baseline_policy()),
    ("cg-only", lambda ctx: ctx.cg_only_policy()),
    ("harmonia", lambda ctx: ctx.harmonia_policy()),
    ("dvfs-only", lambda ctx: ctx.dvfs_only_policy()),
    ("oracle", lambda ctx: ctx.oracle_policy()),
    ("variant", _variant_policy),
)

#: Phase-rich, iteration-heavy and stress workloads — the schedules that
#: exercise phase restarts, FG convergence and CG jumps hardest.
PROBE_APPS = ("Graph500", "miniFE", "MaxFlops", "Sort")


def _apps(context, names=PROBE_APPS):
    by_name = {app.name: app for app in context.applications}
    return [by_name[name] for name in names]


def _assert_runs_equal(scalar, batched):
    assert scalar.application == batched.application
    assert scalar.policy == batched.policy
    assert scalar.metrics == batched.metrics
    assert len(scalar.trace.records) == len(batched.trace.records)
    for expected, actual in zip(scalar.trace.records, batched.trace.records):
        assert expected.iteration == actual.iteration
        assert expected.kernel_name == actual.kernel_name
        assert expected.result == actual.result


def _assert_policy_state_equal(app, scalar_policy, batched_policy):
    """Post-run policy internals must match: the batched engine's numeric
    hand-back leaves exactly the scalar state behind."""
    if not isinstance(scalar_policy, HarmoniaPolicy):
        return
    assert scalar_policy.stats() == batched_policy.stats()
    seen = set()
    for _, kernel, _ in app.launches():
        if kernel.name in seen:
            continue
        seen.add(kernel.name)
        assert (scalar_policy.monitor.current(kernel.name)
                == batched_policy.monitor.current(kernel.name))


class TestPolicyEquivalence:
    @pytest.mark.parametrize("noisy", (False, True),
                             ids=("clean", "noisy"))
    @pytest.mark.parametrize(
        "build", [b for _, b in POLICY_BUILDERS],
        ids=[name for name, _ in POLICY_BUILDERS])
    def test_bitwise_identity(self, context, build, noisy):
        platform = (make_hd7970_platform(noise_std_fraction=0.05, seed=11)
                    if noisy else context.platform)
        for app in _apps(context):
            scalar_policy = build(context)
            batched_policy = build(context)
            scalar = ApplicationRunner(platform).run(app, scalar_policy)
            [batched] = BatchSessionRunner(platform).run_sessions(
                [SessionSpec(application=app, policy=batched_policy)]
            )
            _assert_runs_equal(scalar, batched)
            _assert_policy_state_equal(app, scalar_policy, batched_policy)

    def test_all_applications_harmonia(self, context):
        platform = context.platform
        for app in context.applications:
            scalar = ApplicationRunner(platform).run(
                app, context.harmonia_policy()
            )
            [batched] = BatchSessionRunner(platform).run(
                app, context.harmonia_policy()
            ),
            _assert_runs_equal(scalar, batched)


class TestLaneComposition:
    def test_mixed_lanes_match_scalar(self, context):
        """All six policies as concurrent lanes of one application."""
        platform = context.platform
        for app in _apps(context, ("Graph500", "Sort")):
            builders = [b for _, b in POLICY_BUILDERS]
            batched_policies = [b(context) for b in builders]
            outcomes = BatchSessionRunner(platform).run_sessions([
                SessionSpec(application=app, policy=policy)
                for policy in batched_policies
            ])
            for build, outcome in zip(builders, outcomes):
                scalar = ApplicationRunner(platform).run(app, build(context))
                _assert_runs_equal(scalar, outcome)

    def test_lane_permutation_invariance(self, context):
        """A lane's result must not depend on its position or peers."""
        platform = context.platform
        [app] = _apps(context, ("Graph500",))
        builders = [b for _, b in POLICY_BUILDERS]
        forward = BatchSessionRunner(platform).run_sessions([
            SessionSpec(application=app, policy=b(context))
            for b in builders
        ])
        backward = BatchSessionRunner(platform).run_sessions([
            SessionSpec(application=app, policy=b(context))
            for b in reversed(builders)
        ])
        for fwd, bwd in zip(forward, reversed(backward)):
            _assert_runs_equal(fwd, bwd)

    def test_per_lane_noisy_platforms(self, context):
        """Monte Carlo shape: one noisy platform per lane, one app."""
        [app] = _apps(context, ("miniFE",))
        platforms = [make_hd7970_platform(noise_std_fraction=0.05, seed=s)
                     for s in range(5)]
        outcomes = BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=context.harmonia_policy(),
                        platform=platform)
            for platform in platforms
        ])
        for platform, outcome in zip(platforms, outcomes):
            scalar = ApplicationRunner(platform).run(
                app, context.harmonia_policy()
            )
            _assert_runs_equal(scalar, outcome)

    def test_multiple_applications_in_one_call(self, context):
        apps = _apps(context, ("Sort", "MaxFlops"))
        sessions = [
            SessionSpec(application=app, policy=context.harmonia_policy())
            for app in apps
        ] + [
            SessionSpec(application=apps[0], policy=context.cg_only_policy())
        ]
        outcomes = BatchSessionRunner(context.platform).run_sessions(sessions)
        scalar0 = ApplicationRunner(context.platform).run(
            apps[0], context.harmonia_policy())
        scalar1 = ApplicationRunner(context.platform).run(
            apps[1], context.harmonia_policy())
        scalar2 = ApplicationRunner(context.platform).run(
            apps[0], context.cg_only_policy())
        _assert_runs_equal(scalar0, outcomes[0])
        _assert_runs_equal(scalar1, outcomes[1])
        _assert_runs_equal(scalar2, outcomes[2])

    def test_platform_subclass_batches_exactly(self, context):
        """A platform subclass steps through the batched engine like
        its base class and stays exact."""
        [app] = _apps(context, ("Sort",))

        class _GovernedPlatform(HardwarePlatform):
            pass

        governed = make_hd7970_platform()
        governed.__class__ = _GovernedPlatform
        scalar = ApplicationRunner(governed).run(
            app, context.harmonia_policy())
        [batched] = BatchSessionRunner(governed).run_sessions(
            [SessionSpec(application=app, policy=context.harmonia_policy())]
        )
        _assert_runs_equal(scalar, batched)


class TestScalarFallbacks:
    """Lanes the engine cannot prove equivalent must still be exact —
    they take the scalar path and the caller can't tell the difference."""

    def test_duplicate_policy_instance_goes_scalar(self, context):
        [app] = _apps(context, ("Sort",))
        shared = context.harmonia_policy()
        outcomes = BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=shared),
            SessionSpec(application=app, policy=shared),
        ])
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy())
        _assert_runs_equal(scalar, outcomes[0])
        _assert_runs_equal(scalar, outcomes[1])

    def test_reset_policy_false_goes_scalar(self, context):
        [app] = _apps(context, ("Sort",))
        scalar_policy = context.harmonia_policy()
        batched_policy = context.harmonia_policy()
        runner = ApplicationRunner(context.platform)
        runner.run(app, scalar_policy)
        scalar = runner.run(app, scalar_policy, reset_policy=False)
        engine = BatchSessionRunner(context.platform)
        engine.run(app, batched_policy)
        [batched] = engine.run_sessions(
            [SessionSpec(application=app, policy=batched_policy)],
            reset_policy=False,
        )
        _assert_runs_equal(scalar, batched)

    def test_telemetry_enabled_runner_goes_scalar(self, context):
        [app] = _apps(context, ("Sort",))
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy())
        [batched] = BatchSessionRunner(
            context.platform, Telemetry()
        ).run_sessions(
            [SessionSpec(application=app, policy=context.harmonia_policy())]
        )
        _assert_runs_equal(scalar, batched)

    def test_telemetry_enabled_policy_goes_generic(self, context):
        """A policy with live telemetry is not fast-path eligible; it
        still batches at the platform layer and stays exact."""
        [app] = _apps(context, ("Graph500",))
        telemetry = Telemetry()
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy(telemetry=Telemetry()))
        [batched] = BatchSessionRunner(context.platform).run_sessions(
            [SessionSpec(application=app,
                         policy=context.harmonia_policy(telemetry=telemetry))]
        )
        _assert_runs_equal(scalar, batched)


class TestHarnessParity:
    """The harness entry points against scalar references built with
    ``ApplicationRunner.run`` directly."""

    def test_run_matrix_batched_matches_scalar(self, context):
        apps = _apps(context, ("Sort", "Graph500"))
        runner = ApplicationRunner(context.platform)
        batched = runner.run_matrix(
            apps,
            policies=[context.harmonia_policy(), context.cg_only_policy()],
        )
        assert list(batched) == [app.name for app in apps]
        for app in apps:
            policies = [context.harmonia_policy(), context.cg_only_policy()]
            assert list(batched[app.name]) == [p.name for p in policies]
            for policy in policies:
                _assert_runs_equal(runner.run(app, policy),
                                   batched[app.name][policy.name])

    def test_evaluate_batched_matches_scalar(self, context):
        from repro.analysis.evaluation import (
            ApplicationComparison, EvaluationHarness,
        )
        apps = _apps(context, ("Sort", "miniFE"))
        batched = EvaluationHarness(
            context.platform, context.baseline_policy()
        ).evaluate(apps, [context.harmonia_policy()])
        runner = ApplicationRunner(context.platform)
        scalar = []
        for app in apps:
            base = runner.run(app, context.baseline_policy())
            candidate = runner.run(app, context.harmonia_policy())
            scalar.append(ApplicationComparison(
                application=app.name, policy=candidate.policy,
                baseline=base.metrics, candidate=candidate.metrics,
            ))
        assert batched.comparisons == tuple(scalar)

    def test_evaluate_montecarlo_batched_matches_scalar(self, context):
        import numpy as np
        from repro.analysis.evaluation import EvaluationHarness
        from repro.runtime.montecarlo import MonteCarloEngine
        apps = _apps(context, ("Sort", "Graph500"))
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        batched = harness.evaluate_montecarlo(
            apps, context.baseline_policy, [context.harmonia_policy],
            seeds=4,
        )
        engine = MonteCarloEngine(context.platform, 0.05, 4)
        runner = ApplicationRunner(context.platform)

        def scalar_rollout(app, policy):
            return engine.rollout(app, policy,
                                  reference=runner.run(app, policy))

        assert len(batched.comparisons) == len(apps)
        for app, comparison in zip(apps, batched.comparisons):
            assert comparison.application == app.name
            scalar = {
                "baseline": scalar_rollout(app, context.baseline_policy()),
                "candidate": scalar_rollout(app, context.harmonia_policy()),
            }
            for side, run in scalar.items():
                for field in ("time_samples", "energy_samples",
                              "avg_power_samples", "ed2_samples"):
                    np.testing.assert_array_equal(
                        getattr(run, field),
                        getattr(getattr(comparison, side), field),
                    )
