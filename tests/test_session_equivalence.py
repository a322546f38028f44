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
from repro.errors import AnalysisError
from repro.platform.hd7970 import HardwarePlatform, make_hd7970_platform
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.runtime.simulator import ApplicationRunner
from repro.sensitivity.binning import SensitivityBins
from repro.telemetry.export import InMemorySink, JsonlSink
from repro.telemetry.handle import Telemetry


def _variant_policy(context) -> HarmoniaPolicy:
    """A retuned Harmonia variant: different bins, EWMA, phase threshold
    and FG pacing — a lane beside the stock policy must keep its own
    parameters and state."""
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

#: The policies ``repro run`` offers, built on a telemetry handle where
#: the policy takes one.
TRACED_BUILDERS = (
    ("baseline", lambda ctx, tel: ctx.baseline_policy()),
    ("cg-only", lambda ctx, tel: ctx.cg_only_policy(telemetry=tel)),
    ("harmonia", lambda ctx, tel: ctx.harmonia_policy(telemetry=tel)),
    ("dvfs-only", lambda ctx, tel: ctx.dvfs_only_policy(telemetry=tel)),
    ("oracle", lambda ctx, tel: ctx.oracle_policy()),
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
    assert scalar.controller_stats == batched.controller_stats
    assert len(scalar.trace.records) == len(batched.trace.records)
    for expected, actual in zip(scalar.trace.records, batched.trace.records):
        assert expected.iteration == actual.iteration
        assert expected.kernel_name == actual.kernel_name
        assert expected.result == actual.result


def _assert_policy_state_equal(app, scalar_policy, batched_policy):
    """Post-run policy internals must match: the engine leaves exactly
    the state a scalar run leaves behind."""
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
        """Monte Carlo shape: one noisy platform per seed, one app, the
        stock policy and a variant on every platform."""
        [app] = _apps(context, ("miniFE",))
        platforms = [make_hd7970_platform(noise_std_fraction=0.05, seed=s)
                     for s in range(5)]
        builders = (lambda ctx: ctx.harmonia_policy(), _variant_policy)
        lanes = [(platform, build) for platform in platforms
                 for build in builders]
        outcomes = BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=build(context),
                        platform=platform)
            for platform, build in lanes
        ])
        assert len(outcomes) == 10
        for (platform, build), outcome in zip(lanes, outcomes):
            scalar = ApplicationRunner(platform).run(app, build(context))
            _assert_runs_equal(scalar, outcome)

    def test_every_lane_steps_its_own_observe(self, context):
        """The engine observes every launch through the policy's own
        ``observe``, once per lane per launch, for the Harmonia family
        too."""
        [app] = _apps(context, ("Sort",))
        policies = [context.cg_only_policy(), context.harmonia_policy(),
                    context.dvfs_only_policy()]
        calls = [0] * len(policies)
        for slot, policy in enumerate(policies):
            def counted(launch, result, _slot=slot,
                        _observe=policy.observe):
                calls[_slot] += 1
                _observe(launch, result)
            policy.observe = counted
        BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=policy)
            for policy in policies
        ])
        assert calls == [app.total_launches()] * len(policies)

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
    """Lane shapes that take no scalar fallback: a traced runner and a
    traced policy stay on the engine; a shared policy instance is
    refused."""

    def test_duplicate_policy_instance_rejected(self, context):
        [app] = _apps(context, ("Sort",))
        shared = context.harmonia_policy()
        engine = BatchSessionRunner(context.platform)
        with pytest.raises(AnalysisError, match="two lanes"):
            engine.run_sessions([
                SessionSpec(application=app, policy=shared),
                SessionSpec(application=app, policy=shared),
            ])
        # One instance across different applications runs them in turn,
        # each from a reset, like back-to-back oracle runs.
        other = _apps(context, ("MaxFlops",))[0]
        first, second = engine.run_sessions([
            SessionSpec(application=app, policy=shared),
            SessionSpec(application=other, policy=shared),
        ])
        _assert_runs_equal(ApplicationRunner(context.platform).run(
            app, context.harmonia_policy()), first)
        _assert_runs_equal(ApplicationRunner(context.platform).run(
            other, context.harmonia_policy()), second)

    def test_telemetry_enabled_runner_goes_scalar(self, context):
        """A traced runner steps the lanes itself and stays exact."""
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
        """A policy with live telemetry steps through the engine like an
        untraced one and stays exact."""
        [app] = _apps(context, ("Graph500",))
        telemetry = Telemetry()
        policy = context.harmonia_policy(telemetry=telemetry)
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy(telemetry=Telemetry()))
        [batched] = BatchSessionRunner(context.platform).run_sessions(
            [SessionSpec(application=app, policy=policy)]
        )
        _assert_runs_equal(scalar, batched)


def _traced_run(runner_type, context, app, build, path):
    """One run whose runner and policy share a handle with a JSONL sink,
    the way ``repro run --trace`` wires them: (trace bytes, metrics
    snapshot, result)."""
    sink = JsonlSink(path)
    telemetry = Telemetry(sink=sink)
    result = runner_type(context.platform, telemetry).run(
        app, build(context, telemetry))
    sink.close()
    return path.read_bytes(), telemetry.metrics.as_dict(), result


def _records(sink: InMemorySink):
    return [event.to_record() for event in sink.events]


class TestTracedEquivalence:
    """A traced engine run writes the oracle's events and metrics."""

    @pytest.mark.parametrize(
        "build", [b for _, b in TRACED_BUILDERS],
        ids=[name for name, _ in TRACED_BUILDERS])
    def test_one_lane_trace_and_metrics_match_oracle(self, context, build,
                                                     tmp_path):
        for app in _apps(context):
            oracle = _traced_run(ApplicationRunner, context, app, build,
                                 tmp_path / f"{app.name}.oracle.jsonl")
            engine = _traced_run(BatchSessionRunner, context, app, build,
                                 tmp_path / f"{app.name}.engine.jsonl")
            assert oracle[0]  # every run emits its launches
            assert engine[0] == oracle[0]
            assert engine[1] == oracle[1]
            _assert_runs_equal(oracle[2], engine[2])

    def test_multi_lane_streams_match_oracle_lanes(self, context):
        """Per-policy handles carry each lane's decision stream; the
        runner's handle carries every lane's launches, tick by tick."""
        platform = context.platform
        for app in _apps(context, ("Graph500", "Sort")):
            runner_sink = InMemorySink()
            lane_sinks = [InMemorySink() for _ in TRACED_BUILDERS]
            BatchSessionRunner(
                platform, Telemetry(sink=runner_sink)
            ).run_sessions([
                SessionSpec(application=app,
                            policy=build(context, Telemetry(sink=sink)))
                for (_, build), sink in zip(TRACED_BUILDERS, lane_sinks)
            ])
            oracle_launches = []
            for (_, build), lane_sink in zip(TRACED_BUILDERS, lane_sinks):
                launches, decisions = InMemorySink(), InMemorySink()
                ApplicationRunner(platform, Telemetry(sink=launches)).run(
                    app, build(context, Telemetry(sink=decisions)))
                assert _records(lane_sink) == _records(decisions)
                oracle_launches.append(_records(launches))
            interleaved = [record for tick in zip(*oracle_launches)
                           for record in tick]
            assert len(interleaved) == \
                app.total_launches() * len(TRACED_BUILDERS)
            assert _records(runner_sink) == interleaved


class TestHarnessParity:
    """The harness entry points against scalar references built with
    ``ApplicationRunner.run`` directly."""

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

    def test_evaluate_records_each_applications_controller_stats(
            self, context):
        """One Harmonia instance serves every application of a serial
        evaluation, so its counters end up holding the last application
        only; each run records its own at the end of that run."""
        from repro.analysis.evaluation import EvaluationHarness
        apps = _apps(context, ("Sort", "Stencil", "miniFE"))
        shared = context.harmonia_policy()
        summary = EvaluationHarness(
            context.platform, context.baseline_policy()
        ).evaluate(apps, [shared])
        for app in apps:
            recorded = summary.runs[app.name]["harmonia"].controller_stats
            fresh = context.harmonia_policy()
            oracle = ApplicationRunner(context.platform).run(app, fresh)
            assert recorded == oracle.controller_stats
            assert recorded == tuple(fresh.stats().items())
            assert {kernel for kernel, _ in recorded} == {
                kernel.name for kernel in app.kernels}
            assert any(stats.cg_actions or stats.fg_actions
                       for _, stats in recorded)
        last = summary.runs["miniFE"]["harmonia"].controller_stats
        assert tuple(shared.stats().items()) == last
        assert summary.runs["Sort"]["baseline"].controller_stats == ()

    def test_evaluate_montecarlo_batched_matches_scalar(self, context):
        import numpy as np
        from repro.analysis.evaluation import EvaluationHarness
        from repro.runtime.montecarlo import MonteCarloEngine
        apps = _apps(context, ("Sort", "Graph500"))
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        batched = harness.evaluate_montecarlo(
            apps, [context.harmonia_policy()], seeds=4,
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
