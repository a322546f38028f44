"""Unit tests for :mod:`repro.core.harmonia` (Algorithm 1)."""

import pytest

from repro.core.harmonia import HarmoniaPolicy
from repro.core.policy import LaunchContext
from repro.runtime.simulator import ApplicationRunner
from repro.units import GHZ, MHZ
from repro.workloads.registry import get_application, get_kernel


def make_policy(context, **kwargs):
    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space, training.compute, training.bandwidth,
        **kwargs,
    )


class TestFirstLaunch:
    def test_inherits_boost(self, context):
        policy = make_policy(context)
        spec = get_kernel("MaxFlops.MaxFlops").base
        ctx = LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)
        assert policy.config_for(ctx) == \
            context.platform.config_space.max_config()

    def test_name_defaults(self, context):
        assert make_policy(context).name == "harmonia"
        assert make_policy(context, enable_fg=False).name == "cg-only"
        assert make_policy(context, policy_name="custom").name == "custom"


class TestCgJumpOnFirstObservation:
    def test_maxflops_drops_memory(self, context):
        # First observation -> first phase -> CG jump; MaxFlops's LOW
        # bandwidth bin sends the bus to its minimum.
        policy = make_policy(context)
        platform = context.platform
        spec = get_kernel("MaxFlops.MaxFlops").base
        ctx = LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)
        result = platform.run_kernel(spec, policy.config_for(ctx))
        policy.observe(ctx, result)
        nxt = policy.config_for(
            LaunchContext(kernel_name=spec.name, iteration=1, spec=spec)
        )
        assert nxt.f_mem == pytest.approx(475 * MHZ)
        assert nxt.n_cu == 32
        assert policy.control_state(spec.name).cg_actions == 1

    def test_devicememory_keeps_bandwidth(self, context):
        policy = make_policy(context)
        platform = context.platform
        spec = get_kernel("DeviceMemory.DeviceMemory").base
        ctx = LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)
        result = platform.run_kernel(spec, policy.config_for(ctx))
        policy.observe(ctx, result)
        nxt = policy.config_for(
            LaunchContext(kernel_name=spec.name, iteration=1, spec=spec)
        )
        assert nxt.f_mem == pytest.approx(1375 * MHZ)


class TestPhaseTracking:
    def test_stable_kernel_has_one_phase(self, context):
        app = get_application("Stencil")
        policy = make_policy(context)
        ApplicationRunner(context.platform).run(app, policy)
        state = policy.control_state("Stencil.Stencil2D")
        assert state.phase_changes == 1
        assert state.cg_actions == 1
        assert state.fg_actions > 10

    def test_phased_kernel_re_triggers_cg(self, context):
        app = get_application("Graph500")
        policy = make_policy(context)
        ApplicationRunner(context.platform).run(app, policy)
        state = policy.control_state("Graph500.BottomStepUp")
        # The BFS levels form three behavioural groups (the instruction
        # *mix* shifts even though the totals change every iteration).
        assert state.phase_changes >= 3
        assert state.cg_actions == state.phase_changes

    def test_cg_only_never_runs_fg(self, context):
        app = get_application("Stencil")
        policy = make_policy(context, enable_fg=False)
        ApplicationRunner(context.platform).run(app, policy)
        state = policy.control_state("Stencil.Stencil2D")
        assert state.fg_actions == 0


class TestReset:
    def test_reset_forgets_everything(self, context):
        app = get_application("Sort")
        policy = make_policy(context)
        ApplicationRunner(context.platform).run(app, policy)
        policy.reset()
        state = policy.control_state("Sort.BottomScan")
        assert state.cg_actions == 0
        spec = get_kernel("Sort.BottomScan").base
        ctx = LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)
        assert policy.config_for(ctx) == \
            context.platform.config_space.max_config()


class TestTunableRestriction:
    def test_dvfs_only_moves_frequency_only(self, context):
        from repro.core.variants import ComputeDvfsOnlyPolicy
        training = context.training
        policy = ComputeDvfsOnlyPolicy(
            context.platform.config_space, training.compute,
            training.bandwidth,
        )
        app = get_application("CoMD")
        run = ApplicationRunner(context.platform).run(app, policy)
        for record in run.trace.records:
            assert record.config.n_cu == 32
            assert record.config.f_mem == pytest.approx(1375 * MHZ)

    def test_dvfs_only_name(self, context):
        from repro.core.variants import ComputeDvfsOnlyPolicy
        training = context.training
        policy = ComputeDvfsOnlyPolicy(
            context.platform.config_space, training.compute,
            training.bandwidth,
        )
        assert policy.name == "dvfs-only"
