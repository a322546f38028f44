"""Unit tests for :mod:`repro.core.capping`."""

import pytest

from repro.core.capping import PowerCapPolicy
from repro.core.policy import LaunchContext
from repro.errors import PolicyError
from repro.runtime.simulator import ApplicationRunner
from repro.units import GHZ, MHZ
from repro.workloads.registry import get_application, get_kernel

SPEC = get_kernel("MaxFlops.MaxFlops").base


def ctx(iteration=0):
    return LaunchContext(kernel_name=SPEC.name, iteration=iteration,
                         spec=SPEC)


class TestCapMechanics:
    def test_starts_at_maximum(self, space):
        policy = PowerCapPolicy(space, budget_watts=150.0)
        assert policy.config_for(ctx()) == space.max_config()

    def test_throttles_frequency_first(self, space, platform):
        policy = PowerCapPolicy(space, budget_watts=100.0)
        result = platform.run_kernel(SPEC, policy.config_for(ctx()))
        assert result.power.card > 100.0
        policy.observe(ctx(), result)
        throttled = policy.config_for(ctx(1))
        assert throttled.f_cu < 1 * GHZ
        assert throttled.n_cu == 32
        assert throttled.f_mem == pytest.approx(1375 * MHZ)

    def test_settles_under_budget(self, space, platform):
        policy = PowerCapPolicy(space, budget_watts=120.0)
        config = space.max_config()
        for i in range(30):
            config = policy.config_for(ctx(i))
            result = platform.run_kernel(SPEC, config)
            policy.observe(ctx(i), result)
        # After settling, the EWMA estimate respects the budget band.
        assert policy.power_estimate < 120.0 * 1.05

    def test_recovers_when_under_budget(self, space, platform):
        policy = PowerCapPolicy(space, budget_watts=500.0)
        # Force a throttled starting state, then observe cheap launches.
        policy._config = space.min_config()
        for i in range(40):
            config = policy.config_for(ctx(i))
            result = platform.run_kernel(SPEC, config)
            policy.observe(ctx(i), result)
        # With a generous budget the policy walks back toward maximum.
        final = policy.config_for(ctx(99))
        assert final.f_cu == pytest.approx(1 * GHZ)
        assert final.n_cu == 32

    def test_workload_blind(self, space):
        # The configuration does not depend on which kernel asks.
        policy = PowerCapPolicy(space, budget_watts=150.0)
        other = LaunchContext(
            kernel_name="Sort.BottomScan", iteration=0,
            spec=get_kernel("Sort.BottomScan").base,
        )
        assert policy.config_for(ctx()) == policy.config_for(other)

    def test_reset(self, space, platform):
        policy = PowerCapPolicy(space, budget_watts=100.0)
        result = platform.run_kernel(SPEC, space.max_config())
        policy.observe(ctx(), result)
        policy.reset()
        assert policy.config_for(ctx()) == space.max_config()
        assert policy.power_estimate is None

    def test_name(self, space):
        assert PowerCapPolicy(space, budget_watts=100.0).name == "power-cap"


class TestValidation:
    def test_bad_budget(self, space):
        with pytest.raises(PolicyError):
            PowerCapPolicy(space, budget_watts=0.0)

    def test_bad_alpha(self, space):
        with pytest.raises(PolicyError):
            PowerCapPolicy(space, budget_watts=100.0, alpha=0.0)

    def test_bad_hysteresis(self, space):
        with pytest.raises(PolicyError):
            PowerCapPolicy(space, budget_watts=100.0, hysteresis=1.0)


class TestEndToEnd:
    def test_enforces_budget_on_full_application(self, platform, space):
        app = get_application("CoMD")
        policy = PowerCapPolicy(space, budget_watts=110.0)
        run = ApplicationRunner(platform).run(app, policy)
        assert run.metrics.avg_power < 110.0 * 1.15
