"""Unit tests for :mod:`repro.power.thermal`."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.baseline import BaselinePolicy
from repro.core.policy import LaunchContext
from repro.errors import CalibrationError, PolicyError
from repro.power.thermal import ThermalGovernor, ThermalModel, ThermalState
from repro.units import GHZ, MHZ
from repro.workloads.registry import get_kernel

MODEL = ThermalModel(resistance=0.5, capacitance=10.0, ambient=35.0,
                     t_max=95.0)


class TestThermalModel:
    def test_steady_state(self):
        assert MODEL.steady_state(100.0) == pytest.approx(85.0)

    def test_sustainable_power(self):
        assert MODEL.sustainable_power() == pytest.approx(120.0)
        assert MODEL.steady_state(MODEL.sustainable_power()) == \
            pytest.approx(MODEL.t_max)

    def test_time_constant(self):
        assert MODEL.time_constant == pytest.approx(5.0)

    def test_advance_exact_exponential(self):
        # One time constant covers 1 - 1/e of the gap.
        t = MODEL.advance(35.0, 100.0, MODEL.time_constant)
        expected = 85.0 + (35.0 - 85.0) * math.exp(-1.0)
        assert t == pytest.approx(expected)

    def test_advance_converges(self):
        assert MODEL.advance(35.0, 100.0, 100 * MODEL.time_constant) == \
            pytest.approx(85.0, abs=1e-6)

    def test_zero_dt_is_identity(self):
        assert MODEL.advance(50.0, 100.0, 0.0) == pytest.approx(50.0)

    def test_cooling(self):
        assert MODEL.advance(90.0, 0.0, 1.0) < 90.0

    @given(
        t0=st.floats(min_value=35.0, max_value=120.0),
        power=st.floats(min_value=0.0, max_value=300.0),
        dt=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_temperature_bounded_by_endpoints(self, t0, power, dt):
        target = MODEL.steady_state(power)
        result = MODEL.advance(t0, power, dt)
        lo, hi = min(t0, target), max(t0, target)
        assert lo - 1e-9 <= result <= hi + 1e-9

    @pytest.mark.parametrize("kwargs", [
        dict(resistance=0.0, capacitance=1.0),
        dict(resistance=1.0, capacitance=0.0),
        dict(resistance=1.0, capacitance=1.0, ambient=100.0, t_max=95.0),
    ])
    def test_validation(self, kwargs):
        defaults = dict(resistance=0.5, capacitance=10.0, ambient=35.0,
                        t_max=95.0)
        defaults.update(kwargs)
        with pytest.raises(CalibrationError):
            ThermalModel(**defaults)


class TestThermalState:
    def test_starts_at_ambient(self):
        state = ThermalState(MODEL)
        assert state.temperature == pytest.approx(35.0)
        assert state.headroom == pytest.approx(60.0)

    def test_apply_heats(self):
        state = ThermalState(MODEL)
        state.apply(200.0, 5.0)
        assert state.temperature > 35.0
        assert state.peak_temperature == pytest.approx(state.temperature)

    def test_over_cap_accounting(self):
        state = ThermalState(MODEL, initial_temperature=100.0)
        state.apply(300.0, 1.0)  # stays hot
        state.apply(0.0, 100.0)  # cools fully
        assert 0.0 < state.fraction_above_cap() < 1.0

    def test_peak_survives_cooling(self):
        state = ThermalState(MODEL, initial_temperature=90.0)
        state.apply(0.0, 50.0)
        assert state.peak_temperature == pytest.approx(90.0)
        assert state.temperature < 40.0


class TestThermalGovernor:
    def _governor(self, space, margin=5.0, initial=None):
        governor = ThermalGovernor(BaselinePolicy(space), space, MODEL,
                                   margin=margin)
        if initial is not None:
            governor.thermal_state.apply(
                (initial - MODEL.ambient) / MODEL.resistance,
                1000 * MODEL.time_constant,
            )
        return governor

    def _context(self):
        spec = get_kernel("MaxFlops.MaxFlops").base
        return LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)

    def test_cool_card_passes_through(self, space):
        governor = self._governor(space)
        assert governor.config_for(self._context()) == space.max_config()

    def test_hot_card_throttles_frequency(self, space):
        governor = self._governor(space, initial=94.0)
        config = governor.config_for(self._context())
        assert config.f_cu < 1 * GHZ
        assert config.n_cu == 32  # only the compute clock is shed

    def test_hotter_throttles_harder(self, space):
        warm = self._governor(space, initial=92.0)
        hot = self._governor(space, initial=101.0)
        assert hot.config_for(self._context()).f_cu < \
            warm.config_for(self._context()).f_cu

    def test_observe_integrates_heat(self, space, platform):
        governor = self._governor(space)
        ctx = self._context()
        config = governor.config_for(ctx)
        result = platform.run_kernel(ctx.spec, config)
        before = governor.thermal_state.temperature
        governor.observe(ctx, result)
        assert governor.thermal_state.temperature > before

    def test_name_tagged(self, space):
        assert self._governor(space).name == "baseline+thermal"

    def test_reset_keeps_junction_heat(self, space, platform):
        """Heat is card state, not policy history: reset clears only the
        inner policy, so a pre-charged governor starts its run hot."""
        inner = BaselinePolicy(space)
        governor = ThermalGovernor(inner, space, MODEL)
        governor.thermal_state.apply(
            (100.0 - MODEL.ambient) / MODEL.resistance,
            1000 * MODEL.time_constant,
        )
        ctx = self._context()
        governor.observe(ctx, platform.run_kernel(ctx.spec,
                                                  space.max_config()))
        assert inner.history_for(ctx.kernel_name).last_result is not None
        temperature = governor.thermal_state.temperature
        governor.reset()
        assert governor.thermal_state.temperature == temperature > 95.0
        assert inner.history_for(ctx.kernel_name).last_result is None

    def test_negative_margin_rejected(self, space):
        with pytest.raises(PolicyError):
            ThermalGovernor(BaselinePolicy(space), space, MODEL, margin=-1.0)


class TestOverrideDetection:
    def test_harmonia_ignores_overridden_launches(self, context):
        # When an outer governor overrides the requested configuration,
        # Harmonia must not attribute the feedback to its own FG move.
        from repro.core.harmonia import HarmoniaPolicy
        training = context.training
        platform = context.platform
        policy = HarmoniaPolicy(platform.config_space, training.compute,
                                training.bandwidth)
        spec = get_kernel("Stencil.Stencil2D").base
        ctx = LaunchContext(kernel_name=spec.name, iteration=0, spec=spec)
        requested = policy.config_for(ctx)
        overridden = platform.config_space.step_f_cu(requested, -2)
        result = platform.run_kernel(spec, overridden)
        policy.observe(ctx, result)
        # The policy holds its own decision instead of reacting.
        assert policy.config_for(ctx) == requested
        assert policy.control_state(spec.name).fg.inflight is None
