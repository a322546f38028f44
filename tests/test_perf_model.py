"""Unit and property tests for :mod:`repro.perf.model`.

The performance model is the substrate's heart; these tests pin the
first-order behaviours every paper figure depends on.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec
from repro.platform.hd7970 import HardwarePlatform
from repro.platform.sweepcache import SweepCache
from repro.units import GHZ, MHZ
from tests.kernel_strategies import CALIBRATIONS, fuzz_specs


def compute_bound_spec(**overrides):
    defaults = dict(
        name="CB.Kernel",
        total_workitems=1 << 18,
        workgroup_size=256,
        valu_insts_per_item=4000.0,
        vfetch_insts_per_item=2.0,
        vwrite_insts_per_item=1.0,
        l2_hit_rate=0.9,
        outstanding_per_wave=1.0,
    )
    defaults.update(overrides)
    return KernelSpec(**defaults)


def memory_bound_spec(**overrides):
    defaults = dict(
        name="MB.Kernel",
        total_workitems=1 << 20,
        workgroup_size=256,
        valu_insts_per_item=30.0,
        vfetch_insts_per_item=8.0,
        vwrite_insts_per_item=4.0,
        bytes_per_fetch=16.0,
        bytes_per_write=16.0,
        l2_hit_rate=0.05,
        outstanding_per_wave=4.0,
    )
    defaults.update(overrides)
    return KernelSpec(**defaults)


@pytest.fixture(scope="module")
def model(platform):
    return platform.performance_model


BASE = HardwareConfig(32, 1 * GHZ, 1375 * MHZ)


class TestComputeScaling:
    def test_time_halves_with_double_frequency(self, model):
        slow = model.run(compute_bound_spec(), BASE.replace(f_cu=500 * MHZ))
        fast = model.run(compute_bound_spec(), BASE)
        assert slow.time / fast.time == pytest.approx(2.0, rel=0.05)

    def test_time_scales_with_cu_count(self, model):
        few = model.run(compute_bound_spec(), BASE.replace(n_cu=8))
        many = model.run(compute_bound_spec(), BASE)
        assert few.time / many.time == pytest.approx(4.0, rel=0.1)

    def test_compute_bound_flag(self, model):
        out = model.run(compute_bound_spec(), BASE)
        assert out.breakdown.compute_bound

    def test_divergence_slows_execution(self, model):
        coherent = model.run(compute_bound_spec(), BASE)
        divergent = model.run(
            compute_bound_spec(branch_divergence=0.5), BASE
        )
        assert divergent.time == pytest.approx(2 * coherent.time, rel=0.1)

    def test_memory_frequency_irrelevant(self, model):
        fast_mem = model.run(compute_bound_spec(), BASE)
        slow_mem = model.run(compute_bound_spec(),
                             BASE.replace(f_mem=475 * MHZ))
        assert slow_mem.time == pytest.approx(fast_mem.time, rel=0.02)


class TestMemoryScaling:
    def test_time_tracks_bandwidth(self, model):
        fast = model.run(memory_bound_spec(), BASE)
        slow = model.run(memory_bound_spec(), BASE.replace(f_mem=475 * MHZ))
        assert slow.time / fast.time == pytest.approx(1375 / 475, rel=0.15)

    def test_saturation_beyond_knee(self, model):
        # Figure 3b: adding compute beyond the knee buys nothing.
        some = model.run(memory_bound_spec(), BASE.replace(n_cu=16))
        more = model.run(memory_bound_spec(), BASE)
        assert more.time == pytest.approx(some.time, rel=0.05)

    def test_memory_bound_flag(self, model):
        out = model.run(memory_bound_spec(), BASE)
        assert not out.breakdown.compute_bound

    def test_clock_crossing_throttles_at_low_compute_clock(self, model):
        # Figure 9: a miss-heavy kernel loses bandwidth when the compute
        # clock drops below the crossing's saturation point.
        fast = model.run(memory_bound_spec(), BASE)
        slow = model.run(memory_bound_spec(), BASE.replace(f_cu=300 * MHZ))
        assert slow.bandwidth_limit == "crossing"
        assert slow.achieved_bandwidth < 0.5 * fast.achieved_bandwidth

    def test_thrash_recovery_speeds_up_fewer_cus(self, model):
        # The BPT effect: fewer CUs -> better hit rate -> faster.
        spec = memory_bound_spec(l2_hit_rate=0.3, l2_thrash_sensitivity=0.3,
                                 valu_insts_per_item=120.0)
        full = model.run(spec, BASE)
        gated = model.run(spec, BASE.replace(n_cu=16))
        assert gated.time < full.time


class TestCounterSynthesis:
    def test_compute_bound_counters(self, model):
        out = model.run(compute_bound_spec(), BASE)
        assert out.counters.valu_busy > 90.0
        assert out.counters.ic_activity < 0.2

    def test_memory_bound_counters(self, model):
        out = model.run(memory_bound_spec(), BASE)
        assert out.counters.mem_unit_busy > 90.0
        assert out.counters.ic_activity > 0.5
        assert out.counters.mem_unit_stalled > 0.0

    def test_utilization_reflects_divergence(self, model):
        out = model.run(compute_bound_spec(branch_divergence=0.4), BASE)
        assert out.counters.valu_utilization == pytest.approx(60.0)

    def test_register_normalization(self, model):
        out = model.run(compute_bound_spec(vgprs_per_workitem=64,
                                           sgprs_per_wave=51), BASE)
        assert out.counters.norm_vgpr == pytest.approx(64 / 256)
        assert out.counters.norm_sgpr == pytest.approx(51 / 102)

    def test_instruction_totals(self, model):
        spec = compute_bound_spec()
        out = model.run(spec, BASE)
        waves = spec.total_workitems / 64
        expected = waves * spec.valu_insts_per_item * 64 / 1e6
        assert out.counters.valu_insts_millions == pytest.approx(expected)

    def test_instruction_totals_config_invariant(self, model):
        # The PhaseDetector depends on this invariance.
        spec = memory_bound_spec()
        a = model.run(spec, BASE)
        b = model.run(spec, HardwareConfig(4, 300 * MHZ, 475 * MHZ))
        assert a.counters.valu_insts_millions == \
            pytest.approx(b.counters.valu_insts_millions)
        assert a.counters.norm_vgpr == pytest.approx(b.counters.norm_vgpr)


class TestInvariants:
    @settings(deadline=None, max_examples=60)
    @given(
        n_cu=st.sampled_from([4, 8, 16, 24, 32]),
        f_cu=st.sampled_from([300, 500, 700, 1000]),
        f_mem=st.sampled_from([475, 775, 1075, 1375]),
        valu=st.floats(min_value=1.0, max_value=5000.0),
        fetch=st.floats(min_value=0.0, max_value=20.0),
        hit=st.floats(min_value=0.0, max_value=0.95),
        div=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_time_positive_and_counters_valid(self, n_cu, f_cu, f_mem,
                                              valu, fetch, hit, div):
        spec = KernelSpec(
            name="Prop.Kernel",
            total_workitems=1 << 16,
            workgroup_size=256,
            valu_insts_per_item=valu,
            vfetch_insts_per_item=fetch,
            vwrite_insts_per_item=1.0,
            l2_hit_rate=hit,
            branch_divergence=div,
        )
        config = HardwareConfig(n_cu, f_cu * MHZ, f_mem * MHZ)
        from repro.platform.hd7970 import make_hd7970_platform
        out = make_hd7970_platform().performance_model.run(spec, config)
        assert out.time > 0
        assert 0 <= out.counters.valu_busy <= 100
        assert 0 <= out.counters.mem_unit_busy <= 100
        assert 0 <= out.counters.ic_activity <= 1
        assert out.achieved_bandwidth >= 0


#: One platform per calibration of ``tests/kernel_strategies.py``.
_DIRECTION_PLATFORMS = {name: HardwarePlatform(calibration=calibration)
                        for name, calibration in CALIBRATIONS.items()}


#: Relative slack for rounding in the direction checks.
_ROUNDING = 1e-9


def _grid_cube(batch, values):
    """``values`` (one per grid config) as an ``(n_cu, f_cu, f_mem)``
    cube, each axis in ascending order."""
    axes = [sorted({getattr(config, knob) for config in batch.configs})
            for knob in ("n_cu", "f_cu", "f_mem")]
    cube = np.full([len(axis) for axis in axes], np.nan)
    for config, value in zip(batch.configs, values):
        cube[axes[0].index(config.n_cu), axes[1].index(config.f_cu),
             axes[2].index(config.f_mem)] = value
    assert not np.isnan(cube).any(), "the grid is not a full product"
    return cube


def _steps(cube, axis):
    """Every grid line along ``axis`` as (each value, the next one)."""
    lines = np.moveaxis(cube, axis, -1)
    return lines[..., :-1], lines[..., 1:]


class TestPhysicalDirections:
    """The model's direction in each clock, on every grid line of
    generated kernels on both calibrations: a faster compute clock never
    makes a launch slower nor lowers GPU power, and a faster memory
    clock never makes a launch slower nor lowers memory power (the
    paper's Figures 4 and 5).

    CU count is left out on purpose: it is not such a direction. With
    fewer CUs a thrash-sensitive kernel hits the L2 more often, so its
    memory time can fall as CUs are gated, and time and GPU power can
    move either way with CU count (the effect that
    ``TestMemoryScaling::test_thrash_recovery_speeds_up_fewer_cus``
    pins)."""

    @settings(deadline=None, max_examples=60)
    @given(spec=fuzz_specs())
    @example(spec=compute_bound_spec())
    @example(spec=memory_bound_spec())
    def test_directions_on_every_grid_line(self, spec):
        for name, platform in _DIRECTION_PLATFORMS.items():
            batch = platform.grid_sweep(spec, cache=SweepCache())
            time = _grid_cube(batch, batch.time)
            for knob, axis in (("f_cu", 1), ("f_mem", 2)):
                before, after = _steps(time, axis)
                assert np.all(after <= before * (1 + _ROUNDING)), \
                    f"{name}: time rose with {knob}"
            for power, knob, axis in (("gpu_power", "f_cu", 1),
                                      ("memory_power", "f_mem", 2)):
                before, after = _steps(
                    _grid_cube(batch, getattr(batch, power)), axis)
                assert np.all(after >= before * (1 - _ROUNDING)), \
                    f"{name}: {power} fell with {knob}"
