"""Tests for the Pitcairn portability platform."""

import pytest

from repro.gpu.architecture import PITCAIRN
from repro.gpu.config import ConfigSpace
from repro.platform.calibration import pitcairn_calibration
from repro.platform.hd7970 import make_pitcairn_platform
from repro.units import GHZ, MHZ
from repro.workloads.registry import all_kernels, get_kernel


@pytest.fixture(scope="module")
def pitcairn():
    return make_pitcairn_platform()


class TestArchitecture:
    def test_geometry(self):
        assert PITCAIRN.max_compute_units == 20
        assert PITCAIRN.memory_controllers == 4
        assert PITCAIRN.cu_counts() == (4, 8, 12, 16, 20)

    def test_peak_bandwidth(self):
        assert PITCAIRN.peak_memory_bandwidth(1200 * MHZ) == \
            pytest.approx(153.6e9)

    def test_config_space_size(self):
        assert len(ConfigSpace(PITCAIRN)) == 5 * 8 * 6

    def test_same_cu_microarchitecture(self):
        # A GCN CU is a GCN CU: occupancy math carries over unchanged.
        assert PITCAIRN.vgprs_per_simd == 256
        assert PITCAIRN.cycles_per_valu_inst == 4


class TestPlatform:
    def test_baseline_is_its_own_boost(self, pitcairn):
        config = pitcairn.baseline_config()
        assert config.n_cu == 20
        assert config.f_cu == pytest.approx(1 * GHZ)
        assert config.f_mem == pytest.approx(1200 * MHZ)

    def test_every_kernel_runs(self, pitcairn):
        for kernel in all_kernels():
            result = pitcairn.run_kernel(kernel.base,
                                         pitcairn.baseline_config())
            assert result.time > 0
            assert 30.0 < result.power.card < 220.0

    def test_draws_less_than_hd7970(self, pitcairn, platform):
        # Fewer CUs and channels: the smaller part runs the same kernel
        # at lower board power.
        spec = get_kernel("MaxFlops.MaxFlops").base
        small = pitcairn.run_kernel(spec, pitcairn.baseline_config())
        large = platform.run_kernel(spec, platform.baseline_config())
        assert small.power.card < large.power.card

    def test_memory_bound_kernel_slower_on_narrower_bus(self, pitcairn,
                                                        platform):
        spec = get_kernel("DeviceMemory.DeviceMemory").base
        small = pitcairn.run_kernel(spec, pitcairn.baseline_config())
        large = platform.run_kernel(spec, platform.baseline_config())
        # 154 vs 264 GB/s: the streaming kernel pays roughly the ratio.
        assert small.time / large.time == pytest.approx(264 / 153.6,
                                                        rel=0.2)

    def test_calibration_scales_memory_power(self):
        from repro.platform.calibration import default_calibration
        pit = pitcairn_calibration()
        base = default_calibration()
        assert pit.mem_background_slope < base.mem_background_slope
        assert pit.cu_capacitance == base.cu_capacitance
