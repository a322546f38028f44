"""Unit tests for :mod:`repro.analysis.roofline`."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.roofline import (
    Regime,
    classify_kernel,
    ridge_point,
    roofline,
)
from repro.errors import AnalysisError
from repro.gpu.architecture import HD7970
from repro.gpu.config import ConfigSpace
from repro.units import GHZ, MHZ
from repro.workloads.registry import get_kernel

SPACE = ConfigSpace(HD7970)
TOP = SPACE.max_config()


class TestRoofline:
    def test_low_intensity_is_bandwidth_limited(self):
        attainable = roofline(HD7970, TOP, intensity=0.5)
        assert attainable == pytest.approx(0.5 * 264e9)

    def test_high_intensity_is_compute_limited(self):
        attainable = roofline(HD7970, TOP, intensity=100.0)
        assert attainable == pytest.approx(HD7970.peak_flops(32, 1 * GHZ))

    def test_ridge_point_at_max_config(self):
        # 2048 Gops/s over 264 GB/s ~ 7.76 ops/byte.
        assert ridge_point(HD7970, TOP) == pytest.approx(2048 / 264, rel=1e-3)

    def test_ridge_matches_config_space_ops_per_byte(self):
        for config in (TOP, SPACE.min_config()):
            assert ridge_point(HD7970, config) == pytest.approx(
                SPACE.platform_ops_per_byte(config)
            )

    def test_roofline_continuous_at_ridge(self):
        ridge = ridge_point(HD7970, TOP)
        below = roofline(HD7970, TOP, ridge * 0.999)
        above = roofline(HD7970, TOP, ridge * 1.001)
        assert below == pytest.approx(above, rel=0.01)

    def test_rejects_bad_intensity(self):
        with pytest.raises(AnalysisError):
            roofline(HD7970, TOP, 0.0)

    @given(intensity=st.floats(min_value=0.01, max_value=1000.0))
    def test_attainable_never_exceeds_ceilings(self, intensity):
        attainable = roofline(HD7970, TOP, intensity)
        assert attainable <= HD7970.peak_flops(32, 1 * GHZ) + 1e-3
        assert attainable <= intensity * 264e9 + 1e-3


class TestClassification:
    def test_maxflops_is_compute_bound(self):
        point = classify_kernel(HD7970, get_kernel("MaxFlops.MaxFlops").base,
                                TOP)
        assert point.regime is Regime.COMPUTE_BOUND
        assert point.surplus_fraction > 0.9  # bandwidth nearly all surplus

    def test_devicememory_is_memory_bound(self):
        point = classify_kernel(
            HD7970, get_kernel("DeviceMemory.DeviceMemory").base, TOP
        )
        assert point.regime is Regime.MEMORY_BOUND

    def test_regime_depends_on_configuration(self):
        # A kernel can flip regimes across the grid (the Figure 3c point).
        spec = get_kernel("LUD.Internal").base
        at_max_bw = classify_kernel(HD7970, spec, TOP)
        at_min_bw = classify_kernel(
            HD7970, spec, TOP.replace(f_mem=475 * MHZ, f_cu=1 * GHZ)
        )
        assert at_max_bw.ridge < at_min_bw.ridge

    def test_surplus_bounded(self):
        for name in ("MaxFlops.MaxFlops", "DeviceMemory.DeviceMemory",
                     "LUD.Internal", "CoMD.AdvanceVelocity"):
            point = classify_kernel(HD7970, get_kernel(name).base, TOP)
            assert 0.0 <= point.surplus_fraction <= 1.0

    def test_bad_band_rejected(self):
        with pytest.raises(AnalysisError):
            classify_kernel(HD7970, get_kernel("MaxFlops.MaxFlops").base,
                            TOP, balance_band=1.0)
