"""Unit and property tests for :mod:`repro.gpu.config` (Section 3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.gpu.architecture import HD7970
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.units import GHZ, MHZ

SPACE = ConfigSpace(HD7970)


class TestCardinality:
    def test_about_450_configurations(self):
        # Section 3.1: "approximately 450" = 8 x 8 x 7 = 448.
        assert len(SPACE) == 448

    def test_iteration_yields_exactly_len(self):
        assert len(list(SPACE)) == len(SPACE)

    def test_all_iterated_configs_are_members(self):
        for config in SPACE:
            assert config in SPACE

    def test_all_iterated_configs_are_distinct(self):
        configs = list(SPACE)
        assert len(set(configs)) == len(configs)


class TestCorners:
    def test_min_config(self):
        # The paper's normalization reference: 4 CU, 300 MHz, 90 GB/s bus.
        config = SPACE.min_config()
        assert config.n_cu == 4
        assert config.f_cu == pytest.approx(300 * MHZ)
        assert config.f_mem == pytest.approx(475 * MHZ)

    def test_max_config(self):
        config = SPACE.max_config()
        assert config.n_cu == 32
        assert config.f_cu == pytest.approx(1 * GHZ)
        assert config.f_mem == pytest.approx(1375 * MHZ)


class TestValidation:
    def test_valid_config_passes(self):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        assert SPACE.validate(config) is config

    def test_bad_cu_count(self):
        with pytest.raises(ConfigurationError, match="CU count"):
            SPACE.validate(HardwareConfig(5, 700 * MHZ, 925 * MHZ))

    def test_bad_compute_frequency(self):
        with pytest.raises(ConfigurationError, match="compute frequency"):
            SPACE.validate(HardwareConfig(16, 750 * MHZ, 925 * MHZ))

    def test_bad_memory_frequency(self):
        with pytest.raises(ConfigurationError, match="memory frequency"):
            SPACE.validate(HardwareConfig(16, 700 * MHZ, 900 * MHZ))


class TestStepping:
    def test_step_cu_down(self):
        config = SPACE.max_config()
        assert SPACE.step_cu(config, -1).n_cu == 28

    def test_step_cu_clamps_at_min(self):
        config = SPACE.min_config()
        assert SPACE.step_cu(config, -1) == config

    def test_step_cu_clamps_at_max(self):
        config = SPACE.max_config()
        assert SPACE.step_cu(config, +1) == config

    def test_step_f_cu_is_100mhz(self):
        config = SPACE.max_config()
        stepped = SPACE.step_f_cu(config, -1)
        assert config.f_cu - stepped.f_cu == pytest.approx(100 * MHZ)

    def test_step_f_mem_is_150mhz(self):
        config = SPACE.max_config()
        stepped = SPACE.step_f_mem(config, -1)
        assert config.f_mem - stepped.f_mem == pytest.approx(150 * MHZ)

    def test_step_only_touches_its_tunable(self):
        config = SPACE.max_config()
        stepped = SPACE.step_f_mem(config, -2)
        assert stepped.n_cu == config.n_cu
        assert stepped.f_cu == config.f_cu

    def test_step_rejects_off_grid_config(self):
        with pytest.raises(ConfigurationError):
            SPACE.step_cu(HardwareConfig(5, 700 * MHZ, 925 * MHZ), -1)

    @given(st.integers(min_value=-10, max_value=10),
           st.integers(min_value=-10, max_value=10),
           st.integers(min_value=-10, max_value=10))
    def test_stepping_stays_on_grid(self, d_cu, d_f, d_m):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        config = SPACE.step_cu(config, d_cu)
        config = SPACE.step_f_cu(config, d_f)
        config = SPACE.step_f_mem(config, d_m)
        assert config in SPACE


class TestSnapAndFractions:
    def test_snap_picks_nearest(self):
        config = SPACE.snap(n_cu=16, f_cu=740 * MHZ, f_mem=1010 * MHZ)
        assert config.n_cu == 16
        assert config.f_cu == pytest.approx(700 * MHZ)
        assert config.f_mem == pytest.approx(1075 * MHZ)

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=1e8, max_value=1.5e9),
           st.floats(min_value=3e8, max_value=1.6e9))
    def test_snap_always_on_grid(self, n_cu, f_cu, f_mem):
        assert SPACE.snap(n_cu, f_cu, f_mem) in SPACE

    def test_fraction_zero_is_min(self):
        assert SPACE.fraction_to_grid(0, 0, 0) == SPACE.min_config()

    def test_fraction_one_is_max(self):
        assert SPACE.fraction_to_grid(1, 1, 1) == SPACE.max_config()

    def test_fraction_half(self):
        config = SPACE.fraction_to_grid(0.5, 0.5, 0.5)
        assert config.n_cu == 20
        assert config.f_mem == pytest.approx(925 * MHZ)

    @given(st.floats(min_value=-1, max_value=2),
           st.floats(min_value=-1, max_value=2),
           st.floats(min_value=-1, max_value=2))
    def test_fractions_always_on_grid(self, a, b, c):
        assert SPACE.fraction_to_grid(a, b, c) in SPACE


class TestOpsPerByte:
    def test_monotone_in_compute(self):
        base = SPACE.min_config()
        more_compute = base.replace(n_cu=32)
        assert SPACE.platform_ops_per_byte(more_compute) > \
            SPACE.platform_ops_per_byte(base)

    def test_antitone_in_bandwidth(self):
        base = SPACE.min_config()
        more_bw = base.replace(f_mem=1375 * MHZ)
        assert SPACE.platform_ops_per_byte(more_bw) < \
            SPACE.platform_ops_per_byte(base)

    def test_max_config_value(self):
        # 32 x 64 x 1e9 / 264e9 ~ 7.76 ops/byte at the maximum config.
        value = SPACE.platform_ops_per_byte(SPACE.max_config())
        assert value == pytest.approx(2048e9 / 264e9, rel=1e-3)


class TestHardwareConfig:
    def test_replace_none_keeps(self):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        assert config.replace() == config

    def test_replace_single_field(self):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        replaced = config.replace(n_cu=8)
        assert replaced.n_cu == 8
        assert replaced.f_cu == config.f_cu

    def test_describe(self):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        assert config.describe() == "16CU@700MHz/mem@925MHz"

    def test_describe_compute(self):
        config = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        assert config.describe_compute() == "16CU@700MHz"

    def test_hashable(self):
        a = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        b = HardwareConfig(16, 700 * MHZ, 925 * MHZ)
        assert len({a, b}) == 1
