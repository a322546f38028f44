"""Unit tests for the memory-bus voltage-scaling extension."""

import dataclasses

import pytest

from repro.errors import CalibrationError
from repro.memory.power import MemoryPowerModel
from repro.platform.calibration import default_calibration
from repro.platform.hd7970 import make_hd7970_platform
from repro.units import MHZ
from repro.workloads.registry import get_kernel

F_MAX = 1375 * MHZ
F_MIN = 475 * MHZ


def scaled_model() -> MemoryPowerModel:
    calibration = dataclasses.replace(
        default_calibration(), memory_voltage_scaling=True
    )
    return calibration.memory_power_model()


def fixed_model() -> MemoryPowerModel:
    return default_calibration().memory_power_model()


class TestBusVoltage:
    def test_fixed_model_holds_voltage(self):
        model = fixed_model()
        assert model.bus_voltage(F_MIN) == model.bus_voltage(F_MAX)

    def test_scaled_model_lowers_voltage_with_frequency(self):
        model = scaled_model()
        assert model.bus_voltage(F_MIN) < model.bus_voltage(F_MAX)

    def test_voltage_endpoints(self):
        model = scaled_model()
        assert model.bus_voltage(F_MAX) == pytest.approx(model.bus_voltage_max)
        assert model.bus_voltage(F_MIN) == pytest.approx(
            model.bus_voltage_min, abs=0.01
        )

    def test_voltage_monotone(self):
        model = scaled_model()
        freqs = [f * MHZ for f in (475, 625, 775, 925, 1075, 1225, 1375)]
        volts = [model.bus_voltage(f) for f in freqs]
        assert volts == sorted(volts)

    def test_invalid_voltage_range_rejected(self):
        fields = {**fixed_model()._asdict(), "bus_voltage_min": 2.0,
                  "bus_voltage_max": 1.6}
        with pytest.raises(CalibrationError):
            MemoryPowerModel(**fields)


class TestPowerEffect:
    def test_no_effect_at_max_frequency(self):
        # At the top frequency the scaled voltage equals the fixed one.
        assert scaled_model().total_power(F_MAX, 100e9) == pytest.approx(
            fixed_model().total_power(F_MAX, 100e9)
        )

    def test_scaling_saves_power_at_low_frequency(self):
        # Section 7.2: "far more power savings ... if voltage scaling is
        # applied while lowering bus speeds".
        assert scaled_model().total_power(F_MIN, 50e9) < \
            fixed_model().total_power(F_MIN, 50e9)

    def test_saving_grows_as_bus_slows(self):
        scaled, fixed = scaled_model(), fixed_model()
        saving_mid = (fixed.total_power(925 * MHZ, 50e9)
                      - scaled.total_power(925 * MHZ, 50e9))
        saving_low = (fixed.total_power(F_MIN, 50e9)
                      - scaled.total_power(F_MIN, 50e9))
        assert saving_low > saving_mid > 0


class TestPlatformIntegration:
    def test_factory_flag(self):
        platform = make_hd7970_platform(memory_voltage_scaling=True)
        assert platform.calibration.memory_voltage_scaling

    def test_default_is_fixed_voltage(self):
        # The paper's platform cannot scale the bus voltage.
        assert not make_hd7970_platform().calibration.memory_voltage_scaling

    def test_scaled_platform_draws_less_at_low_bus(self):
        fixed = make_hd7970_platform()
        scaled = make_hd7970_platform(memory_voltage_scaling=True)
        spec = get_kernel("Sort.BottomScan").base
        config = fixed.baseline_config().replace(f_mem=F_MIN)
        assert scaled.run_kernel(spec, config).power.memory < \
            fixed.run_kernel(spec, config).power.memory

    def test_performance_unaffected(self):
        # Voltage scaling is a power knob only.
        fixed = make_hd7970_platform()
        scaled = make_hd7970_platform(memory_voltage_scaling=True)
        spec = get_kernel("Sort.BottomScan").base
        config = fixed.baseline_config().replace(f_mem=F_MIN)
        assert scaled.run_kernel(spec, config).time == \
            pytest.approx(fixed.run_kernel(spec, config).time)
