"""Integration tests for the extension experiments."""

import pytest

from repro.experiments import (
    ext_memory_voltage,
    ext_model_validation,
    ext_phase_memory,
    ext_portability,
    ext_power_capping,
    ext_thermal_capping,
    oracle_gap,
)


class TestMemoryVoltageScaling:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_memory_voltage.run(context)

    def test_scaling_unlocks_savings(self, result):
        assert result.ed2_gain_from_scaling > 0.0
        assert result.power_gain_from_scaling > 0.0

    def test_gains_concentrate_on_bus_slowing_apps(self, result):
        by_app = {r.application: r for r in result.rows}
        for app in ("Sort", "MaxFlops", "LUD"):
            assert by_app[app].power_scaled > by_app[app].power_fixed
        for app in ("Sort", "MaxFlops"):
            assert by_app[app].ed2_scaled > by_app[app].ed2_fixed

    def test_report_renders(self, result):
        report = ext_memory_voltage.format_report(result)
        assert "voltage" in report.lower()


class TestThermalCapping:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_thermal_capping.run(context)

    def test_harmonia_wins_under_the_envelope(self, result):
        assert result.mean_speedup() > 0.01

    def test_harmonia_runs_cooler(self, result):
        for row in result.rows:
            assert row.harmonia_peak_temp <= row.baseline_peak_temp + 0.5

    def test_sustainable_power_between_draws(self, result):
        # The scenario is only meaningful if the envelope actually binds.
        assert 100.0 < result.sustainable_power < 200.0


class TestModelValidation:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_model_validation.run(context)

    def test_models_agree(self, result):
        assert result.overall_mean_deviation() < 0.10
        assert result.min_correlation() > 0.75

    def test_all_kernels_validated(self, result):
        assert len(result.rows) == 25

    def test_stress_benchmarks_agree_tightly(self, result):
        by_kernel = {r.kernel: r for r in result.rows}
        assert by_kernel["MaxFlops.MaxFlops"].mean_abs_deviation < 0.02
        assert by_kernel["DeviceMemory.DeviceMemory"].mean_abs_deviation < 0.05

    def test_report_renders(self, result):
        report = ext_model_validation.format_report(result)
        assert "OVERALL" in report


class TestPhaseMemoryRecall:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_phase_memory.run(context)

    def test_recall_fires(self, result):
        assert result.recalls >= 2
        assert result.distinct_phases >= 2

    def test_recall_never_harms(self, result):
        # Neutral-or-better: the validation guard bounds any downside.
        assert result.ed2_with > result.ed2_without - 0.02
        assert result.perf_with > result.perf_without - 0.01

    def test_report_renders(self, result):
        report = ext_phase_memory.format_report(result)
        assert "recall" in report.lower()


class TestPowerCapping:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_power_capping.run(context)

    def test_coordination_wins_at_equal_power(self, result):
        # Section 8: at the same power, coordination keeps performance
        # that budget enforcement trades away.
        assert result.mean_advantage() > 0.03

    def test_advantage_largest_on_memory_bound_apps(self, result):
        # The capper's knob (frequency) is the wrong one there.
        by_app = {r.application: r for r in result.rows}
        assert by_app["CoMD"].harmonia_advantage > 0.10
        assert by_app["miniFE"].harmonia_advantage > 0.10

    def test_capper_holds_the_budget(self, result):
        for row in result.rows:
            assert row.capper_power < row.budget * 1.10


class TestPortability:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_portability.run(context)

    def test_pipeline_ports_to_the_smaller_platform(self, result):
        # Section 4.3: the unchanged pipeline delivers comparable
        # headline results: ED² gain, tiny performance loss.
        assert result.pitcairn_ed2 > 0.06
        assert result.pitcairn_perf > -0.02
        assert result.pitcairn_configs == 240

    def test_models_refit_strongly(self, result):
        assert result.pitcairn_bw_correlation > 0.85
        assert result.pitcairn_compute_correlation > 0.75


class TestOracleGap:
    @pytest.fixture(scope="class")
    def result(self, context):
        return oracle_gap.run(context)

    def test_orderings_hold(self, result):
        # harmonia <= perf-constrained oracle <= oracle, per application.
        for row in result.rows:
            assert row.perf_oracle >= row.harmonia - 0.01
            assert row.oracle >= row.perf_oracle - 0.005

    def test_gap_is_free_profiling_not_performance_trading(self, result):
        # Harmonia refuses to trade performance away by design.
        assert result.mean_adaptation_share() > \
            result.mean_perf_trading_share()
        assert result.mean_perf_trading_share() < 0.03

    def test_xsbench_is_the_structural_outlier(self, result):
        # Two iterations: a single CG action.
        by_app = {r.application: r for r in result.rows}
        assert by_app["XSBench"].adaptation_share > 0.15
