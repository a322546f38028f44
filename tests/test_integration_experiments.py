"""Integration tests: shape assertions for every experiment module.

One test class per paper table/figure; each asserts the qualitative claim
the paper makes and exercises the module's report formatting.
"""

import pytest

from repro.experiments import (
    ablations,
    characterization,
    fig01_power_breakdown,
    fig03_balance,
    fig04_fig05_power_ranges,
    fig06_metric_tradeoffs,
    fig07_occupancy,
    fig08_divergence,
    fig09_clock_domains,
    fig10_13_evaluation,
    fig14_16_graph500,
    fig17_power_sharing,
    fig18_cg_vs_fg,
    sec72_variants,
    table1_dvfs,
    table2_table3_models,
)


class TestFigure1:
    def test_memory_is_major_consumer(self, context):
        result = fig01_power_breakdown.run(context)
        assert result.memory_fraction > 0.25
        assert result.gpu_fraction > result.memory_fraction

    def test_components_sum(self, context):
        result = fig01_power_breakdown.run(context)
        assert result.card_power == pytest.approx(
            result.gpu_power + result.memory_power + result.other_power
        )

    def test_report_renders(self, context):
        report = fig01_power_breakdown.format_report(
            fig01_power_breakdown.run(context)
        )
        assert "Figure 1" in report
        assert "MemPwr" in report


class TestTable1:
    def test_voltages_exact(self, context):
        result = table1_dvfs.run(context)
        assert result.max_voltage_error() == pytest.approx(0.0)

    def test_report_renders(self, context):
        report = table1_dvfs.format_report(table1_dvfs.run(context))
        assert "DPM2" in report


class TestFigure3:
    @pytest.fixture(scope="class")
    def balance(self, context):
        return fig03_balance.run(context)

    def test_maxflops_scales_to_about_27x(self, balance):
        peak = balance["MaxFlops"].peak_normalized_performance()
        assert 20.0 < peak < 32.0

    def test_maxflops_no_interior_knee(self, balance):
        curve = balance["MaxFlops"].curve_at_max_bandwidth()
        # Linear scaling: the knee is the rightmost point of the curve.
        assert curve.knee_ops_per_byte == pytest.approx(
            max(x for x, _ in curve.points), rel=1e-6
        )

    def test_devicememory_knee_near_4x(self, balance):
        knee = balance["DeviceMemory"].curve_at_max_bandwidth().knee_ops_per_byte
        assert 2.5 < knee < 6.0

    def test_devicememory_knees_shift_with_bandwidth(self, balance):
        # Each memory configuration has its own balance point; the knee's
        # *compute throughput* shrinks with available bandwidth.
        curves = sorted(balance["DeviceMemory"].curves, key=lambda c: c.f_mem)
        assert curves[0].knee_performance < curves[-1].knee_performance

    def test_lud_compute_bound_at_high_bandwidth(self, balance):
        curve = balance["LUD"].curve_at_max_bandwidth()
        # Best point is highest-and-rightmost (no interior saturation).
        assert curve.knee_ops_per_byte == pytest.approx(
            max(x for x, _ in curve.points), rel=1e-6
        )

    def test_report_renders(self, balance):
        report = fig03_balance.format_report(balance)
        assert "MaxFlops" in report and "LUD" in report


class TestFigures4And5:
    def test_compute_power_swing(self, context):
        result = fig04_fig05_power_ranges.run_fig04(context)
        # Paper: ~70% variation across compute configurations.
        assert 0.45 < result.variation < 0.85

    def test_memory_power_swing(self, context):
        result = fig04_fig05_power_ranges.run_fig05(context)
        # Paper: ~10% variation across memory configurations.
        assert 0.04 < result.variation < 0.15

    def test_report_renders(self, context):
        result = fig04_fig05_power_ranges.run_fig05(context)
        report = fig04_fig05_power_ranges.format_report(result, "10%")
        assert "Figure 5" in report


class TestFigure6:
    @pytest.fixture(scope="class")
    def tradeoffs(self, context):
        return fig06_metric_tradeoffs.run(context)

    def test_energy_optimal_hurts_performance(self, tradeoffs):
        # Paper: 69% / 66% loss. Our substrate shows the same *shape*:
        # optimizing energy costs double-digit performance.
        for result in tradeoffs.values():
            assert result.energy_opt_perf_loss > 0.10

    def test_ed2_optimal_nearly_free(self, tradeoffs):
        # Paper: ~1% performance penalty at the ED²-optimal point.
        for result in tradeoffs.values():
            assert result.ed2_opt_perf_loss < 0.04

    def test_ed2_optimal_saves_energy(self, tradeoffs):
        for result in tradeoffs.values():
            assert result.row("min-ed2").energy < 1.0

    def test_report_renders(self, tradeoffs):
        report = fig06_metric_tradeoffs.format_report(tradeoffs)
        assert "min-ed2" in report


class TestFigure7:
    def test_occupancy_gap(self, context):
        result = fig07_occupancy.run(context)
        assert result.low_occupancy.occupancy == pytest.approx(0.30)
        assert result.high_occupancy.occupancy == pytest.approx(1.0)

    def test_sensitivity_follows_occupancy(self, context):
        result = fig07_occupancy.run(context)
        assert result.low_occupancy.bandwidth_sensitivity < 0.3
        assert result.high_occupancy.bandwidth_sensitivity > 0.7

    def test_vgpr_is_the_limiter(self, context):
        result = fig07_occupancy.run(context)
        assert result.low_occupancy.limiting_resource == "vgpr"


class TestFigure8:
    def test_divergence_does_not_imply_sensitivity(self, context):
        result = fig08_divergence.run(context)
        # SRAD.Prepare: 75% divergence, ~zero frequency sensitivity.
        assert result.divergent_small.frequency_sensitivity < 0.3
        # Sort.BottomScan: 6% divergence, high frequency sensitivity.
        assert result.coherent_large.frequency_sensitivity > 0.7

    def test_instruction_counts_differ_by_orders(self, context):
        result = fig08_divergence.run(context)
        assert result.coherent_large.total_insts_millions > \
            100 * result.divergent_small.total_insts_millions


class TestFigure9:
    def test_ic_activity_and_sensitivity_both_high(self, context):
        result = fig09_clock_domains.run(context)
        assert result.ic_activity > 0.5
        assert result.frequency_sensitivity > 0.5

    def test_effect_strongest_at_low_clock(self, context):
        result = fig09_clock_domains.run(context)
        assert result.low_clock_sensitivity >= result.frequency_sensitivity

    def test_crossing_binds_at_low_clocks(self, context):
        result = fig09_clock_domains.run(context)
        assert result.crossing_limited_points() >= 3
        low_clock = result.bandwidth_vs_f_cu[0]
        assert low_clock[2] == "crossing"


class TestCharacterization:
    @pytest.fixture(scope="class")
    def result(self, context):
        return characterization.run(context)

    def test_every_kernel_characterized(self, result):
        assert len(result.rows) == 25

    def test_stress_benchmarks_bracket_bandwidth_sensitivity(self, result):
        sensitivities = [r.bandwidth_sensitivity for r in result.rows]
        assert max(sensitivities) > 0.9
        assert min(sensitivities) < 0.1

    def test_maxflops_scales_with_compute_only(self, result):
        by_kernel = {r.kernel: r for r in result.rows}
        curves = by_kernel["MaxFlops.MaxFlops"].curves
        assert curves["n_cu"].scaling_ratio() > 6.0
        assert curves["f_mem"].scaling_ratio() < 1.05


class TestTables2And3:
    def test_correlations_strong(self, context):
        result = table2_table3_models.run(context)
        assert result.bandwidth_correlation > 0.90
        assert result.compute_correlation > 0.75

    def test_report_contains_paper_coefficients(self, context):
        report = table2_table3_models.format_report(
            table2_table3_models.run(context)
        )
        assert "+1.0030" in report    # paper icActivity coefficient
        assert "icActivity" in report


class TestFigures14To16:
    @pytest.fixture(scope="class")
    def graph500(self, context):
        return fig14_16_graph500.run(context)

    def test_instruction_totals_swing(self, graph500):
        # Figure 14: raw instruction totals vary significantly over the
        # eight BottomStepUp iterations.
        assert graph500.instruction_swing() > 3.0
        assert len(graph500.phases) == 8

    def test_compute_frequency_pinned_at_boost(self, graph500):
        # Figure 16: high divergence keeps CUFreq at 1 GHz.
        assert graph500.dominant_f_cu() == pytest.approx(1e9)
        assert graph500.f_cu_residency.fraction_at(1e9) > 0.7

    def test_memory_bus_dithers(self, graph500):
        # Figures 15/16: the memory bus visits multiple frequencies.
        assert graph500.mem_frequencies_visited() >= 2
        fractions = graph500.mem_residency.fractions
        assert all(0.0 < f <= 1.0 for f in fractions.values())
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_cu_residency_dominated_by_32(self, graph500):
        assert graph500.cu_residency.dominant_value() == 32

    def test_report_renders(self, graph500):
        report = fig14_16_graph500.format_report(graph500)
        assert "Figure 14" in report


class TestFigure17:
    def test_gpu_dominates_savings(self, context):
        # Paper: ~64% of savings from compute, ~36% from memory.
        gpu_share, mem_share = fig17_power_sharing.run(context).savings_split()
        assert gpu_share > mem_share
        assert mem_share > 0.05

    def test_harmonia_total_below_baseline(self, context):
        result = fig17_power_sharing.run(context)
        for row in result.rows:
            baseline = row.baseline_gpu + row.baseline_memory
            harmonia = row.harmonia_gpu + row.harmonia_memory
            assert harmonia <= baseline * 1.02


class TestFigure18:
    def test_fg_adds_over_cg_for_outliers(self, context):
        result = fig18_cg_vs_fg.run(context)
        by_app = {r.application: r for r in result.contributions}
        # SPMV is the paper's canonical CG outlier rescued by FG.
        assert by_app["SPMV"].fg_contribution > 0.02

    def test_xsbench_is_cg_dominated(self, context):
        # Two iterations: FG has no room; CG does all the work.
        result = fig18_cg_vs_fg.run(context)
        by_app = {r.application: r for r in result.contributions}
        assert abs(by_app["XSBench"].fg_contribution) < 0.02

    def test_convergence_is_fast(self, context):
        result = fig18_cg_vs_fg.run(context)
        # Paper: CG 1 iteration, FG another 3-4 (ours allows some slack).
        assert result.median_settle_iterations() <= 20


class TestSection72:
    def test_variants_shape(self, context):
        result = sec72_variants.run(context)
        assert result.dvfs_only_ed2 < result.harmonia_ed2
        assert result.bandwidth_prediction_error < 0.15
        assert result.compute_prediction_error < 0.15

    def test_report_renders(self, context):
        report = sec72_variants.format_report(sec72_variants.run(context))
        assert "DVFS-only" in report


class TestFigure10To13Module:
    def test_run_and_reports(self, context):
        result = fig10_13_evaluation.run(context)
        assert len(result.applications) == 14
        for formatter in (fig10_13_evaluation.format_fig10,
                          fig10_13_evaluation.format_fig11,
                          fig10_13_evaluation.format_fig12,
                          fig10_13_evaluation.format_fig13):
            report = formatter(result)
            assert "geomean" in report

    def test_per_app_accessor(self, context):
        result = fig10_13_evaluation.run(context)
        values = result.per_app("harmonia", "ed2_improvement")
        assert set(values) == set(result.applications)


class TestAblationBinEdges:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_bin_edges(context)

    def test_paper_edges_near_best(self, result):
        # The paper's empirically fixed edges sit at (or within a point
        # of) the best variant; pushing the HIGH edge to 90% collapses ED².
        by_variant = {r.variant: r for r in result.rows}
        paper = by_variant["edges 30%/70% (paper)"]
        assert paper.ed2 >= max(r.ed2 for r in result.rows) - 0.01
        assert by_variant["edges 30%/90%"].ed2 < paper.ed2 - 0.05


class TestAblationFgTolerance:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_fg_tolerance(context)

    def test_tolerance_trades_performance_for_power(self, result):
        # Loosening the guard trades performance for power; tightening
        # it protects performance but forfeits savings.
        by_variant = {r.variant: r for r in result.rows}
        default = by_variant["tolerance 1.0% (default)"]
        loose = by_variant["tolerance 10.0%"]
        tight = by_variant["tolerance 0.2%"]
        assert loose.performance < default.performance
        assert loose.power > default.power
        assert tight.performance > default.performance
        assert tight.ed2 < default.ed2


class TestAblationMaxDithering:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_max_dithering(context)

    def test_insensitive_to_the_bound(self, result):
        # Per-tunable freezing does the real oscillation control.
        values = [r.ed2 for r in result.rows]
        assert max(values) - min(values) < 0.02


class TestAblationCgFgComposition:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_fg_disabled(context)

    def test_both_levels_are_necessary(self, result):
        # Section 7.1: FG provides the bulk of the protection and a
        # large share of the gain.
        by_variant = {r.variant: r for r in result.rows}
        cg_only = by_variant["CG only"]
        harmonia = by_variant["FG+CG (Harmonia)"]
        assert harmonia.ed2 > cg_only.ed2 + 0.05
        assert harmonia.performance > cg_only.performance


class TestAblationPredictorSource:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_predictor_source(context)

    def test_refit_beats_published_weights(self, result):
        # The published weights encode the authors' silicon: verbatim
        # reuse misranks sensitivities. Retraining is what ports.
        by_variant = {r.variant: r for r in result.rows}
        refit = by_variant["refit on this substrate"]
        verbatim = by_variant["paper Table 3 verbatim"]
        assert refit.ed2 > verbatim.ed2 + 0.10
        assert refit.performance > verbatim.performance


class TestAblationMeasurementNoise:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ablations.ablate_measurement_noise(context)

    def test_degrades_gracefully(self, result):
        # 5% run-to-run noise costs at most a couple of ED² points and
        # under a point of performance.
        by_variant = {r.variant: r for r in result.rows}
        clean = by_variant["noise 0.0% (default)"]
        noisy = by_variant["noise 5.0%"]
        assert noisy.ed2 > clean.ed2 - 0.03
        assert noisy.performance > clean.performance - 0.01
