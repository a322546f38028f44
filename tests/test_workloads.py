"""Unit tests for :mod:`repro.workloads` (Section 6's workload set)."""

import pytest

from repro.errors import WorkloadError
from repro.perf.kernelspec import KernelSpec
from repro.workloads.application import Application
from repro.workloads.kernel import (
    ConstantSchedule,
    CyclicSchedule,
    TableSchedule,
    WorkloadKernel,
)
from repro.workloads.registry import (
    STRESS_BENCHMARKS,
    all_applications,
    all_kernels,
    application_names,
    get_application,
    get_kernel,
)


class TestRegistry:
    def test_fourteen_applications(self):
        # Section 6: "We select 14 applications".
        assert len(application_names()) == 14

    def test_twenty_five_kernels(self):
        # Section 4: "a total of 25 application kernels".
        assert len(all_kernels()) == 25

    def test_paper_suite_membership(self):
        names = set(application_names())
        assert {"CoMD", "XSBench", "miniFE", "Graph500", "BPT", "CFD",
                "LUD", "SRAD", "Streamcluster", "Stencil", "Sort", "SPMV",
                "MaxFlops", "DeviceMemory"} == names

    def test_stress_benchmarks(self):
        # Geomean 2 excludes exactly these two (Section 7.1).
        assert set(STRESS_BENCHMARKS) == {"MaxFlops", "DeviceMemory"}

    def test_unknown_application_raises(self):
        with pytest.raises(WorkloadError):
            get_application("HPL")

    def test_unknown_kernel_raises(self):
        with pytest.raises(WorkloadError):
            get_kernel("Sort.NoSuchKernel")

    def test_kernel_lookup(self):
        kernel = get_kernel("Sort.BottomScan")
        assert kernel.base.vgprs_per_workitem == 66

    def test_fresh_instances(self):
        assert get_application("Sort") is not get_application("Sort")

    def test_kernel_names_are_qualified_and_unique(self):
        names = [k.name for k in all_kernels()]
        assert len(set(names)) == len(names)
        assert all("." in name for name in names)


class TestPaperAnchors:
    def test_xsbench_runs_two_iterations(self):
        # Section 7.2: "XSBench ... executes only 2 iterations".
        assert get_application("XSBench").iterations == 2

    def test_graph500_runs_eight_iterations(self):
        # Figure 14 shows eight successive iterations.
        assert get_application("Graph500").iterations == 8

    def test_srad_prepare_has_8_alu_insts(self):
        # Figure 8.
        assert get_kernel("SRAD.Prepare").base.valu_insts_per_item == 8.0

    def test_srad_prepare_divergence(self):
        # Figure 8: ~75% branch divergence.
        assert get_kernel("SRAD.Prepare").base.branch_divergence == \
            pytest.approx(0.75)

    def test_sort_bottomscan_divergence(self):
        # Figure 8: ~6%.
        assert get_kernel("Sort.BottomScan").base.branch_divergence == \
            pytest.approx(0.06)

    def test_sort_bottomscan_over_2m_instructions(self):
        spec = get_kernel("Sort.BottomScan").base
        assert spec.total_workitems * spec.valu_insts_per_item > 2e6

    def test_graph500_ops_per_byte_varies_widely(self):
        # Section 1: Graph500's ops/byte varies from 0.64 to bursts of 264.
        app = get_application("Graph500")
        demands = [spec.demanded_ops_per_byte()
                   for _, _, spec in app.launches()]
        assert max(demands) / min(demands) > 5.0


class TestSchedules:
    BASE = KernelSpec(
        name="S.K", total_workitems=1024, workgroup_size=256,
        valu_insts_per_item=10.0, vfetch_insts_per_item=1.0,
        vwrite_insts_per_item=1.0,
    )

    def test_constant_schedule(self):
        schedule = ConstantSchedule()
        assert schedule.spec_for_iteration(self.BASE, 5) == self.BASE

    def test_constant_rejects_negative_iteration(self):
        with pytest.raises(WorkloadError):
            ConstantSchedule().spec_for_iteration(self.BASE, -1)

    def test_table_schedule_wraps(self):
        schedule = TableSchedule(rows=(
            {"valu_insts_per_item": 1.0},
            {"valu_insts_per_item": 2.0},
        ))
        assert schedule.spec_for_iteration(self.BASE, 0).valu_insts_per_item == 1.0
        assert schedule.spec_for_iteration(self.BASE, 3).valu_insts_per_item == 2.0

    def test_table_schedule_clamps(self):
        schedule = TableSchedule(rows=(
            {"valu_insts_per_item": 1.0},
            {"valu_insts_per_item": 2.0},
        ), wrap=False)
        assert schedule.spec_for_iteration(self.BASE, 9).valu_insts_per_item == 2.0

    def test_table_schedule_rejects_empty(self):
        with pytest.raises(WorkloadError):
            TableSchedule(rows=())

    def test_cyclic_schedule_scales_work(self):
        schedule = CyclicSchedule(work_factors=(0.5, 2.0))
        assert schedule.spec_for_iteration(self.BASE, 0).total_workitems == 512
        assert schedule.spec_for_iteration(self.BASE, 1).total_workitems == 2048

    def test_cyclic_schedule_floors_at_one_workgroup(self):
        schedule = CyclicSchedule(work_factors=(0.001,))
        spec = schedule.spec_for_iteration(self.BASE, 0)
        assert spec.total_workitems == self.BASE.workgroup_size

    def test_cyclic_rejects_non_positive_factor(self):
        with pytest.raises(WorkloadError):
            CyclicSchedule(work_factors=(0.0,))


class TestApplication:
    def test_launch_ordering(self):
        app = get_application("CoMD")
        launches = list(app.launches())
        assert len(launches) == app.total_launches()
        first_iteration = [k.name for _, k, _ in launches[:3]]
        assert first_iteration == [k.name for k in app.kernels]

    def test_rejects_empty_kernel_list(self):
        with pytest.raises(WorkloadError):
            Application(name="X", suite="S", kernels=(), iterations=1)

    def test_rejects_zero_iterations(self):
        kernel = WorkloadKernel(base=TestSchedules.BASE)
        with pytest.raises(WorkloadError):
            Application(name="X", suite="S", kernels=(kernel,), iterations=0)

    def test_rejects_duplicate_kernel_names(self):
        kernel = WorkloadKernel(base=TestSchedules.BASE)
        with pytest.raises(WorkloadError):
            Application(name="X", suite="S", kernels=(kernel, kernel),
                        iterations=1)

    def test_graph500_phases_change_specs(self):
        app = get_application("Graph500")
        bottom = next(k for k in app.kernels
                      if k.name == "Graph500.BottomStepUp")
        specs = {bottom.spec_for_iteration(i).total_workitems
                 for i in range(app.iterations)}
        assert len(specs) > 3

    def test_all_kernel_specs_valid_on_all_iterations(self):
        for app in all_applications():
            for _, _, spec in app.launches():
                assert spec.total_workitems > 0
