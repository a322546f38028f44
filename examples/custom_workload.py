"""Bring your own kernel: characterize and tune a custom workload.

Defines a new application (a two-kernel iterative stencil solver with a
halo-exchange pack kernel) from scratch, measures its sensitivities with
the Section 4.1 methodology, sweeps its design space (Figure 3 style), and
runs it under Harmonia — everything a user would do to evaluate the
controller on their own workload.

Run:  python examples/custom_workload.py
"""

from repro import (
    BaselinePolicy,
    BatchSessionRunner,
    HarmoniaPolicy,
    KernelSpec,
    all_applications,
    make_hd7970_platform,
    train_predictors,
)
from repro.analysis.balance import find_balance_point
from repro.analysis.sweep import ConfigSweep
from repro.sensitivity.measurement import measure_sensitivities
from repro.units import hz_to_mhz
from repro.workloads.application import Application
from repro.workloads.kernel import CyclicSchedule, WorkloadKernel


def build_application() -> Application:
    """A 27-point stencil sweep plus a bandwidth-hungry halo pack."""
    sweep = KernelSpec(
        name="MySolver.StencilSweep",
        total_workitems=1 << 21,
        workgroup_size=256,
        valu_insts_per_item=900.0,
        vfetch_insts_per_item=27.0,
        vwrite_insts_per_item=1.0,
        bytes_per_fetch=4.0,
        bytes_per_write=8.0,
        vgprs_per_workitem=48,
        sgprs_per_wave=30,
        lds_bytes_per_workgroup=6144,
        branch_divergence=0.04,
        l2_hit_rate=0.75,
        outstanding_per_wave=2.5,
        access_efficiency=0.85,
    )
    halo_pack = KernelSpec(
        name="MySolver.HaloPack",
        total_workitems=1 << 19,
        workgroup_size=256,
        valu_insts_per_item=40.0,
        vfetch_insts_per_item=6.0,
        vwrite_insts_per_item=6.0,
        bytes_per_fetch=16.0,
        bytes_per_write=16.0,
        vgprs_per_workitem=16,
        sgprs_per_wave=16,
        branch_divergence=0.02,
        l2_hit_rate=0.10,
        outstanding_per_wave=4.0,
        access_efficiency=0.90,
    )
    return Application(
        name="MySolver",
        suite="custom",
        kernels=(
            WorkloadKernel(base=sweep),
            # The halo shrinks and grows with the decomposition schedule.
            WorkloadKernel(base=halo_pack,
                           schedule=CyclicSchedule(work_factors=(1.0, 0.5))),
        ),
        iterations=30,
    )


def main() -> None:
    platform = make_hd7970_platform()
    app = build_application()

    # 1. Offline characterization (Section 4.1 methodology).
    print("measured sensitivities:")
    for kernel in app.kernels:
        m = measure_sensitivities(platform, kernel.base)
        print(f"  {kernel.name:24s} compute={m.compute:+.2f} "
              f"bandwidth={m.bandwidth:+.2f} "
              f"(cu={m.cu:+.2f}, f_cu={m.f_cu:+.2f})")

    # 2. Design-space exploration (Figure 3 style) for the main kernel.
    sweep = ConfigSweep(platform, app.kernels[0].base)
    f_mem_max = platform.config_space.memory_frequencies[-1]
    knee = find_balance_point(sweep, f_mem_max)
    best = sweep.optimum_ed2()
    print(f"\nbalance point at {hz_to_mhz(f_mem_max):.0f} MHz memory: "
          f"{knee.config.describe()}")
    print(f"ED2-optimal configuration: {best.config.describe()} "
          f"({best.card_power:.0f} W, {best.time * 1e3:.2f} ms)")

    # 3. Online control. The predictors are trained on the paper's 14
    #    applications — the custom workload is unseen, exactly how a
    #    deployed Harmonia would encounter it.
    training = train_predictors(platform, all_applications())
    runner = BatchSessionRunner(platform)
    baseline = runner.run(app, BaselinePolicy(platform.config_space))
    harmonia = runner.run(app, HarmoniaPolicy(
        platform.config_space, training.compute, training.bandwidth
    ))
    ed2_gain = 1 - harmonia.metrics.ed2 / baseline.metrics.ed2
    perf = baseline.metrics.time / harmonia.metrics.time - 1
    print(f"\nHarmonia on the unseen workload: ED2 {ed2_gain:+.1%}, "
          f"performance {perf:+.1%}, "
          f"power {1 - harmonia.metrics.avg_power / baseline.metrics.avg_power:+.1%}")


if __name__ == "__main__":
    main()
