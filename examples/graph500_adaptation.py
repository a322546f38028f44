"""Phase adaptation: watch Harmonia track Graph500's BFS levels.

Graph500's BottomStepUp kernel changes behaviour every iteration as the
breadth-first-search frontier expands and contracts (paper Figure 14).
This example runs it under Harmonia and prints, per iteration, the
instruction totals, the sensitivity bins the monitor computed, and the
configuration chosen for the next launch — the paper's Figures 14-16 as a
live trace.

Run:  python examples/graph500_adaptation.py
"""

from repro import (
    BatchSessionRunner,
    HarmoniaPolicy,
    all_applications,
    get_application,
    make_hd7970_platform,
    train_predictors,
)
from repro.core.policy import LaunchContext
from repro.units import hz_to_mhz

KERNEL = "Graph500.BottomStepUp"


def main() -> None:
    platform = make_hd7970_platform()
    training = train_predictors(platform, all_applications())
    policy = HarmoniaPolicy(platform.config_space, training.compute,
                            training.bandwidth)
    app = get_application("Graph500")

    print(f"{'it':>3s} {'VALU(M)':>8s} {'VFetch(M)':>9s} "
          f"{'bins':>12s} {'ran at':>26s} {'next':>26s}")
    for iteration, kernel, spec in app.launches():
        context = LaunchContext(kernel_name=kernel.name,
                                iteration=iteration, spec=spec)
        config = policy.config_for(context)
        result = platform.launch(spec, config, iteration=iteration)
        policy.observe(context, result)
        if kernel.name != KERNEL:
            continue
        state = policy.control_state(kernel.name)
        snap = state.last_snapshot
        nxt = policy.history_for(kernel.name).current_config
        print(f"{iteration:>3d} {result.counters.valu_insts_millions:8.0f} "
              f"{result.counters.vfetch_insts_millions:9.1f} "
              f"{snap.compute_bin.value + '/' + snap.bandwidth_bin.value:>12s} "
              f"{config.describe():>26s} {nxt.describe():>26s}")

    # Residency summary (Figures 15-16).
    run = BatchSessionRunner(platform).run(app, policy)
    print("\nmemory-bus residency over the whole run (Figure 15/16):")
    for f_mem, fraction in sorted(run.trace.f_mem_residency().fractions.items()):
        bar = "#" * round(fraction * 40)
        print(f"  {hz_to_mhz(f_mem):6.0f} MHz  {fraction:5.1%}  {bar}")
    print("\ncompute-frequency residency (paper: pinned at boost):")
    for f_cu, fraction in sorted(run.trace.f_cu_residency().fractions.items()):
        print(f"  {hz_to_mhz(f_cu):6.0f} MHz  {fraction:5.1%}")


if __name__ == "__main__":
    main()
