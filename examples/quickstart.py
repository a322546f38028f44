"""Quickstart: run one application under PowerTune and under Harmonia.

Builds the simulated HD7970 test bed, trains the paper's sensitivity
predictors (Section 4), runs the CoMD molecular-dynamics proxy under the
shipping baseline and under Harmonia, and prints the energy/performance
outcome the paper's Figures 10-13 aggregate.

Run:  python examples/quickstart.py
"""

from repro import (
    BaselinePolicy,
    BatchSessionRunner,
    HarmoniaPolicy,
    all_applications,
    get_application,
    make_hd7970_platform,
    train_predictors,
)


def main() -> None:
    # The simulated test bed: an AMD Radeon HD7970 with 3 GB GDDR5.
    platform = make_hd7970_platform()
    space = platform.config_space
    print(f"platform: {platform.calibration.arch.name}, "
          f"{len(space)} hardware configurations")

    # Train the Table 3 sensitivity predictors on the full workload set.
    training = train_predictors(platform, all_applications())
    print(f"predictors trained: compute r={training.compute_correlation:.2f}, "
          f"bandwidth r={training.bandwidth_correlation:.2f} "
          "(paper: 0.91 / 0.96)")

    # Run CoMD under both policies.
    app = get_application("CoMD")
    runner = BatchSessionRunner(platform)
    baseline = runner.run(app, BaselinePolicy(space))
    harmonia = runner.run(
        app, HarmoniaPolicy(space, training.compute, training.bandwidth)
    )

    print(f"\n{app.name} ({app.iterations} iterations, "
          f"{len(app.kernels)} kernels):")
    for label, run in (("baseline", baseline), ("harmonia", harmonia)):
        m = run.metrics
        print(f"  {label:9s} time={m.time * 1e3:7.1f} ms  "
              f"energy={m.energy:6.2f} J  power={m.avg_power:5.1f} W  "
              f"ED2={m.ed2 * 1e3:.3f} mJ s^2")

    ed2_gain = 1 - harmonia.metrics.ed2 / baseline.metrics.ed2
    perf = baseline.metrics.time / harmonia.metrics.time - 1
    power = 1 - harmonia.metrics.avg_power / baseline.metrics.avg_power
    print(f"\nHarmonia vs baseline: ED2 {ed2_gain:+.1%}, "
          f"performance {perf:+.1%}, power {power:+.1%}")

    # Where did Harmonia settle? Per-kernel dominant configurations:
    print("\nper-kernel dominant configurations under Harmonia:")
    for kernel in app.kernels:
        records = harmonia.trace.records_for_kernel(kernel.name)
        total = sum(r.time for r in records)
        by_config = {}
        for r in records:
            by_config[r.config] = by_config.get(r.config, 0.0) + r.time
        config, t = max(by_config.items(), key=lambda kv: kv[1])
        print(f"  {kernel.name:26s} {config.describe():28s} "
              f"({t / total:.0%} of kernel time)")


if __name__ == "__main__":
    main()
