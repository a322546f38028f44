"""Roofline placement and the tight-thermal-envelope what-if.

Two analyses the paper motivates but does not plot:

1. **Roofline placement** — every kernel's demanded ops/byte against the
   boost configuration's ridge point, with the surplus resource Harmonia
   can reclaim (the Section 1 "hardware balance" framing, made
   computable).
2. **The thermal what-if** — Section 7.3's closing insight: in a tightly
   cooled enclosure the always-boost baseline throttles while Harmonia's
   balanced configurations stay inside the envelope.

Run:  python examples/roofline_and_thermal.py
"""

from repro import all_applications, make_hd7970_platform, train_predictors
from repro.analysis.roofline import classify_kernel, ridge_point
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.power.thermal import ThermalGovernor, ThermalModel
from repro.runtime.session import BatchSessionRunner
from repro.workloads.registry import all_kernels, get_application


def roofline_section(platform) -> None:
    arch = platform.calibration.arch
    top = platform.baseline_config()
    print(f"boost-configuration ridge point: "
          f"{ridge_point(arch, top):.2f} ops/byte\n")
    print(f"{'kernel':28s} {'ops/byte':>9s} {'regime':>14s} {'surplus':>8s}")
    for kernel in all_kernels():
        point = classify_kernel(arch, kernel.base, top)
        intensity = (f"{point.intensity:9.2f}"
                     if point.intensity < 1e5 else "      inf")
        print(f"{point.kernel:28s} {intensity} "
              f"{point.regime.value:>14s} {point.surplus_fraction:8.0%}")


def thermal_section(platform, training) -> None:
    enclosure = ThermalModel(resistance=0.414, capacitance=0.07)
    print(f"\nconstrained enclosure: "
          f"{enclosure.sustainable_power():.0f} W sustainable, "
          f"cap {enclosure.t_max:.0f} C\n")
    runner = BatchSessionRunner(platform)
    for app_name in ("MaxFlops", "Stencil", "LUD"):
        app = get_application(app_name)
        results = {}
        for label, inner in (
            ("baseline", BaselinePolicy(platform.config_space)),
            ("harmonia", HarmoniaPolicy(platform.config_space,
                                        training.compute,
                                        training.bandwidth)),
        ):
            governor = ThermalGovernor(inner, platform.config_space,
                                       enclosure)
            # Heat-soak the card first; the governor's reset keeps it.
            governor.thermal_state.apply(
                0.9 * enclosure.sustainable_power(), 10.0
            )
            run = runner.run(app, governor)
            results[label] = (run.metrics.time,
                              governor.thermal_state.peak_temperature)
        base_t, base_peak = results["baseline"]
        hm_t, hm_peak = results["harmonia"]
        print(f"  {app_name:10s} baseline {base_t * 1e3:7.1f} ms "
              f"(peak {base_peak:.1f} C)   harmonia {hm_t * 1e3:7.1f} ms "
              f"(peak {hm_peak:.1f} C)   speedup {base_t / hm_t - 1:+.1%}")


def main() -> None:
    platform = make_hd7970_platform()
    training = train_predictors(platform, all_applications())
    roofline_section(platform)
    thermal_section(platform, training)


if __name__ == "__main__":
    main()
