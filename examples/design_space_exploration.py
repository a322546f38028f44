"""Design-space exploration: the Section 3 characterization, end to end.

Sweeps the three Figure 3 workloads across all ~450 hardware
configurations, prints the normalized performance curves (ASCII), the
per-memory-configuration balance points, and the Figure 6 metric-optimal
comparison — the analysis that motivates ED² as the control objective.

Run:  python examples/design_space_exploration.py
"""

from repro import get_kernel, make_hd7970_platform
from repro.analysis.balance import knee_of_curve
from repro.analysis.sweep import ConfigSweep
from repro.units import hz_to_mhz

WORKLOADS = (
    ("MaxFlops (compute stress)", "MaxFlops.MaxFlops"),
    ("DeviceMemory (memory stress)", "DeviceMemory.DeviceMemory"),
    ("LUD (scientific)", "LUD.Internal"),
)


def ascii_curve(points, width=56, height=10):
    """Render (x, y) points as a crude ASCII scatter."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((x - x_lo) / (x_hi - x_lo + 1e-12) * (width - 1))
        row = int((y - y_lo) / (y_hi - y_lo + 1e-12) * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = ["".join(row) for row in grid]
    lines.append(f"x: {x_lo:.1f}..{x_hi:.1f} ops/byte (normalized)   "
                 f"y: {y_lo:.1f}..{y_hi:.1f} perf (normalized)")
    return "\n".join(lines)


def main() -> None:
    platform = make_hd7970_platform()
    f_mem_max = platform.config_space.memory_frequencies[-1]

    for label, kernel_name in WORKLOADS:
        spec = get_kernel(kernel_name).base
        sweep = ConfigSweep(platform, spec)
        reference = sweep.reference_point()

        curve = sweep.curve_for_memory_config(f_mem_max)
        points = [
            (p.platform_ops_per_byte / reference.platform_ops_per_byte,
             p.performance / reference.performance)
            for p in curve
        ]
        print(f"\n=== {label} — performance vs platform ops/byte "
              f"at {hz_to_mhz(f_mem_max):.0f} MHz memory ===")
        print(ascii_curve(points))

        print("balance points per memory configuration:")
        for f_mem in platform.config_space.memory_frequencies:
            knee = knee_of_curve(sweep.curve_for_memory_config(f_mem))
            print(f"  mem {hz_to_mhz(f_mem):6.0f} MHz -> "
                  f"{knee.config.describe_compute():14s} "
                  f"(perf {knee.performance / reference.performance:5.1f}x)")

        print("metric-optimal configurations (Figure 6):")
        best_perf = sweep.optimum_performance()
        for target, point in (("min energy", sweep.optimum_energy()),
                              ("min ED2", sweep.optimum_ed2()),
                              ("max perf", best_perf)):
            print(f"  {target:10s} {point.config.describe():28s} "
                  f"perf={point.performance / best_perf.performance:5.2f} "
                  f"energy={point.energy / best_perf.energy:5.2f} "
                  f"ED2={point.ed2 / best_perf.ed2:5.2f}")


if __name__ == "__main__":
    main()
