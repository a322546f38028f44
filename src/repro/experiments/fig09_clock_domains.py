"""Figure 9: clock-domain crossings make memory-bound kernels
compute-frequency sensitive.

``DeviceMemory`` misses the L2 almost always, so its requests cross the
compute-clock -> memory-clock boundary at a rate proportional to the
compute frequency. The figure shows its off-chip interconnect activity
(icActivity) is high *and* its compute-frequency sensitivity is high —
"especially when compute frequency is low since the effective bandwidth to
the DRAM is reduced".
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.sensitivity.measurement import measure_sensitivities, sensitivity_between
from repro.units import hz_to_mhz
from repro.workloads.registry import get_kernel


class ClockDomainResult(NamedTuple):
    """Figure 9's two columns plus the low-clock bandwidth throttling."""

    kernel: str
    ic_activity: float
    frequency_sensitivity: float
    #: sensitivity measured over the low half of the clock range only
    low_clock_sensitivity: float
    #: (compute MHz, achieved DRAM bandwidth GB/s, binding limit) at max mem
    bandwidth_vs_f_cu: Tuple[Tuple[float, float, str], ...]

    def crossing_limited_points(self) -> int:
        """Configurations where the clock crossing binds bandwidth."""
        return sum(1 for _, _, limit in self.bandwidth_vs_f_cu
                   if limit == "crossing")


def run(context: ExperimentContext) -> ClockDomainResult:
    """Reproduce Figure 9 on DeviceMemory."""
    platform = context.platform
    spec = get_kernel("DeviceMemory.DeviceMemory").base
    space = platform.config_space
    top = space.max_config()

    # Every probed point is a grid point: index the kernel's cached
    # sweep surface (shared with measure_sensitivities) instead of
    # re-running the model per configuration.
    surface = platform.grid_sweep(spec)
    baseline_run = surface.result_at_config(top)
    measured = measure_sensitivities(platform, spec)

    # Sensitivity over the low half of the compute clock range, where the
    # paper says the effect is strongest.
    freqs = space.compute_frequencies
    mid = freqs[len(freqs) // 2]
    t_low = surface.time_at(top.replace(f_cu=freqs[0]))
    t_mid = surface.time_at(top.replace(f_cu=mid))
    low_clock = sensitivity_between(t_low, t_mid, freqs[0], mid)

    bandwidth_curve = []
    for f_cu in freqs:
        result = surface.result_at_config(top.replace(f_cu=f_cu))
        bandwidth_curve.append((
            hz_to_mhz(f_cu),
            result.achieved_bandwidth / 1.0e9,
            result.bandwidth_limit,
        ))

    return ClockDomainResult(
        kernel=spec.name,
        ic_activity=baseline_run.counters.ic_activity,
        frequency_sensitivity=measured.f_cu,
        low_clock_sensitivity=low_clock,
        bandwidth_vs_f_cu=tuple(bandwidth_curve),
    )


def format_report(result: ClockDomainResult) -> str:
    """Render Figure 9 plus the underlying bandwidth throttling."""
    rows = [
        (f"{mhz:.0f}", f"{bw:.0f}", limit)
        for mhz, bw, limit in result.bandwidth_vs_f_cu
    ]
    header = format_table(
        headers=("compute MHz", "achieved GB/s", "binding limit"),
        rows=rows,
        title=(f"Figure 9 [{result.kernel}]: icActivity="
               f"{result.ic_activity:.2f}, freq sensitivity="
               f"{result.frequency_sensitivity:.2f} "
               f"(low-clock: {result.low_clock_sensitivity:.2f}) — "
               "paper: both high for memory-bound kernels"),
    )
    return header
