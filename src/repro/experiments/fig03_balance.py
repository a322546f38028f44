"""Figure 3: hardware balance points for MaxFlops, DeviceMemory, LUD.

Normalized performance vs. platform ops/byte, one curve per memory
configuration, everything normalized to the minimum hardware configuration
(4 CUs, 300 MHz, 90 GB/s). The paper's anchors:

* **MaxFlops** (3a) — performance rises linearly with compute throughput
  to ~27x at the maximum configuration, identically for every memory
  configuration (bandwidth-insensitive).
* **DeviceMemory** (3b) — each memory configuration saturates at its own
  knee; at maximum bandwidth the knee sits at ~4x the minimum
  configuration's ops/byte.
* **LUD** (3c) — compute-bound at high bandwidth; its best balance point
  is the highest-and-rightmost configuration, around 15x normalized
  ops/byte.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Tuple

from repro.analysis.balance import knee_of_curve
from repro.analysis.report import format_table
from repro.analysis.sweep import ConfigSweep
from repro.experiments.context import ExperimentContext
from repro.units import hz_to_mhz
from repro.workloads.registry import get_kernel

#: The three Figure 3 workloads and the kernels that realize them.
FIGURE3_KERNELS: Tuple[Tuple[str, str], ...] = (
    ("MaxFlops", "MaxFlops.MaxFlops"),
    ("DeviceMemory", "DeviceMemory.DeviceMemory"),
    ("LUD", "LUD.Internal"),
)


class BalanceCurve(NamedTuple):
    """One fixed-memory-configuration performance curve."""

    f_mem: float
    #: (normalized platform ops/byte, normalized performance) points
    points: Tuple[Tuple[float, float], ...]
    #: normalized ops/byte at the knee (balance point)
    knee_ops_per_byte: float
    #: normalized performance at the knee
    knee_performance: float


class BalanceResult(NamedTuple):
    """Figure 3 for one workload."""

    workload: str
    kernel: str
    curves: Tuple[BalanceCurve, ...]

    def peak_normalized_performance(self) -> float:
        """Best normalized performance across all configurations."""
        return max(p for curve in self.curves for _, p in curve.points)

    def curve_at_max_bandwidth(self) -> BalanceCurve:
        """The curve for the highest memory configuration."""
        return max(self.curves, key=lambda c: c.f_mem)


def run_workload(workload: str, kernel_name: str,
                 context: ExperimentContext) -> BalanceResult:
    """Sweep one Figure 3 workload over the full configuration space."""
    platform = context.platform
    spec = get_kernel(kernel_name).base
    sweep = ConfigSweep(platform, spec)
    reference = sweep.reference_point()
    ref_perf = reference.performance
    ref_opb = reference.platform_ops_per_byte

    curves: List[BalanceCurve] = []
    for f_mem in platform.config_space.memory_frequencies:
        raw = sweep.curve_for_memory_config(f_mem)
        points = tuple(
            (p.platform_ops_per_byte / ref_opb, p.performance / ref_perf)
            for p in raw
        )
        knee = knee_of_curve(raw)
        curves.append(BalanceCurve(
            f_mem=f_mem,
            points=points,
            knee_ops_per_byte=knee.platform_ops_per_byte / ref_opb,
            knee_performance=knee.performance / ref_perf,
        ))
    return BalanceResult(workload=workload, kernel=kernel_name,
                         curves=tuple(curves))


def run(context: ExperimentContext) -> Dict[str, BalanceResult]:
    """All three Figure 3 panels."""
    return {
        workload: run_workload(workload, kernel, context)
        for workload, kernel in FIGURE3_KERNELS
    }


def format_report(results: Mapping[str, BalanceResult]) -> str:
    """Render per-memory-configuration knees for all three panels."""
    sections = []
    anchors = {
        "MaxFlops": "paper: linear scaling to ~27x, no knee",
        "DeviceMemory": "paper: knee at ~4x normalized ops/byte (max BW)",
        "LUD": "paper: best balance ~15x normalized ops/byte",
    }
    for workload, result in results.items():
        rows = [
            (f"{hz_to_mhz(c.f_mem):.0f}", f"{c.knee_ops_per_byte:.1f}",
             f"{c.knee_performance:.1f}")
            for c in result.curves
        ]
        rows.append(("peak perf", "-",
                     f"{result.peak_normalized_performance():.1f}"))
        sections.append(format_table(
            headers=("mem MHz", "knee ops/byte (norm)", "knee perf (norm)"),
            rows=rows,
            title=f"Figure 3 [{workload}] ({anchors[workload]})",
        ))
    return "\n\n".join(sections)
