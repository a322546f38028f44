"""Figure 7: VGPR-caused kernel occupancy limits bandwidth sensitivity.

``Sort.BottomScan`` uses 66 of 256 VGPRs per workitem, so only 3 of 10
wavefronts fit per SIMD — 30% occupancy — and the resulting lack of
memory-level parallelism makes it insensitive to memory bus frequency.
``CoMD.AdvanceVelocity`` is not VGPR-limited (100% occupancy) and is
strongly bandwidth sensitive.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.gpu.occupancy import compute_occupancy
from repro.sensitivity.measurement import measure_sensitivities
from repro.workloads.registry import get_kernel

#: The two Figure 7 kernels with the paper's numbers.
FIGURE7_KERNELS: Tuple[Tuple[str, float], ...] = (
    ("Sort.BottomScan", 0.30),
    ("CoMD.AdvanceVelocity", 1.00),
)


class OccupancyRow(NamedTuple):
    """One kernel's occupancy and bandwidth sensitivity."""

    kernel: str
    occupancy: float
    paper_occupancy: float
    limiting_resource: str
    waves_per_simd: int
    bandwidth_sensitivity: float


class OccupancyResultPair(NamedTuple):
    """Figure 7's two bars."""

    rows: Tuple[OccupancyRow, OccupancyRow]

    @property
    def low_occupancy(self) -> OccupancyRow:
        """The occupancy-limited kernel (Sort.BottomScan)."""
        return min(self.rows, key=lambda r: r.occupancy)

    @property
    def high_occupancy(self) -> OccupancyRow:
        """The fully occupied kernel (CoMD.AdvanceVelocity)."""
        return max(self.rows, key=lambda r: r.occupancy)


def run(context: ExperimentContext) -> OccupancyResultPair:
    """Occupancy + measured bandwidth sensitivity for both kernels."""
    platform = context.platform
    arch = platform.calibration.arch
    rows = []
    for kernel_name, paper_occupancy in FIGURE7_KERNELS:
        spec = get_kernel(kernel_name).base
        occupancy = compute_occupancy(
            arch,
            vgprs_per_workitem=spec.vgprs_per_workitem,
            sgprs_per_wave=spec.sgprs_per_wave,
            lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup,
            workgroup_size=spec.workgroup_size,
        )
        measured = measure_sensitivities(platform, spec)
        rows.append(OccupancyRow(
            kernel=kernel_name,
            occupancy=occupancy.occupancy,
            paper_occupancy=paper_occupancy,
            limiting_resource=occupancy.limiting_resource,
            waves_per_simd=occupancy.waves_per_simd,
            bandwidth_sensitivity=measured.bandwidth,
        ))
    return OccupancyResultPair(rows=(rows[0], rows[1]))


def format_report(result: OccupancyResultPair) -> str:
    """Render the Figure 7 bars."""
    rows = [
        (r.kernel, f"{r.occupancy:.0%}", f"{r.paper_occupancy:.0%}",
         r.limiting_resource, str(r.waves_per_simd),
         f"{r.bandwidth_sensitivity:.2f}")
        for r in result.rows
    ]
    return format_table(
        headers=("kernel", "occupancy", "paper", "limiter", "waves/SIMD",
                 "BW sensitivity"),
        rows=rows,
        title=("Figure 7: occupancy-limited kernels are insensitive to "
               "memory bus frequency"),
    )
