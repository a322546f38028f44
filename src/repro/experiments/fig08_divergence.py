"""Figure 8: divergence alone does not imply compute-frequency sensitivity.

``SRAD.Prepare`` diverges heavily (~75%) but executes only 8 ALU
instructions per workitem — launch overhead dominates, so compute
frequency barely matters. ``Sort.BottomScan`` diverges only 6% but
executes millions of dynamic instructions, so thread serialization makes
it strongly compute-frequency sensitive.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.sensitivity.measurement import measure_sensitivities
from repro.workloads.registry import get_kernel

#: The two Figure 8 kernels with the paper's divergence numbers.
FIGURE8_KERNELS: Tuple[Tuple[str, float], ...] = (
    ("SRAD.Prepare", 0.75),
    ("Sort.BottomScan", 0.06),
)


class DivergenceRow(NamedTuple):
    """One kernel's divergence vs compute-frequency sensitivity."""

    kernel: str
    branch_divergence: float
    paper_divergence: float
    alu_insts_per_item: float
    total_insts_millions: float
    frequency_sensitivity: float


class DivergenceResultPair(NamedTuple):
    """Figure 8's two bar groups."""

    rows: Tuple[DivergenceRow, DivergenceRow]

    @property
    def divergent_small(self) -> DivergenceRow:
        """High divergence, tiny kernel (SRAD.Prepare)."""
        return max(self.rows, key=lambda r: r.branch_divergence)

    @property
    def coherent_large(self) -> DivergenceRow:
        """Low divergence, huge kernel (Sort.BottomScan)."""
        return min(self.rows, key=lambda r: r.branch_divergence)


def run(context: ExperimentContext) -> DivergenceResultPair:
    """Divergence and measured compute-frequency sensitivity."""
    platform = context.platform
    rows = []
    for kernel_name, paper_divergence in FIGURE8_KERNELS:
        spec = get_kernel(kernel_name).base
        measured = measure_sensitivities(platform, spec)
        total_insts = spec.total_workitems * spec.valu_insts_per_item / 1.0e6
        rows.append(DivergenceRow(
            kernel=kernel_name,
            branch_divergence=spec.branch_divergence,
            paper_divergence=paper_divergence,
            alu_insts_per_item=spec.valu_insts_per_item,
            total_insts_millions=total_insts,
            frequency_sensitivity=measured.f_cu,
        ))
    return DivergenceResultPair(rows=(rows[0], rows[1]))


def format_report(result: DivergenceResultPair) -> str:
    """Render the Figure 8 bars."""
    rows = [
        (r.kernel, f"{r.branch_divergence:.0%}", f"{r.paper_divergence:.0%}",
         f"{r.alu_insts_per_item:.0f}", f"{r.total_insts_millions:.1f}M",
         f"{r.frequency_sensitivity:.2f}")
        for r in result.rows
    ]
    return format_table(
        headers=("kernel", "divergence", "paper", "ALU/item", "total insts",
                 "freq sensitivity"),
        rows=rows,
        title=("Figure 8: kernel size gates the impact of divergence on "
               "compute-frequency sensitivity"),
    )
