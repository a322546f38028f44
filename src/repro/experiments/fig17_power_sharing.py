"""Figure 17: coordinated power sharing between GPU and memory.

For a subset of applications the paper plots GPU and memory power under
baseline and Harmonia, normalized to the baseline total. Anchors: of the
average 12% card-power saving, ~64% comes from the GPU compute
configuration and ~36% from the memory bus frequency (memory savings would
be larger with bus voltage scaling, which neither the paper's platform nor
ours can do).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

#: The application subset shown in the figure.
FIGURE17_APPS: Tuple[str, ...] = (
    "CoMD", "XSBench", "Graph500", "BPT", "Sort", "Stencil", "miniFE",
)


class PowerSharingRow(NamedTuple):
    """One application's GPU/memory power split, baseline vs Harmonia."""

    application: str
    baseline_gpu: float
    baseline_memory: float
    harmonia_gpu: float
    harmonia_memory: float

    @property
    def gpu_saving(self) -> float:
        """GPU power saved (W)."""
        return self.baseline_gpu - self.harmonia_gpu

    @property
    def memory_saving(self) -> float:
        """Memory power saved (W)."""
        return self.baseline_memory - self.harmonia_memory


class PowerSharingResult(NamedTuple):
    """Figure 17 across the application subset."""

    rows: Tuple[PowerSharingRow, ...]

    def savings_split(self) -> Tuple[float, float]:
        """(GPU share, memory share) of the total power saved."""
        gpu = sum(max(0.0, r.gpu_saving) for r in self.rows)
        mem = sum(max(0.0, r.memory_saving) for r in self.rows)
        total = gpu + mem
        if total <= 0:
            return 0.0, 0.0
        return gpu / total, mem / total


def run(context: ExperimentContext) -> PowerSharingResult:
    """Extract the GPU/memory split from the evaluation matrix."""
    summary = context.evaluation
    rows = []
    for app in FIGURE17_APPS:
        comparison = summary.comparison(app, "harmonia")
        rows.append(PowerSharingRow(
            application=app,
            baseline_gpu=comparison.baseline.avg_gpu_power,
            baseline_memory=comparison.baseline.avg_memory_power,
            harmonia_gpu=comparison.candidate.avg_gpu_power,
            harmonia_memory=comparison.candidate.avg_memory_power,
        ))
    return PowerSharingResult(rows=tuple(rows))


def format_report(result: PowerSharingResult) -> str:
    """Render the Figure 17 stacked bars as a table."""
    rows = []
    for r in result.rows:
        base_total = r.baseline_gpu + r.baseline_memory
        hm_total = r.harmonia_gpu + r.harmonia_memory
        rows.append((
            r.application,
            f"{r.baseline_gpu:.0f}", f"{r.baseline_memory:.0f}",
            f"{r.harmonia_gpu:.0f}", f"{r.harmonia_memory:.0f}",
            f"{hm_total / base_total:.2f}",
        ))
    gpu_share, mem_share = result.savings_split()
    rows.append((
        "savings split", f"GPU {gpu_share:.0%}", f"mem {mem_share:.0%}",
        "paper:", "64%", "36%",
    ))
    return format_table(
        headers=("app", "base GPU W", "base mem W", "HM GPU W", "HM mem W",
                 "HM/base"),
        rows=rows,
        title="Figure 17: relative GPU and memory power consumption",
    )
