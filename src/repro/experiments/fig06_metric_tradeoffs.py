"""Figure 6: what each optimization target costs.

For LUD and DeviceMemory the paper exhaustively searches all ~450
configurations for (i) minimum energy, (ii) minimum ED², (iii) maximum
performance, and reports the resulting performance/energy/ED²/ED of each,
normalized to the best-performing configuration. Anchors:

* energy-optimal loses **69% / 66%** performance (LUD / DeviceMemory),
* ED²-optimal loses only **~1%** performance while saving **60% / 38%**
  energy relative to the energy-optimal... (relative to the performance
  point the paper states the ED²-optimal config "still realizes 60% and
  38% reduction in energy compared to the energy optimized case" — i.e.
  compared to what the energy-obsessed configuration would give up).
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.analysis.sweep import ConfigSweep, SweepPoint
from repro.experiments.context import ExperimentContext
from repro.workloads.registry import get_kernel

#: The two Figure 6 workloads.
FIGURE6_KERNELS: Tuple[Tuple[str, str], ...] = (
    ("LUD", "LUD.Internal"),
    ("DeviceMemory", "DeviceMemory.DeviceMemory"),
)


class OptimumRow(NamedTuple):
    """One optimization target's outcome, normalized to best-performing."""

    target: str
    config: str
    performance: float
    energy: float
    ed2: float
    ed: float


class MetricTradeoffResult(NamedTuple):
    """Figure 6 for one workload."""

    workload: str
    rows: Tuple[OptimumRow, ...]

    def row(self, target: str) -> OptimumRow:
        """Row for one optimization target."""
        for row in self.rows:
            if row.target == target:
                return row
        raise KeyError(target)

    @property
    def energy_opt_perf_loss(self) -> float:
        """Performance loss of the energy-optimal configuration."""
        return 1.0 - self.row("min-energy").performance

    @property
    def ed2_opt_perf_loss(self) -> float:
        """Performance loss of the ED²-optimal configuration."""
        return 1.0 - self.row("min-ed2").performance


def run_workload(workload: str, kernel_name: str,
                 context: ExperimentContext) -> MetricTradeoffResult:
    """Exhaustive metric-optimal search for one workload."""
    sweep = ConfigSweep(context.platform, get_kernel(kernel_name).base)
    best_perf = sweep.optimum_performance()

    def normalized(target: str, point: SweepPoint) -> OptimumRow:
        return OptimumRow(
            target=target,
            config=point.config.describe(),
            performance=point.performance / best_perf.performance,
            energy=point.energy / best_perf.energy,
            ed2=point.ed2 / best_perf.ed2,
            ed=point.ed / best_perf.ed,
        )

    rows = (
        normalized("min-energy", sweep.optimum_energy()),
        normalized("min-ed2", sweep.optimum_ed2()),
        normalized("max-perf", best_perf),
    )
    return MetricTradeoffResult(workload=workload, rows=rows)


def run(context: ExperimentContext) -> Dict[str, MetricTradeoffResult]:
    """Figure 6 for both workloads."""
    return {
        workload: run_workload(workload, kernel, context)
        for workload, kernel in FIGURE6_KERNELS
    }


def format_report(results: Mapping[str, MetricTradeoffResult]) -> str:
    """Render the three-bar groups of Figure 6."""
    sections = []
    for workload, result in results.items():
        rows = [
            (r.target, r.config, f"{r.performance:.2f}", f"{r.energy:.2f}",
             f"{r.ed2:.2f}", f"{r.ed:.2f}")
            for r in result.rows
        ]
        sections.append(format_table(
            headers=("target", "config", "perf", "energy", "ED2", "ED"),
            rows=rows,
            title=(f"Figure 6 [{workload}]: normalized to best-performing "
                   "(paper: energy-opt loses 66-69% perf; ED2-opt ~1%)"),
        ))
    return "\n\n".join(sections)
