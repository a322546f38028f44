"""Figures 14-16: Harmonia's adaptation to Graph500's phases.

* **Figure 14** — the instruction totals (VALUInsts / VFetchInsts /
  VWriteInsts) of ``Graph500.BottomStepUp`` vary widely across its eight
  successive iterations as the BFS frontier expands and contracts.
* **Figure 15** — under Harmonia the memory bus frequency dithers, mostly
  between 925 and 775 MHz, tracking the bandwidth-sensitivity changes.
* **Figure 16** — residency of all three tunables over the whole run: the
  compute frequency stays pinned at 1 GHz (divergence keeps compute
  sensitivity high), the CU count stays at 32 most of the time, and the
  memory bus spreads across several frequencies (paper: 1375/925/775/475
  at roughly 25/23/42/8%).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.runtime.trace import ResidencyTable
from repro.units import hz_to_mhz

KERNEL = "Graph500.BottomStepUp"


class PhaseRow(NamedTuple):
    """One Figure 14 iteration of BottomStepUp."""

    iteration: int
    valu_insts_millions: float
    vfetch_insts_millions: float
    vwrite_insts_millions: float
    time: float


class Graph500Result(NamedTuple):
    """Figures 14-16 data from one Harmonia run of Graph500."""

    phases: Tuple[PhaseRow, ...]
    mem_residency: ResidencyTable
    cu_residency: ResidencyTable
    f_cu_residency: ResidencyTable

    def instruction_swing(self) -> float:
        """max/min ratio of per-iteration VALU instruction totals."""
        totals = [p.valu_insts_millions for p in self.phases]
        return max(totals) / min(totals)

    def dominant_f_cu(self) -> float:
        """The compute frequency with the highest residency (Hz)."""
        return self.f_cu_residency.dominant_value()

    def mem_frequencies_visited(self) -> int:
        """How many distinct memory bus frequencies the run visited."""
        return len(self.mem_residency.fractions)


def run(context: ExperimentContext) -> Graph500Result:
    """Extract the three figures from the shared evaluation's Harmonia
    run of Graph500."""
    run_result = context.evaluation.runs["Graph500"]["harmonia"]

    phases = []
    for record in run_result.trace.records_for_kernel(KERNEL):
        counters = record.result.counters
        phases.append(PhaseRow(
            iteration=record.iteration,
            valu_insts_millions=counters.valu_insts_millions,
            vfetch_insts_millions=counters.vfetch_insts_millions,
            vwrite_insts_millions=counters.vwrite_insts_millions,
            time=record.time,
        ))
    return Graph500Result(
        phases=tuple(phases),
        mem_residency=run_result.trace.f_mem_residency(),
        cu_residency=run_result.trace.cu_residency(),
        f_cu_residency=run_result.trace.f_cu_residency(),
    )


def format_report(result: Graph500Result) -> str:
    """Render Figures 14, 15 and 16."""
    fig14 = format_table(
        headers=("iter", "VALU (M)", "VFetch (M)", "VWrite (M)", "time ms"),
        rows=[
            (str(p.iteration), f"{p.valu_insts_millions:.0f}",
             f"{p.vfetch_insts_millions:.1f}", f"{p.vwrite_insts_millions:.1f}",
             f"{p.time * 1e3:.2f}")
            for p in result.phases
        ],
        title=(f"Figure 14: {KERNEL} instruction totals over iterations "
               f"(swing {result.instruction_swing():.1f}x; paper: large "
               "iteration-to-iteration variation)"),
    )

    def residency_rows(table: ResidencyTable, fmt) -> list:
        return [
            (fmt(value), f"{fraction:.0%}")
            for value, fraction in sorted(table.fractions.items())
        ]

    fig15 = format_table(
        headers=("mem bus MHz", "residency"),
        rows=residency_rows(result.mem_residency,
                            lambda v: f"{hz_to_mhz(v):.0f}"),
        title=("Figures 15/16 [memory]: bus-frequency residency "
               "(paper: spread over 1375/925/775/475 ~ 25/23/42/8%)"),
    )
    fig16_cu = format_table(
        headers=("active CUs", "residency"),
        rows=residency_rows(result.cu_residency, lambda v: f"{v:.0f}"),
        title="Figure 16 [#CUs]: paper: ~90% of time at 32 CUs",
    )
    fig16_f = format_table(
        headers=("compute MHz", "residency"),
        rows=residency_rows(result.f_cu_residency,
                            lambda v: f"{hz_to_mhz(v):.0f}"),
        title="Figure 16 [CUFreq]: paper: pinned at the 1 GHz boost state",
    )
    return "\n\n".join([fig14, fig15, fig16_cu, fig16_f])
