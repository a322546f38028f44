"""Figure 18: relative contributions of CG vs FG tuning.

The paper decomposes the energy-efficiency (ED²) improvement per
application into the part CG tuning alone achieves and the part the FG
loop adds, and reports convergence behaviour: CG typically needs a single
iteration; FG adds another 3-4 to converge. For CG outliers (LUD, SPMV)
the FG share dominates; for single-shot applications (XSBench, 2
iterations) CG does all the work.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

#: Subset shown in the paper's figure.
FIGURE18_APPS: Tuple[str, ...] = (
    "LUD", "SPMV", "XSBench", "CoMD", "Stencil", "Sort", "miniFE", "CFD",
)


class ContributionRow(NamedTuple):
    """One application's CG/FG decomposition."""

    application: str
    ed2_cg: float
    ed2_harmonia: float

    @property
    def fg_contribution(self) -> float:
        """The ED² improvement the FG loop adds on top of CG."""
        return self.ed2_harmonia - self.ed2_cg


class ConvergenceRow(NamedTuple):
    """FG convergence of one kernel under Harmonia."""

    kernel: str
    iterations_to_settle: int
    cg_actions: int = 0
    fg_actions: int = 0


class CgFgResult(NamedTuple):
    """Figure 18 decomposition plus convergence measurements."""

    contributions: Tuple[ContributionRow, ...]
    convergence: Tuple[ConvergenceRow, ...]

    def median_settle_iterations(self) -> float:
        """Median kernel-boundary iterations until the config settles."""
        counts = sorted(r.iterations_to_settle for r in self.convergence)
        mid = len(counts) // 2
        if len(counts) % 2:
            return float(counts[mid])
        return 0.5 * (counts[mid - 1] + counts[mid])


def _settle_iterations(
    context: ExperimentContext, app_name: str
) -> Dict[str, ConvergenceRow]:
    """Iterations until each kernel's configuration stops changing, read
    from the evaluation's Harmonia run."""
    app = context.application(app_name)
    result = context.evaluation.runs[app_name]["harmonia"]
    controller_stats = dict(result.controller_stats)
    settle: Dict[str, ConvergenceRow] = {}
    for kernel in app.kernels:
        records = result.trace.records_for_kernel(kernel.name)
        last_change = 0
        for index in range(1, len(records)):
            if records[index].config != records[index - 1].config:
                last_change = index
        stats = controller_stats[kernel.name]
        settle[kernel.name] = ConvergenceRow(
            kernel=kernel.name,
            iterations_to_settle=last_change,
            cg_actions=stats.cg_actions,
            fg_actions=stats.fg_actions,
        )
    return settle


def run(context: ExperimentContext) -> CgFgResult:
    """Decompose ED² gains into CG and FG shares; measure convergence."""
    summary = context.evaluation
    contributions = tuple(
        ContributionRow(
            application=app,
            ed2_cg=summary.comparison(app, "cg-only").ed2_improvement,
            ed2_harmonia=summary.comparison(app, "harmonia").ed2_improvement,
        )
        for app in FIGURE18_APPS
    )
    convergence = []
    for app_name in ("Sort", "Stencil", "miniFE"):
        convergence.extend(_settle_iterations(context, app_name).values())
    return CgFgResult(contributions=contributions,
                      convergence=tuple(convergence))


def format_report(result: CgFgResult) -> str:
    """Render the decomposition and convergence tables."""
    decomposition = format_table(
        headers=("app", "CG ED2", "FG adds", "FG+CG ED2"),
        rows=[
            (r.application, f"{r.ed2_cg:+.1%}", f"{r.fg_contribution:+.1%}",
             f"{r.ed2_harmonia:+.1%}")
            for r in result.contributions
        ],
        title=("Figure 18: relative contributions of CG vs FG "
               "(paper: FG dominates for CG outliers like LUD/SPMV)"),
    )
    convergence = format_table(
        headers=("kernel", "iterations to settle", "CG actions", "FG actions"),
        rows=[(r.kernel, str(r.iterations_to_settle),
               str(r.cg_actions), str(r.fg_actions))
              for r in result.convergence],
        title=(f"Convergence (median {result.median_settle_iterations():.0f} "
               "iterations; paper: CG 1 iteration + FG 3-4)"),
    )
    return "\n\n".join([decomposition, convergence])
