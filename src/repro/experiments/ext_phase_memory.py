"""Extension: per-phase configuration recall on recurring phases.

Section 5.1: "Harmonia records the last best hardware configuration for
all kernels within that application. This state is the initial state for
the subsequent iteration. Such iterative behaviors are quite common in
HPC and scientific applications."

Graph500's BFS levels recur every traversal; when a level persists long
enough for the FG loop to refine its configuration, recalling that refined
state on the next traversal skips the whole CG + FG adaptation. This
experiment runs a slowed-down two-traversal BFS (each level lasting
several kernel iterations — large graphs where one level spans many
kernel launches) with recall enabled vs disabled.

Finding on this substrate: recall is *neutral* — the coarse-grain jump
already lands each phase near its settled configuration, so there is
little adaptation cost left to skip, and the validation guard keeps
recalled configurations from ever doing harm. The mechanism's value is
robustness (recalls can never be worse than one guarded iteration), and
it would grow on platforms where CG mispredicts more.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.report import format_table
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.experiments.context import ExperimentContext
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.workloads.application import Application
from repro.workloads.registry import get_application

KERNEL = "Graph500.BottomStepUp"
TRAVERSALS = 2
#: kernel launches per BFS level (large graphs: one level = many launches)
LAUNCHES_PER_LEVEL = 6


class PhaseMemoryResult(NamedTuple):
    """Recall-on vs recall-off on the multi-traversal Graph500."""

    ed2_without: float
    ed2_with: float
    perf_without: float
    perf_with: float
    recalls: int
    distinct_phases: int

    @property
    def ed2_gain_from_recall(self) -> float:
        """ED² points the recall adds."""
        return self.ed2_with - self.ed2_without


def _long_graph500() -> Application:
    """A slow-frontier Graph500: each BFS level spans several launches."""
    from repro.workloads.kernel import TableSchedule, WorkloadKernel
    base = get_application("Graph500")
    kernels = []
    for kernel in base.kernels:
        schedule = kernel.schedule
        if isinstance(schedule, TableSchedule):
            stretched = tuple(
                row for row in schedule.rows
                for _ in range(LAUNCHES_PER_LEVEL)
            )
            kernel = WorkloadKernel(
                base=kernel.base,
                schedule=TableSchedule(rows=stretched, wrap=True),
            )
        kernels.append(kernel)
    return Application(
        name="Graph500slow",
        suite="Graph500",
        kernels=tuple(kernels),
        iterations=base.iterations * LAUNCHES_PER_LEVEL * TRAVERSALS,
    )


def run(context: ExperimentContext) -> PhaseMemoryResult:
    """Compare phase recall on vs off over three BFS traversals."""
    platform = context.platform
    training = context.training
    app = _long_graph500()

    def harmonia(enable_memory: bool) -> HarmoniaPolicy:
        return HarmoniaPolicy(
            platform.config_space, training.compute, training.bandwidth,
            enable_phase_memory=enable_memory,
        )

    without_policy = harmonia(False)
    with_policy = harmonia(True)
    baseline, without, with_recall = BatchSessionRunner(
        platform
    ).run_sessions([
        SessionSpec(application=app, policy=policy)
        for policy in (BaselinePolicy(platform.config_space),
                       without_policy, with_policy)
    ])

    return PhaseMemoryResult(
        ed2_without=1 - without.metrics.ed2 / baseline.metrics.ed2,
        ed2_with=1 - with_recall.metrics.ed2 / baseline.metrics.ed2,
        perf_without=baseline.metrics.time / without.metrics.time - 1,
        perf_with=baseline.metrics.time / with_recall.metrics.time - 1,
        recalls=with_policy.stats(KERNEL).phase_recalls,
        distinct_phases=with_policy.phase_memory.phase_count(KERNEL),
    )


def format_report(result: PhaseMemoryResult) -> str:
    """Render the recall comparison."""
    rows = [
        ("recall off", f"{result.ed2_without:+.1%}",
         f"{result.perf_without:+.1%}", "-"),
        ("recall on", f"{result.ed2_with:+.1%}",
         f"{result.perf_with:+.1%}",
         f"{result.recalls} recalls / {result.distinct_phases} phases"),
    ]
    return format_table(
        headers=("variant", "ED2 vs baseline", "performance", "recall stats"),
        rows=rows,
        title=("Extension [Section 5.1 history, per phase]: recall "
               "restores settled configurations on recurring traversals "
               f"({result.ed2_gain_from_recall:+.1%} ED2; neutral-or-better "
               "by construction — recalls are validation-guarded)"),
    )
