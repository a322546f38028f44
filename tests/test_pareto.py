"""Pareto properties of the model's perf/power design space.

A point is dominated when another grid point is at least as fast at no
more power and strictly better on one of the two. Figure 6's metric
optima must be non-dominated, and the configuration Harmonia settles a
kernel at must sit close to the best performance available at its power.
"""

import pytest

from repro.analysis.sweep import ConfigSweep
from repro.runtime.session import BatchSessionRunner
from repro.workloads.registry import get_kernel


@pytest.fixture(scope="module")
def lud_sweep(platform):
    return ConfigSweep(platform, get_kernel("LUD.Internal").base)


def _dominated(point, points) -> bool:
    return any(
        other.performance >= point.performance
        and other.card_power <= point.card_power
        and (other.performance > point.performance
             or other.card_power < point.card_power)
        for other in points
    )


class TestFrontier:
    def test_metric_optima_lie_on_frontier(self, lud_sweep):
        # Figure 6's performance and ED2 optima must be non-dominated.
        for point in (lud_sweep.optimum_performance(),
                      lud_sweep.optimum_ed2()):
            assert not _dominated(point, lud_sweep.points)


class TestDistance:
    def test_harmonia_settles_near_frontier(self, context, lud_sweep):
        # The configuration Harmonia settles LUD.Internal at must reach
        # within 10% of the best performance any grid point gives at no
        # more (+0.1%) power.
        run = BatchSessionRunner(context.platform).run(
            context.application("LUD"), context.harmonia_policy()
        )
        final = run.trace.records_for_kernel("LUD.Internal")[-1].result
        achievable = max(
            point.performance for point in lud_sweep.points
            if point.card_power <= final.power.card * 1.001
        )
        assert (achievable - final.performance) / achievable < 0.10
