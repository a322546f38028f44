"""Decomposing the Harmonia-to-oracle ED² gap.

EXPERIMENTS.md documents one headline deviation from the paper: our
exhaustive ED² oracle leads Harmonia by ~8 points where the paper reports
~3. This experiment attributes the gap by interposing a third scheme, a
**performance-constrained oracle**: exhaustive per-launch search like the
oracle, but restricted to configurations whose launch time stays within
Harmonia's own FG tolerance of the baseline.

The decomposition per application:

* ``oracle − perf_oracle`` — what the unconstrained oracle buys by
  *trading performance away* (a few percent of time for large power
  cuts). Harmonia's design explicitly refuses this trade ("we seek to
  concurrently minimize performance impact"), so this share of the gap is
  a policy difference, not a deficiency.
* ``perf_oracle − harmonia`` — what free exhaustive profiling buys over
  online adaptation at the *same* performance constraint: the honest
  adaptation gap.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.core.policy import HistoryMixin, LaunchContext
from repro.experiments.context import ExperimentContext
from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.session import BatchSessionRunner


class PerfConstrainedOracle(HistoryMixin):
    """Exhaustive ED² search restricted to near-baseline performance."""

    def __init__(self, platform: HardwarePlatform,
                 perf_tolerance: float = 0.01):
        super().__init__()
        self._platform = platform
        self._tolerance = perf_tolerance
        self._cache: Dict[KernelSpec, HardwareConfig] = {}

    @property
    def name(self) -> str:
        """Policy name."""
        return "perf-oracle"

    def reset(self) -> None:
        """Forget run history (the exact profile cache survives)."""
        self.clear_history()

    def best_config_for_spec(self, spec: KernelSpec) -> HardwareConfig:
        """ED²-optimal config among those within the perf tolerance."""
        if spec in self._cache:
            return self._cache[spec]
        # Constrained argmin over the shared cached sweep surface. This
        # serves noisy platforms too: the launch-keyed draws applied after
        # the cache lookup make every element bitwise identical to a
        # scalar run_kernel call, and np.argmin returns the first minimum
        # in grid order — the same config a strict-< scalar loop keeps.
        surface = self._platform.grid_sweep(spec)
        limit = (surface.time_at(self._platform.baseline_config())
                 * (1.0 + self._tolerance))
        metric = np.where(surface.time <= limit, surface.ed2, np.inf)
        best_config = surface.configs[int(np.argmin(metric))]
        self._cache[spec] = best_config
        return best_config

    def config_for(self, context: LaunchContext) -> HardwareConfig:
        """Profile exhaustively under the performance constraint."""
        return self.best_config_for_spec(context.spec)

    def observe(self, context: LaunchContext, result) -> None:
        """No feedback needed."""
        self.history_for(context.kernel_name).record(result)


class GapRow(NamedTuple):
    """One application's gap decomposition (ED² improvements)."""

    application: str
    harmonia: float
    perf_oracle: float
    oracle: float

    @property
    def perf_trading_share(self) -> float:
        """Gap points attributable to trading performance away."""
        return self.oracle - self.perf_oracle

    @property
    def adaptation_share(self) -> float:
        """Gap points attributable to online adaptation vs free search."""
        return self.perf_oracle - self.harmonia


class OracleGapResult(NamedTuple):
    """The decomposition across all applications."""

    rows: Tuple[GapRow, ...]
    geomean_harmonia: float
    geomean_perf_oracle: float
    geomean_oracle: float

    def mean_perf_trading_share(self) -> float:
        """Average points the oracle gains by sacrificing performance."""
        return self.geomean_oracle - self.geomean_perf_oracle

    def mean_adaptation_share(self) -> float:
        """Average points free profiling gains at equal perf constraint."""
        return self.geomean_perf_oracle - self.geomean_harmonia


def run(context: ExperimentContext) -> OracleGapResult:
    """Run the three-way comparison over all applications."""
    summary = context.evaluation
    platform = context.platform
    runner = BatchSessionRunner(platform)
    perf_oracle = PerfConstrainedOracle(platform)

    rows = []
    ratios_po = []
    for app in context.applications:
        base = summary.runs[app.name]["baseline"].metrics
        po_run = runner.run(app, perf_oracle)
        po = 1.0 - po_run.metrics.ed2 / base.ed2
        rows.append(GapRow(
            application=app.name,
            harmonia=summary.comparison(app.name, "harmonia").ed2_improvement,
            perf_oracle=po,
            oracle=summary.comparison(app.name, "oracle").ed2_improvement,
        ))
        ratios_po.append(1.0 - po)
    from repro.runtime.metrics import geomean
    return OracleGapResult(
        rows=tuple(rows),
        geomean_harmonia=summary.geomean_ed2("harmonia"),
        geomean_perf_oracle=1.0 - geomean(ratios_po),
        geomean_oracle=summary.geomean_ed2("oracle"),
    )


def format_report(result: OracleGapResult) -> str:
    """Render the decomposition."""
    rows = [
        (r.application, f"{r.harmonia:+.1%}", f"{r.perf_oracle:+.1%}",
         f"{r.oracle:+.1%}", f"{r.adaptation_share:+.1%}",
         f"{r.perf_trading_share:+.1%}")
        for r in result.rows
    ]
    rows.append((
        "geomean",
        f"{result.geomean_harmonia:+.1%}",
        f"{result.geomean_perf_oracle:+.1%}",
        f"{result.geomean_oracle:+.1%}",
        f"{result.mean_adaptation_share():+.1%}",
        f"{result.mean_perf_trading_share():+.1%}",
    ))
    return format_table(
        headers=("app", "harmonia", "perf-oracle", "oracle",
                 "adaptation gap", "perf-trading gap"),
        rows=rows,
        title=("Oracle-gap decomposition: how much of the oracle's lead "
               "comes from trading performance away (which Harmonia "
               "refuses by design) vs from free exhaustive profiling"),
    )
