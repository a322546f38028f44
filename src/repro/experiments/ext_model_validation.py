"""Extension: cross-validation of the analytical performance model.

The entire reproduction rests on the analytical model's execution-time
surfaces. This experiment validates them against the independent
event-driven wavefront simulator (:mod:`repro.perf.eventsim`), which
shares only the machine description and memory-bandwidth inputs — its
scheduling, queueing and stall behaviour are modelled from scratch.

For every one of the 25 kernels, both models evaluate a spread of
hardware configurations; the experiment reports the per-kernel relative
time deviation and the correlation of the two models' performance
rankings across the configuration sample.

The event-driven surfaces are produced by the batched lockstep engine
(:mod:`repro.perf.eventsim_batch`) — one vectorized numpy event loop
over every missing (kernel, config) lane, bitwise-identical to the
scalar simulator, which stays in the tree as the test oracle.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.memory.controller import MemoryControllerModel
from repro.perf.eventsim_batch import BatchedEventModel
from repro.platform.store import EVENTSIM_KIND
from repro.platform.sweepcache import shared_cache
from repro.sensitivity.regression import pearson
from repro.telemetry.spans import ambient_telemetry
from repro.units import MHZ
from repro.workloads.registry import all_kernels


class ValidationRow(NamedTuple):
    """One kernel's analytical-vs-event-driven agreement."""

    kernel: str
    mean_abs_deviation: float
    max_abs_deviation: float
    rank_correlation: float


class ModelValidationResult(NamedTuple):
    """Agreement across all kernels."""

    rows: Tuple[ValidationRow, ...]
    configs_per_kernel: int

    def worst_mean_deviation(self) -> float:
        """Largest per-kernel mean deviation."""
        return max(r.mean_abs_deviation for r in self.rows)

    def overall_mean_deviation(self) -> float:
        """Mean of the per-kernel mean deviations."""
        return sum(r.mean_abs_deviation for r in self.rows) / len(self.rows)

    def min_correlation(self) -> float:
        """Weakest per-kernel performance-ranking correlation."""
        return min(r.rank_correlation for r in self.rows)


def _sample_configs(space) -> List:
    """A 3x3x3 corner/midpoint sample of the configuration grid."""
    cus = (space.cu_counts[0], space.cu_counts[3], space.cu_counts[-1])
    f_cus = (space.compute_frequencies[0], space.compute_frequencies[4],
             space.compute_frequencies[-1])
    f_mems = (space.memory_frequencies[0], space.memory_frequencies[3],
              space.memory_frequencies[-1])
    from repro.gpu.config import HardwareConfig
    return [
        HardwareConfig(n, f, m)
        for n in cus for f in f_cus for m in f_mems
    ]


def _batch_simulate(calibration, specs, configs) -> List[np.ndarray]:
    """Batched event-driven surfaces, one float64 array per spec.

    All (spec, config) lanes run through one lockstep engine call; the
    telemetry span and the ``eventsim_batch_lanes_total`` counter make
    the engine's share of a reproduce run visible in
    ``telemetry-report --metrics``.
    """
    controller = MemoryControllerModel(
        arch=calibration.arch, timing=calibration.gddr5_timing
    )
    batch_model = BatchedEventModel(
        calibration.arch, controller, calibration.clock_domain_model()
    )
    telemetry = ambient_telemetry()
    with telemetry.span("eventsim.batch", kernels=len(specs),
                        configs=len(configs)):
        results = batch_model.run_batch(specs, configs)
    if telemetry.enabled:
        telemetry.metrics.counter(
            "eventsim_batch_lanes_total",
            "lanes simulated by the batched lockstep event engine",
        ).inc(len(specs) * len(configs))
    return [
        np.array([r.time for r in row], dtype=np.float64)
        for row in results
    ]


def _load_event_times(store, calibration, spec,
                      configs) -> Optional[np.ndarray]:
    """The persisted event-driven surface for one kernel, or None.

    The simulator is deterministic and the most expensive stage of a
    cold ``reproduce`` (two million events through the batched lockstep
    engine), so its validation surface is persisted in the
    content-addressed sweep store when one is attached to the shared
    cache: keyed by calibration, spec and the exact config sample, a warm
    process loads the surface bitwise instead of re-simulating 27
    configurations per kernel.
    A record at the key's address whose surface is malformed counts as a
    miss (the caller recomputes and overwrites). The surface stays a numpy
    array end-to-end — the deviation and correlation rows consume it
    without a list round-trip.
    """
    if store is None:
        return None

    def decode(arrays, meta) -> np.ndarray:
        times = np.asarray(arrays["time"], dtype=np.float64)
        if times.shape != (len(configs),):
            raise ValueError("event-driven surface of the wrong length")
        return times

    return store.load_record(
        EVENTSIM_KIND, (calibration, spec, tuple(configs)), decode=decode
    )


def run(context: ExperimentContext) -> ModelValidationResult:
    """Run both models over all kernels and a 27-point config sample."""
    platform = context.platform
    calibration = platform.calibration
    configs = _sample_configs(platform.config_space)
    kernels = list(all_kernels())
    store = shared_cache().store

    # Serve every kernel the store already covers, then simulate the rest:
    # every missing (kernel, config) lane runs as one vectorized lockstep
    # event loop, and its surface is written back to the store.
    event_driven = {}
    missing = []
    for kernel in kernels:
        times = _load_event_times(store, calibration, kernel.base, configs)
        if times is None:
            missing.append(kernel)
        else:
            event_driven[kernel.name] = times
    if missing:
        surfaces = _batch_simulate(
            calibration, [kernel.base for kernel in missing], configs
        )
        for kernel, times in zip(missing, surfaces):
            if store is not None:
                store.save_record(
                    EVENTSIM_KIND, (calibration, kernel.base, tuple(configs)),
                    {"time": times},
                    meta={"kernel_name": kernel.base.name},
                )
            event_driven[kernel.name] = times

    rows = []
    for kernel in kernels:
        # Every sampled point is a grid point: the analytical times come
        # from the kernel's cached (and store-served) sweep surface, as
        # one vectorized gather against the surface array.
        surface = platform.grid_sweep(kernel.base)
        indices = np.array([surface.index_of(config) for config in configs],
                           dtype=np.intp)
        analytical = surface.time[indices]
        times = event_driven[kernel.name]
        deviations = np.abs(times / analytical - 1.0)
        correlation = pearson(1.0 / analytical, 1.0 / times)
        rows.append(ValidationRow(
            kernel=kernel.name,
            mean_abs_deviation=float(deviations.mean()),
            max_abs_deviation=float(deviations.max()),
            rank_correlation=correlation,
        ))
    return ModelValidationResult(rows=tuple(rows),
                                 configs_per_kernel=len(configs))


def format_report(result: ModelValidationResult) -> str:
    """Render the per-kernel agreement table."""
    rows = [
        (r.kernel, f"{r.mean_abs_deviation:.1%}",
         f"{r.max_abs_deviation:.1%}", f"{r.rank_correlation:.3f}")
        for r in result.rows
    ]
    rows.append((
        "OVERALL",
        f"{result.overall_mean_deviation():.1%}",
        f"{result.worst_mean_deviation():.1%} (worst kernel mean)",
        f"{result.min_correlation():.3f} (min)",
    ))
    return format_table(
        headers=("kernel", "mean |dev|", "max |dev|", "perf correlation"),
        rows=rows,
        title=("Extension [model validation]: analytical vs event-driven "
               f"execution times over {result.configs_per_kernel} "
               "configurations per kernel"),
    )
