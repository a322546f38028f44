"""Child-side launcher and layer tracer for the repository benchmark.

Runs ``repro.cli.main`` in this interpreter, optionally with

* ``--first-seed N``: ``montecarlo --seeds K`` draws its trial seeds from
  ``range(N, N + K)`` instead of ``range(K)``. The CLI's own
  ``EvaluationHarness.evaluate_montecarlo`` call is kept; only its
  ``seeds`` argument is shifted, so ``--first-seed 0`` is exactly the CLI.
* ``--trace-out PATH``: the public functions in :data:`LAYERS` are wrapped
  with thread-safe timers, and the per-layer metrics are written to
  ``PATH`` as JSON when the command returns. The repository's own
  ``Telemetry`` stays off: an enabled handle routes controller lanes to
  the scalar runner, so a traced run would measure another engine.

Usage::

    PYTHONPATH=src python3 perfbench/layers.py [--first-seed N] \
        [--trace-out PATH] -- <repro subcommand and arguments>
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence


def _count_first_arg(args, kwargs) -> int:
    """Work units of a batch method call: the length of its first
    positional argument after ``self`` (every caller passes it so)."""
    return len(args[1])


#: (module, class or None for a module function, attribute, layer, units).
#: Attributes that share a layer name are one layer: a call nested inside
#: another call of the same layer is not counted again.
LAYERS = (
    ("repro.runtime.pipeline", "ExperimentPipeline", "run",
     "pipeline.run", None),
    ("repro.runtime.pipeline", "ResultManifest", "load", "manifest.load", None),
    ("repro.runtime.pipeline", "ResultManifest", "save", "manifest.save", None),
    ("repro.platform.store", "SweepStore", "load_record", "store.load", None),
    ("repro.platform.store", "SweepStore", "load_record_mmap",
     "store.load", None),
    ("repro.platform.store", "SweepStore", "save_record", "store.save", None),
    ("repro.platform.sweepcache", "SweepCache", "get_or_compute",
     "sweepcache.get_or_compute", None),
    ("repro.perf.model", "PerformanceModel", "run_batch",
     "perf.surface", None),
    ("repro.perf.eventsim_batch", "BatchedEventModel", "run_pairs",
     "eventsim.batch", _count_first_arg),
    ("repro.runtime.session", "BatchSessionRunner", "run_sessions",
     "controller.run", _count_first_arg),
    ("repro.runtime.simulator", "ApplicationRunner", "run",
     "oracle.scalar_app_run", None),
    ("repro.perf.eventsim", "EventDrivenModel", "run",
     "oracle.scalar_eventsim", None),
    ("repro.platform.hd7970", "HardwarePlatform", "run_kernel",
     "oracle.scalar_kernel", None),
    ("repro.platform.noise", "LaunchKeyedNoise", "multipliers_for",
     "noise.multipliers", None),
    ("repro.platform.noise", None, "spec_entropy", "noise.derive", None),
    ("repro.runtime.montecarlo", "MonteCarloEngine", "rollout",
     "montecarlo.rollout", None),
    ("repro.experiments.context", "ExperimentContext", "training",
     "training.train", None),
)


#: The ``reproduce`` pipeline nodes, each reported as ``pipeline.node.<name>_s``.
PIPELINE_NODES = (
    "training", "evaluation", "fig04_compute_power", "fig05_memory_power",
    "fig10_ed2", "fig11_energy", "fig12_power", "fig13_performance",
    "fig01_power_breakdown", "table1_dvfs", "fig03_balance_points",
    "fig06_metric_tradeoffs", "fig07_occupancy", "fig08_divergence",
    "fig09_clock_domains", "table2_table3_models", "fig14_16_graph500",
    "fig17_power_sharing", "fig18_cg_vs_fg", "sec72_variants",
    "ext_memory_voltage", "ext_thermal_capping", "ext_model_validation",
    "ext_phase_memory", "ext_power_capping", "ext_portability",
    "oracle_gap", "characterization",
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    ("imports.repro_cli_s", "s"),
    ("imports.numpy_s", "s"),
    ("imports.repro_modules", "count"),
    ("pipeline.run_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.nodes_ran", "count"),
    ("pipeline.nodes_served", "count"),
    *((f"pipeline.node.{name}_s", "s") for name in PIPELINE_NODES),
    ("manifest.loads", "count"),
    ("manifest.load_s", "s"),
    ("manifest.saves", "count"),
    ("manifest.save_s", "s"),
    ("store.loads", "count"),
    ("store.load_s", "s"),
    ("store.saves", "count"),
    ("store.save_s", "s"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("sweepcache.lookups", "count"),
    ("sweepcache.get_or_compute_s", "s"),
    ("sweepcache.memory_hit_ratio", "ratio"),
    ("sweepcache.store_hit_ratio", "ratio"),
    ("perf.surfaces", "count"),
    ("perf.surface_s", "s"),
    ("eventsim.lanes", "count"),
    ("eventsim.batch_s", "s"),
    ("controller.sessions", "count"),
    ("controller.run_s", "s"),
    ("oracle.scalar_app_runs", "count"),
    ("oracle.scalar_app_run_s", "s"),
    ("oracle.scalar_eventsim_runs", "count"),
    ("oracle.scalar_kernel_runs", "count"),
    ("noise.lookups", "count"),
    ("noise.derivations", "count"),
    ("noise.memo_hit_ratio", "ratio"),
    ("noise.multipliers_s", "s"),
    ("montecarlo.rollouts", "count"),
    ("montecarlo.rollout_s", "s"),
    ("training.train_s", "s"),
    ("trace.overhead_s", "s"),
)


class LayerTracer:
    """Per-layer call counts, total seconds and self seconds.

    Calls nest per thread: a layer's self time is its duration minus the
    time of the traced calls made inside it on the same thread. The
    aggregates are shared across threads under one lock, because pipeline
    nodes run on a thread pool even at ``--jobs 1``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: the return value of the latest completed call, per layer
        self.last_result: Dict[str, Any] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, function: Callable,
              units: Optional[Callable] = None) -> Callable:
        """``function`` wrapped so its calls are accounted to ``layer``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == layer for frame in stack):
                return function(*args, **kwargs)
            frame = [layer, 0.0]  # layer, seconds spent in traced children
            stack.append(frame)
            start = self._clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            with self._lock:
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                if units is not None:
                    self.units[layer] += units(args, kwargs)
                self.last_result[layer] = result
            return result

        return wrapper

    def wrap(self, owner: Any, attribute: str, layer: str,
             units: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` (function or property) in place.

        Raises:
            KeyError: when ``owner`` defines no such attribute, so a
                renamed function fails the run instead of reading 0.
        """
        original = vars(owner)[attribute]
        if isinstance(original, property):
            replacement: Any = property(
                self.timed(layer, original.fget), original.fset,
                original.fdel, original.__doc__)
        else:
            replacement = self.timed(layer, original, units)
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def install(self, layers: Sequence[tuple] = LAYERS) -> None:
        """Wrap every entry of ``layers``."""
        for module_name, class_name, attribute, layer, units in layers:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.wrap(owner, attribute, layer, units)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            self._undo.pop()()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The in-process per-layer metrics of a finished traced run.

    A node of :data:`PIPELINE_NODES` that the run did not schedule, or
    every node in a run without a pipeline, reads 0.

    Raises:
        KeyError: when the pipeline ran a node missing from the list.
    """
    from repro.platform.sweepcache import shared_cache

    calls, total, units = tracer.calls, tracer.total_s, tracer.units
    metrics: Dict[str, float] = {
        "pipeline.run_s": total["pipeline.run"],
        "pipeline.nodes_ran": 0,
        "pipeline.nodes_served": 0,
        "pipeline.self_s": total["pipeline.run"],
    }
    node_wall = {name: 0.0 for name in PIPELINE_NODES}
    result = tracer.last_result.get("pipeline.run")
    if result is not None:
        metrics["pipeline.nodes_ran"] = len(result.ran())
        metrics["pipeline.nodes_served"] = len(result.served())
        for timing in result.timings:
            if timing.name not in node_wall:
                raise KeyError(f"pipeline node {timing.name!r} is not in "
                               f"the benchmark's metric list")
            node_wall[timing.name] = timing.wall_s
        metrics["pipeline.self_s"] = total["pipeline.run"] - sum(
            node_wall.values())
    for name, wall in node_wall.items():
        metrics[f"pipeline.node.{name}_s"] = wall

    for layer in ("manifest.load", "manifest.save", "store.load",
                  "store.save"):
        metrics[f"{layer}s"] = calls[layer]
        metrics[f"{layer}_s"] = total[layer]
    cache = shared_cache()
    store = cache.store
    stats = store.stats() if store is not None else None
    metrics["store.bytes_read"] = stats.bytes_read if stats else 0
    metrics["store.bytes_written"] = stats.bytes_written if stats else 0

    cache_stats = cache.stats()
    metrics["sweepcache.lookups"] = cache_stats.lookups
    metrics["sweepcache.get_or_compute_s"] = total["sweepcache.get_or_compute"]
    metrics["sweepcache.memory_hit_ratio"] = _ratio(
        cache_stats.memory.hits, cache_stats.lookups)
    metrics["sweepcache.store_hit_ratio"] = _ratio(
        cache_stats.store.hits,
        cache_stats.store.hits + cache_stats.store.misses)

    metrics["perf.surfaces"] = calls["perf.surface"]
    metrics["perf.surface_s"] = total["perf.surface"]
    metrics["eventsim.lanes"] = units["eventsim.batch"]
    metrics["eventsim.batch_s"] = total["eventsim.batch"]
    metrics["controller.sessions"] = units["controller.run"]
    metrics["controller.run_s"] = total["controller.run"]
    metrics["oracle.scalar_app_runs"] = calls["oracle.scalar_app_run"]
    metrics["oracle.scalar_app_run_s"] = total["oracle.scalar_app_run"]
    metrics["oracle.scalar_eventsim_runs"] = calls["oracle.scalar_eventsim"]
    metrics["oracle.scalar_kernel_runs"] = calls["oracle.scalar_kernel"]
    lookups = calls["noise.multipliers"]
    derivations = calls["noise.derive"]
    metrics["noise.lookups"] = lookups
    metrics["noise.derivations"] = derivations
    metrics["noise.memo_hit_ratio"] = _ratio(lookups - derivations, lookups)
    metrics["noise.multipliers_s"] = total["noise.multipliers"]
    metrics["montecarlo.rollouts"] = calls["montecarlo.rollout"]
    metrics["montecarlo.rollout_s"] = total["montecarlo.rollout"]
    metrics["training.train_s"] = total["training.train"]
    return metrics


def shift_montecarlo_seeds(first_seed: int) -> None:
    """Make an integer ``seeds=K`` mean ``range(first_seed, first_seed+K)``."""
    from repro.analysis.evaluation import EvaluationHarness

    original = EvaluationHarness.evaluate_montecarlo

    @functools.wraps(original)
    def evaluate_montecarlo(self, *args, **kwargs):
        seeds = kwargs.get("seeds")
        if isinstance(seeds, int):
            kwargs["seeds"] = range(first_seed, first_seed + seeds)
        return original(self, *args, **kwargs)

    EvaluationHarness.evaluate_montecarlo = evaluate_montecarlo


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import repro.cli

    if args.first_seed:
        shift_montecarlo_seeds(args.first_seed)
    tracer = None
    if args.trace_out:
        tracer = LayerTracer()
        tracer.install()
    code = repro.cli.main(command)
    if tracer is not None:
        spans = {layer: [tracer.calls[layer], tracer.total_s[layer],
                         tracer.self_s[layer]] for layer in tracer.calls}
        with open(args.trace_out, "w") as handle:
            json.dump({"metrics": layer_metrics(tracer), "spans": spans},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
