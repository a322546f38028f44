#!/usr/bin/env python
"""Batched event-sim benchmark: lockstep lane engine vs the scalar loop.

Three (kernel x config) grids are timed through both engines, spanning
the two shapes the batched engine serves:

* **validation-node** — the 25-kernel registry over the validation
  experiment's 3x3x3 corner/midpoint config sample (675 lanes): the
  exact grid ``ext_model_validation`` simulates on a cold ``reproduce``.
* **fleet-quarter / fleet-grid** — the registry over every 4th config
  and over the *full* 448-point hd7970 config space (2 800 / 11 200
  lanes): the fleet-characterization shape ``run_batch`` exists for
  (validating thousands of synthesized kernels).

The headline metric, ``geomean_fleet_speedup``, is the geometric mean
over the two fleet-class grids and is floored at 10x: with thousands of
lanes the per-call numpy cost is amortized over many lanes. The node
grid is reported and floored separately (``--min-node-speedup``,
default 5x) because at 675 lanes most of a lockstep iteration is fixed
per-call cost (about 0.6 of the ~0.85 us a one-dimensional call takes
there) — its real budget is the cold-``reproduce`` wall-clock, not a
ratio.

Every scenario is also a **bitwise gate**, not a tolerance: all four
:class:`~repro.perf.eventsim.EventSimResult` fields of every batched
lane must equal the scalar engine's exactly, or the benchmark fails.
Timings are best-of on both sides so one scheduler hiccup cannot
manufacture (or hide) a regression. Results land in machine-readable
JSON (``BENCH_eventsim.json``)::

    PYTHONPATH=src python benchmarks/bench_eventsim.py   # full run
    PYTHONPATH=src python benchmarks/bench_eventsim.py \\
        --fleet-stride 16 --grid-stride 8 \\
        --min-speedup 6 --min-node-speedup 3 \\
        --out /tmp/b.json                                # CI smoke form

CI runs the reduced form as a smoke test; the committed
``BENCH_eventsim.json`` is a full run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List

from repro.experiments.ext_model_validation import _sample_configs
from repro.gpu.config import ConfigSpace
from repro.memory.controller import MemoryControllerModel
from repro.perf.eventsim import EventDrivenModel
from repro.perf.eventsim_batch import BatchedEventModel
from repro.platform.calibration import default_calibration
from repro.workloads.registry import all_kernels


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _rows_identical(batched_rows, scalar_rows) -> bool:
    """All four EventSimResult fields, exact equality, every lane."""
    return all(
        b.time == s.time
        and b.simulated_waves == s.simulated_waves
        and b.total_waves == s.total_waves
        and b.simd_busy_fraction == s.simd_busy_fraction
        for b_row, s_row in zip(batched_rows, scalar_rows)
        for b, s in zip(b_row, s_row)
    )


def bench_scenario(name: str, scalar, batched, specs, configs,
                   repeats: int, scalar_repeats: int) -> Dict:
    """Time one (kernel x config) grid through both engines, best-of."""
    t_batched = float("inf")
    batched_rows = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        batched_rows = batched.run_batch(specs, configs)
        t_batched = min(t_batched, time.perf_counter() - t0)

    t_scalar = float("inf")
    scalar_rows = None
    for _ in range(max(1, scalar_repeats)):
        t0 = time.perf_counter()
        scalar_rows = [[scalar.run(spec, config) for config in configs]
                       for spec in specs]
        t_scalar = min(t_scalar, time.perf_counter() - t0)

    return {
        "scenario": name,
        "kernels": len(specs),
        "configs": len(configs),
        "lanes": len(specs) * len(configs),
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "speedup": t_scalar / t_batched,
        "identical": _rows_identical(batched_rows, scalar_rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="batched timing repeats, best-of (default: 3)")
    parser.add_argument("--scalar-repeats", type=int, default=2,
                        help="scalar timing repeats, best-of (default: 2; "
                             "the scalar side is interpreter-bound and "
                             "much less noisy than the streaming side)")
    parser.add_argument("--fleet-stride", type=int, default=4,
                        help="config-space stride of the fleet-quarter "
                             "scenario (default: 4 -> 2800 lanes)")
    parser.add_argument("--grid-stride", type=int, default=1,
                        help="config-space stride of the fleet-grid "
                             "scenario (default: 1 = the full 448-config "
                             "space -> 11200 lanes)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail if the fleet-class geomean speedup "
                             "falls below this floor (default: 10x)")
    parser.add_argument("--min-node-speedup", type=float, default=5.0,
                        help="fail if the validation-node speedup falls "
                             "below this floor (default: 5x)")
    parser.add_argument("--out", default="BENCH_eventsim.json",
                        help="output JSON path "
                             "(default: BENCH_eventsim.json)")
    args = parser.parse_args(argv)

    calibration = default_calibration()
    controller = MemoryControllerModel(arch=calibration.arch,
                                       timing=calibration.gddr5_timing)
    clocks = calibration.clock_domain_model()
    scalar = EventDrivenModel(calibration.arch, controller, clocks)
    batched = BatchedEventModel(calibration.arch, controller, clocks)

    space = list(ConfigSpace(calibration.arch))
    specs = [kernel.base for kernel in all_kernels()]
    scenarios = [
        ("validation-node", _sample_configs(ConfigSpace(calibration.arch))),
        ("fleet-quarter", space[::max(1, args.fleet_stride)]),
        ("fleet-grid", space[::max(1, args.grid_stride)]),
    ]

    results = []
    for name, configs in scenarios:
        row = bench_scenario(name, scalar, batched, specs, configs,
                             args.repeats, args.scalar_repeats)
        results.append(row)
        print(f"{row['scenario']:16s} {row['lanes']:6d} lanes  "
              f"scalar {row['scalar_s']:7.3f}s  "
              f"batched {row['batched_s']:7.3f}s  "
              f"({row['speedup']:5.2f}x)  "
              f"identical {row['identical']}")

    node = results[0]
    fleet = results[1:]
    geomean = _geomean([row["speedup"] for row in fleet])
    identical = all(row["identical"] for row in results)
    summary = {
        "geomean_fleet_speedup": geomean,
        "node_speedup": node["speedup"],
        "node_scalar_s": node["scalar_s"],
        "node_batched_s": node["batched_s"],
        "identical": identical,
        "min_speedup_floor": args.min_speedup,
        "min_node_speedup_floor": args.min_node_speedup,
        "scenarios": results,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\ngeomean fleet speedup {geomean:.2f}x, node speedup "
          f"{node['speedup']:.2f}x -> {args.out}")

    if not identical:
        bad = ", ".join(r["scenario"] for r in results if not r["identical"])
        print(f"FAIL: batched lanes are not bitwise identical to the "
              f"scalar loop in: {bad}", file=sys.stderr)
        return 1
    failed = False
    if geomean < args.min_speedup:
        print(f"FAIL: fleet-class geomean speedup {geomean:.2f}x below "
              f"the {args.min_speedup}x floor", file=sys.stderr)
        failed = True
    if node["speedup"] < args.min_node_speedup:
        print(f"FAIL: validation-node speedup {node['speedup']:.2f}x "
              f"below the {args.min_node_speedup}x floor", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
