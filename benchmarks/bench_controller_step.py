#!/usr/bin/env python
"""Batched controller engine benchmark: lockstep sessions vs the scalar loop.

Two controller-bound noisy workloads are measured, both with warmed sweep
surfaces so the timings isolate per-launch work (controller stepping plus
the per-launch noisy measurement path) rather than one-time sweeps:

* **Variant-sweep lanes** — the engine's native lane model (app x seed x
  policy-variant): every application in the set is stepped with five
  Harmonia variants on each of N noisy platforms, one scalar
  ``ApplicationRunner`` run per lane vs one batched call with
  ``5 x N`` lanes.
* **Noisy seed sessions** — the Monte Carlo reference-run shape: one
  application stepped on many independent noisy platforms, one scalar
  run per seed vs a single batched call with one lane per seed.

Both the scalar loop and the engine serve every launch, clean or noisy,
from the same memoized grid surface (plus one keyed multiplier when
noisy), so the measured gap is the lockstep controller stepping alone
(see docs/performance.md).

Every comparison is a **bitwise gate**, not a tolerance: each batched
lane's launch records and metrics must equal its scalar twin exactly, or
the benchmark fails. Timed regions never construct policies — fresh
policy instances are built outside the clock for every repeat, because
policies accumulate phase memory and a reused instance would not re-run
the same control path.

The headline metric, ``geomean_controller_speedup``, is the geometric
mean of the per-application variant-sweep speedups and the seed-session
speedup; the ledger floors it. Results are written as machine-readable
JSON (``BENCH_controller.json``)::

    python benchmarks/bench_controller_step.py            # full set
    python benchmarks/bench_controller_step.py --apps SPMV miniFE \\
        --variant-seeds 4 --session-seeds 8 --min-speedup 1.4 \\
        --out /tmp/b.json                                 # CI smoke form

CI runs the reduced form as a smoke test; the committed
``BENCH_controller.json`` is a full run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List

from repro.core.harmonia import HarmoniaPolicy
from repro.experiments.context import default_context
from repro.platform.hd7970 import make_hd7970_platform
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.runtime.simulator import ApplicationRunner
from repro.sensitivity.binning import SensitivityBins

#: Noise fraction of both scenarios (paper-plausible 5%).
NOISE = 0.05

#: Default variant-sweep application set: a phase-heavy BFS (Graph500),
#: iterative solvers (miniFE, CFD-like SPMV), a long run (CoMD) and two
#: memory-bound sorters/tree walkers with distinct controller behaviour.
DEFAULT_APPS = ("SPMV", "miniFE", "Graph500", "CoMD", "Sort", "BPT")

#: Harmonia policy-variant grid: perturbations of the controller's
#: binning edges, phase-average gain and FG pacing. All variants share
#: the trained predictors (and the batched group signature), which is
#: exactly the controller-sweep shape the lane model targets.
VARIANTS = (
    dict(),
    dict(monitor_alpha=0.6, fg_patience=1, max_dithering=4),
    dict(bins=SensitivityBins(low_edge=0.25, high_edge=0.65)),
    dict(monitor_alpha=0.3, max_dithering=12),
    dict(bins=SensitivityBins(low_edge=0.35, high_edge=0.75), fg_patience=2),
)


def _make_variant(context, variant: Dict) -> HarmoniaPolicy:
    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space, training.compute, training.bandwidth,
        **variant,
    )


def _runs_identical(scalar, batched) -> bool:
    if scalar.metrics != batched.metrics:
        return False
    if len(scalar.trace.records) != len(batched.trace.records):
        return False
    return all(
        a.iteration == b.iteration and a.kernel_name == b.kernel_name
        and a.result == b.result
        for a, b in zip(scalar.trace.records, batched.trace.records)
    )


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_variant_sweep(context, application, platforms,
                        repeats: int) -> Dict:
    """One app x seed x policy-variant sweep: scalar loop vs one call."""
    lane_platforms = [p for p in platforms for _ in VARIANTS]

    def fresh_policies() -> List[HarmoniaPolicy]:
        return [_make_variant(context, v) for _ in platforms for v in VARIANTS]

    engine = BatchSessionRunner(context.platform)
    # Warm the clean surfaces and the engine's per-surface numerics.
    engine.run_sessions([
        SessionSpec(application=application, policy=policy, platform=platform)
        for policy, platform in zip(fresh_policies(), lane_platforms)
    ])

    t_scalar = t_batched = float("inf")
    scalar_runs = outcomes = None
    for _ in range(repeats):
        policies = fresh_policies()
        t0 = time.perf_counter()
        scalar_runs = [
            ApplicationRunner(platform).run(application, policy)
            for policy, platform in zip(policies, lane_platforms)
        ]
        t_scalar = min(t_scalar, time.perf_counter() - t0)

        sessions = [
            SessionSpec(application=application, policy=policy,
                        platform=platform)
            for policy, platform in zip(fresh_policies(), lane_platforms)
        ]
        t0 = time.perf_counter()
        outcomes = engine.run_sessions(sessions)
        t_batched = min(t_batched, time.perf_counter() - t0)

    identical = all(
        _runs_identical(scalar, batched)
        for scalar, batched in zip(scalar_runs, outcomes)
    )
    launches = sum(1 for _ in application.launches())
    return {
        "application": application.name,
        "seeds": len(platforms),
        "variants": len(VARIANTS),
        "lanes": len(lane_platforms),
        "launches_per_lane": launches,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "speedup": t_scalar / t_batched,
        "identical": identical,
    }


def bench_seed_sessions(context, application, seeds: int,
                        repeats: int) -> Dict:
    """Noisy seed fan-out: one scalar run per seed vs one batched call."""
    platforms = [make_hd7970_platform(noise_std_fraction=NOISE, seed=s)
                 for s in range(seeds)]

    def fresh_policies() -> List[HarmoniaPolicy]:
        return [context.harmonia_policy() for _ in platforms]

    engine = BatchSessionRunner(context.platform)
    engine.run_sessions([
        SessionSpec(application=application, policy=policy, platform=platform)
        for policy, platform in zip(fresh_policies(), platforms)
    ])

    t_scalar = t_batched = float("inf")
    scalar_runs = outcomes = None
    for _ in range(repeats):
        policies = fresh_policies()
        t0 = time.perf_counter()
        scalar_runs = [
            ApplicationRunner(platform).run(application, policy)
            for policy, platform in zip(policies, platforms)
        ]
        t_scalar = min(t_scalar, time.perf_counter() - t0)

        sessions = [
            SessionSpec(application=application, policy=policy,
                        platform=platform)
            for policy, platform in zip(fresh_policies(), platforms)
        ]
        t0 = time.perf_counter()
        outcomes = engine.run_sessions(sessions)
        t_batched = min(t_batched, time.perf_counter() - t0)

    identical = all(
        _runs_identical(scalar, batched)
        for scalar, batched in zip(scalar_runs, outcomes)
    )
    launches = sum(1 for _ in application.launches())
    return {
        "application": application.name,
        "seeds": seeds,
        "noise": NOISE,
        "launches_per_lane": launches,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "sessions_speedup": t_scalar / t_batched,
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="*", default=list(DEFAULT_APPS),
                        help="applications of the variant-sweep scenario "
                             f"(default: {' '.join(DEFAULT_APPS)})")
    parser.add_argument("--session-app", default="Graph500",
                        help="application of the noisy seed-session "
                             "scenario (default: Graph500)")
    parser.add_argument("--variant-seeds", type=int, default=10,
                        help="noisy platforms per variant-sweep app; lanes "
                             "= 5 variants x this (default: 10)")
    parser.add_argument("--session-seeds", type=int, default=25,
                        help="noisy seed-session lanes (default: 25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of, fresh policies per "
                             "repeat (default: 3)")
    parser.add_argument("--min-speedup", type=float, default=1.8,
                        help="fail if the geomean controller speedup falls "
                             "below this floor")
    parser.add_argument("--out", default="BENCH_controller.json",
                        help="output JSON path "
                             "(default: BENCH_controller.json)")
    args = parser.parse_args(argv)

    context = default_context()
    by_name = {app.name: app for app in context.applications}
    unknown = [name for name in args.apps + [args.session_app]
               if name not in by_name]
    if unknown:
        parser.error(f"unknown application(s) {', '.join(unknown)}; "
                     f"known: {', '.join(sorted(by_name))}")

    platforms = [make_hd7970_platform(noise_std_fraction=NOISE, seed=s)
                 for s in range(args.variant_seeds)]
    sweeps = []
    for name in args.apps:
        sweep = bench_variant_sweep(context, by_name[name], platforms,
                                    args.repeats)
        sweeps.append(sweep)
        print(f"variant sweep {sweep['application']:14s} "
              f"{sweep['lanes']:4d} lanes  "
              f"scalar {sweep['scalar_s']:7.3f}s  "
              f"batched {sweep['batched_s']:7.3f}s  "
              f"({sweep['speedup']:5.2f}x)  "
              f"identical {sweep['identical']}")

    sessions = bench_seed_sessions(context, by_name[args.session_app],
                                   args.session_seeds, args.repeats)
    print(f"seed sessions {sessions['application']:14s} "
          f"{sessions['seeds']:4d} lanes  "
          f"scalar {sessions['scalar_s']:7.3f}s  "
          f"batched {sessions['batched_s']:7.3f}s  "
          f"({sessions['sessions_speedup']:5.2f}x)  "
          f"identical {sessions['identical']}")

    speedups = [s["speedup"] for s in sweeps] + [sessions["sessions_speedup"]]
    geomean = _geomean(speedups)
    identical = (all(s["identical"] for s in sweeps)
                 and sessions["identical"])
    summary = {
        "noise": NOISE,
        "geomean_controller_speedup": geomean,
        "variant_sweep_geomean": _geomean([s["speedup"] for s in sweeps]),
        "sessions_speedup": sessions["sessions_speedup"],
        "identical": identical,
        "min_speedup_floor": args.min_speedup,
        "variant_sweeps": sweeps,
        "seed_sessions": sessions,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\ngeomean controller speedup {geomean:.2f}x -> {args.out}")

    if not identical:
        print("FAIL: batched sessions are not bitwise identical to the "
              "scalar loop", file=sys.stderr)
        return 1
    if geomean < args.min_speedup:
        print(f"FAIL: geomean controller speedup {geomean:.2f}x below the "
              f"{args.min_speedup}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
