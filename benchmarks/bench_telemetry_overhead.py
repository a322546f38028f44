#!/usr/bin/env python
"""Telemetry overhead bounds on the Figures 10-13 runner loop.

The telemetry subsystem promises that the disabled (null-object) path is
free: the kernel-boundary loop the ``fig10_13_evaluation`` matrix spends
its time in must not slow down because components now carry a telemetry
handle. This benchmark times that loop three ways over the paper's full
application set under a Harmonia policy:

* **bare**: the runner's loop body inlined, with no telemetry anywhere
  — launches go through ``platform.launch(spec, config, iteration=...)``
  and the run ends in ``finish_run`` exactly as in
  ``ApplicationRunner.run``, so the two differ only by the telemetry
  check;
* **runner**: ``ApplicationRunner.run`` with its default null handle;
* **active**: ``ApplicationRunner.run`` with a live handle — event sink,
  metrics registry and span tracker all recording, each application run
  wrapped in a span.

and asserts the null runner stays within 2% of bare
(min-of-rounds timing with the loops alternating round by round, so host
speed drift hits them alike, re-measured a few times to ride out
scheduler noise) and the fully active runner within a generous 10x.

It times the launch-at-a-time loop that ``ApplicationRunner`` keeps as
the test oracle, not the batched session engine that production runs
step through; moving it onto the engine is left to the single benchmark
harness planned in ROADMAP.md.

Run standalone to write the trend-ledger input
(``BENCH_telemetry.json``, metric names matching
``benchmarks.ledger.DEFAULT_GATES["telemetry"]``)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policy import LaunchContext
from repro.runtime.simulator import ApplicationRunner, finish_run
from repro.runtime.trace import LaunchRecord, RunTrace
from repro.telemetry import InMemorySink, Telemetry
from repro.telemetry.spans import SpanTracker

#: Maximum tolerated slowdown of the null-telemetry runner path.
OVERHEAD_BOUND = 1.02

#: Maximum tolerated slowdown with every telemetry piece recording.
#: Deliberately generous — the active path *does* work (events, metric
#: series, spans); the bound catches accidental
#: super-linear blowups, not the expected constant cost.
ACTIVE_BOUND = 10.0

ROUNDS = 5
ATTEMPTS = 4


def _bare_run(platform, application, policy):
    """``ApplicationRunner.run``'s uninstrumented loop, inlined."""
    policy.reset()
    trace = RunTrace()
    for iteration, kernel, spec in application.launches():
        context = LaunchContext(
            kernel_name=kernel.name, iteration=iteration, spec=spec
        )
        config = policy.config_for(context)
        result = platform.launch(spec, config, iteration=iteration)
        policy.observe(context, result)
        trace.append(LaunchRecord(
            iteration=iteration, kernel_name=kernel.name, result=result
        ))
    return finish_run(application, policy, trace)


def _time_sweeps(runs, applications, policy) -> list:
    """Best-of-ROUNDS wall time of one full application sweep, per
    function in ``runs``. The functions alternate within every round, so
    a change in host speed during the measurement affects them alike."""
    best = [float("inf")] * len(runs)
    for _ in range(ROUNDS):
        for index, run_one in enumerate(runs):
            start = time.perf_counter()
            for application in applications:
                run_one(application, policy)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_null_telemetry_overhead(ctx, emit):
    platform = ctx.platform
    applications = ctx.applications
    policy = ctx.harmonia_policy()
    runner = ApplicationRunner(platform)
    assert not runner.telemetry.enabled

    def bare(application, policy):
        _bare_run(platform, application, policy)

    def instrumented(application, policy):
        runner.run(application, policy)

    # Warm every cache (predictor training, platform state) before timing.
    bare(applications[0], policy)
    instrumented(applications[0], policy)

    ratio = float("inf")
    for attempt in range(ATTEMPTS):
        bare_s, runner_s = _time_sweeps((bare, instrumented), applications,
                                        policy)
        ratio = min(ratio, runner_s / bare_s)
        if ratio <= OVERHEAD_BOUND:
            break

    emit("telemetry_overhead", "\n".join([
        "Null-telemetry overhead on the runner loop (all 14 applications)",
        f"bare loop:      {bare_s * 1e3:8.2f} ms",
        f"ApplicationRunner: {runner_s * 1e3:8.2f} ms",
        f"best ratio:     {ratio:8.4f}  (bound {OVERHEAD_BOUND:.2f})",
    ]))
    assert ratio <= OVERHEAD_BOUND, (
        f"null-telemetry runner path is {(ratio - 1):.1%} slower than the "
        f"bare loop (bound {OVERHEAD_BOUND - 1:.0%})"
    )


def test_active_telemetry_overhead(ctx, emit):
    platform = ctx.platform
    applications = ctx.applications
    policy = ctx.harmonia_policy()

    def bare(application, policy):
        _bare_run(platform, application, policy)

    def active(application, policy):
        # Fresh handle per run: unbounded event/span accumulation over
        # ROUNDS sweeps would measure list growth, not telemetry cost.
        telemetry = Telemetry(sink=InMemorySink(), spans=SpanTracker())
        runner = ApplicationRunner(platform, telemetry=telemetry)
        with telemetry.span("bench.run", application=application.name):
            runner.run(application, policy)

    bare(applications[0], policy)
    active(applications[0], policy)

    ratio = float("inf")
    for attempt in range(ATTEMPTS):
        bare_s, active_s = _time_sweeps((bare, active), applications, policy)
        ratio = min(ratio, active_s / bare_s)
        if ratio <= ACTIVE_BOUND / 2:
            break

    emit("telemetry_overhead_active", "\n".join([
        "Active-telemetry overhead (events + metrics + spans)",
        f"bare loop:      {bare_s * 1e3:8.2f} ms",
        f"active runner:  {active_s * 1e3:8.2f} ms",
        f"best ratio:     {ratio:8.4f}  (bound {ACTIVE_BOUND:.2f})",
    ]))
    assert ratio <= ACTIVE_BOUND, (
        f"active-telemetry runner path is {ratio:.2f}x the bare loop "
        f"(bound {ACTIVE_BOUND:.0f}x)"
    )


def main(argv=None) -> int:
    """Standalone entry: measure both ratios, write the ledger input."""
    import argparse
    import json

    from repro.experiments.context import ExperimentContext

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_telemetry.json",
                        help="output JSON path (default: "
                             "BENCH_telemetry.json)")
    args = parser.parse_args(argv)

    ctx = ExperimentContext()
    platform = ctx.platform
    applications = ctx.applications
    policy = ctx.harmonia_policy()
    null_runner = ApplicationRunner(platform)

    def bare(application, policy):
        _bare_run(platform, application, policy)

    def null_instrumented(application, policy):
        null_runner.run(application, policy)

    def active(application, policy):
        telemetry = Telemetry(sink=InMemorySink(), spans=SpanTracker())
        runner = ApplicationRunner(platform, telemetry=telemetry)
        with telemetry.span("bench.run", application=application.name):
            runner.run(application, policy)

    bare(applications[0], policy)
    null_instrumented(applications[0], policy)
    active(applications[0], policy)

    null_ratio = active_ratio = float("inf")
    bare_s = null_s = active_s = float("inf")
    for attempt in range(ATTEMPTS):
        times = _time_sweeps((bare, null_instrumented, active),
                             applications, policy)
        bare_s, null_s, active_s = map(min, (bare_s, null_s, active_s),
                                       times)
        null_ratio = null_s / bare_s
        active_ratio = active_s / bare_s
        if null_ratio <= OVERHEAD_BOUND and active_ratio <= ACTIVE_BOUND / 2:
            break

    summary = {
        "bare_s": bare_s,
        "null_runner_s": null_s,
        "active_runner_s": active_s,
        "null_overhead_ratio": null_ratio,
        "active_overhead_ratio": active_ratio,
        "null_bound": OVERHEAD_BOUND,
        "active_bound": ACTIVE_BOUND,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"null overhead {null_ratio:.4f} (bound {OVERHEAD_BOUND}), "
          f"active overhead {active_ratio:.2f}x (bound {ACTIVE_BOUND}) "
          f"-> {args.out}")

    failed = False
    if null_ratio > OVERHEAD_BOUND:
        print(f"FAIL: null-telemetry path {(null_ratio - 1):.1%} over bare "
              f"(bound {OVERHEAD_BOUND - 1:.0%})", file=sys.stderr)
        failed = True
    if active_ratio > ACTIVE_BOUND:
        print(f"FAIL: active-telemetry path {active_ratio:.2f}x over bare "
              f"(bound {ACTIVE_BOUND:.0f}x)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
