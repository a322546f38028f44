"""The CLI subcommands that do not print paper reports.

``list``, ``run``, ``sweep``, ``montecarlo`` and ``telemetry-report``
live here, apart from :mod:`repro.cli`: :func:`repro.cli.main` imports
this module only when it dispatches one of them, so ``reproduce``,
``figure`` and ``evaluate`` against a warm result manifest never compile
it. Each command imports the rest of what it needs itself.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.cli import attach_store, span_telemetry, write_span_outputs
from repro.experiments.context import ExperimentContext


def _build_policy(context: ExperimentContext, name: str):
    factories = {
        "baseline": context.baseline_policy,
        "oracle": context.oracle_policy,
        "harmonia": context.harmonia_policy,
        "cg-only": context.cg_only_policy,
        "dvfs-only": context.dvfs_only_policy,
    }
    return factories[name]()


def cmd_list(args: argparse.Namespace) -> int:
    """List the registered applications and kernels."""
    from repro.workloads.registry import (
        all_kernels, application_names, get_application)

    rows = []
    for name in application_names():
        app = get_application(name)
        rows.append((name, app.suite, str(app.iterations),
                     ", ".join(k.name.split(".", 1)[1] for k in app.kernels)))
    print(format_table(
        headers=("application", "suite", "iterations", "kernels"),
        rows=rows,
        title=f"{len(application_names())} applications / "
              f"{len(all_kernels())} kernels (paper Section 6)",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one application under one policy."""
    from repro.runtime.session import BatchSessionRunner
    from repro.units import hz_to_mhz
    from repro.workloads.registry import application_names

    context = ExperimentContext()
    if args.app not in application_names():
        print(f"unknown application {args.app!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    app = context.application(args.app)

    telemetry = span_telemetry(args)
    attach_store(args)

    # One root span over the whole run: the policy build (with the
    # training it triggers) and the baseline's store loads record under
    # it too. Only the policy's own session runs inside the event scope,
    # so the trace's instants and the controller metrics hold only the
    # policy under study.
    with telemetry.span("run", application=app.name, policy=args.policy):
        with telemetry.span("context.policy", policy=args.policy):
            policy = _build_policy(context, args.policy)
        runner = BatchSessionRunner(context.platform)
        base_run = runner.run(app, context.baseline_policy())
        with telemetry.record_events():
            run = runner.run(app, policy)

    rows = []
    for label, r in (("baseline", base_run), (args.policy, run)):
        m = r.metrics
        rows.append((label, f"{m.time * 1e3:.2f}", f"{m.energy:.3f}",
                     f"{m.avg_power:.1f}", f"{m.ed2 * 1e6:.3f}"))
    print(format_table(
        headers=("policy", "time ms", "energy J", "power W", "ED2 uJ s^2"),
        rows=rows,
        title=f"{app.name}: {app.iterations} iterations x "
              f"{len(app.kernels)} kernels",
    ))

    improvement = 1 - run.metrics.ed2 / base_run.metrics.ed2
    perf = base_run.metrics.time / run.metrics.time - 1
    print(f"\nED2 {improvement:+.1%}, performance {perf:+.1%}, power "
          f"{1 - run.metrics.avg_power / base_run.metrics.avg_power:+.1%}")

    print("\nmemory-bus residency:")
    for f_mem, frac in sorted(run.trace.f_mem_residency().fractions.items()):
        print(f"  {hz_to_mhz(f_mem):6.0f} MHz  {frac:6.1%}")

    if telemetry.enabled:
        write_span_outputs(args, telemetry)
        if args.profile:
            from repro.telemetry.spantrace import format_span_report
            print("\nspan profile of the run:")
            print(format_span_report(telemetry.spans.records()))
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Summarize a ``--trace`` file, a metrics export, or both."""
    from repro.errors import TelemetryError

    if not (args.trace or args.metrics):
        print("telemetry-report needs a trace file or --metrics",
              file=sys.stderr)
        return 2

    if args.trace:
        from repro.telemetry.report import format_report, summarize
        from repro.telemetry.spantrace import (
            format_span_report, load_chrome_trace)
        try:
            trace = load_chrome_trace(args.trace)
        except FileNotFoundError:
            print(f"no such trace file: {args.trace}", file=sys.stderr)
            return 2
        except (OSError, TelemetryError) as error:
            print(f"unreadable trace {args.trace}: {error}", file=sys.stderr)
            return 2
        if trace.events:
            print(format_report(summarize(trace.events)))
            print()
        print(format_span_report(trace.spans))

    if args.metrics:
        import json

        from repro.telemetry.report import (
            cache_effectiveness_from_metrics, check_metrics_export,
            eventsim_engine_from_metrics)
        try:
            with open(args.metrics) as handle:
                metrics = json.load(handle)
            check_metrics_export(metrics)
        except (OSError, ValueError, TelemetryError) as error:
            print(f"unreadable metrics file {args.metrics}: {error}",
                  file=sys.stderr)
            return 2
        line = cache_effectiveness_from_metrics(metrics)
        if args.trace:
            print()
        print(line if line is not None
              else "sweep cache: no series in the metrics export")
        eventsim_line = eventsim_engine_from_metrics(metrics)
        if eventsim_line is not None:
            print(eventsim_line)
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    """Repeated-trial Monte Carlo bands for one policy vs the baseline."""
    from repro.analysis.evaluation import EvaluationHarness
    from repro.workloads.registry import application_names

    telemetry = span_telemetry(args)
    attach_store(args)
    context = ExperimentContext()
    if args.apps:
        # An application named twice is rolled out, printed and counted
        # in the geomean once.
        names = list(dict.fromkeys(args.apps))
        unknown = [a for a in names if a not in application_names()]
        if unknown:
            print(f"unknown application(s) {', '.join(map(repr, unknown))}; "
                  f"try: python -m repro list", file=sys.stderr)
            return 2
        apps = [context.application(name) for name in names]
    else:
        apps = context.applications

    # One root span over the whole run: training, the reference
    # sessions and every rollout (with its noise gather) nest under it.
    with telemetry.span("montecarlo", policy=args.policy, seeds=args.seeds):
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        # ``seeds`` stays a keyword argument: the repository benchmark
        # shifts trial seeds by rewriting it.
        summary = harness.evaluate_montecarlo(
            apps, [_build_policy(context, args.policy)],
            seeds=args.seeds,
            noise_std_fraction=args.noise,
        )

    rows = []
    for comparison in summary.comparisons:
        ed2 = comparison.ed2_improvement
        energy = comparison.energy_improvement
        perf = comparison.performance_delta
        rows.append((
            comparison.application,
            f"{ed2.mean:+.1%} ±{ed2.half_width:.1%}",
            f"{energy.mean:+.1%} ±{energy.half_width:.1%}",
            f"{perf.mean:+.1%} ±{perf.half_width:.1%}",
        ))
    if len(summary.comparisons) > 1:
        geo_ed2 = summary.geomean(args.policy, "ed2_improvement")
        geo_energy = summary.geomean(args.policy, "energy_improvement")
        geo_perf = summary.geomean(args.policy, "performance_delta")
        rows.append((
            "geomean",
            f"{geo_ed2.mean:+.1%} ±{geo_ed2.half_width:.1%}",
            f"{geo_energy.mean:+.1%} ±{geo_energy.half_width:.1%}",
            f"{geo_perf.mean:+.1%} ±{geo_perf.half_width:.1%}",
        ))
    print(format_table(
        headers=("application", "ED2 vs baseline", "energy vs baseline",
                 "performance"),
        rows=rows,
        title=f"{args.policy}: {len(summary.seeds)} Monte Carlo trials at "
              f"{summary.noise_std_fraction:.0%} time noise "
              f"(mean ± 95% CI, seed-paired)",
    ))
    if telemetry.enabled:
        write_span_outputs(args, telemetry)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Design-space summary for one or more kernels."""
    from repro.analysis.sweep import ConfigSweep
    from repro.errors import map_items
    from repro.workloads.registry import get_kernel

    attach_store(args)
    context = ExperimentContext()
    specs = []
    for name in args.kernels:
        try:
            specs.append(get_kernel(name).base)
        except Exception:
            print(f"unknown kernel {name!r}; try: python -m repro list",
                  file=sys.stderr)
            return 2

    sweeps = map_items(lambda spec: ConfigSweep(context.platform, spec),
                       specs)
    for spec, sweep in zip(specs, sweeps):
        best_perf = sweep.optimum_performance()
        rows = []
        for target, point in (("min energy", sweep.optimum_energy()),
                              ("min ED2", sweep.optimum_ed2()),
                              ("max perf", best_perf)):
            rows.append((
                target, point.config.describe(),
                f"{point.performance / best_perf.performance:.2f}",
                f"{point.energy / best_perf.energy:.2f}",
                f"{point.card_power:.0f}",
            ))
        print(format_table(
            headers=("target", "configuration", "perf", "energy", "power W"),
            rows=rows,
            title=f"{spec.name}: metric-optimal configurations over "
                  f"{len(sweep)} grid points",
        ))
    return 0
