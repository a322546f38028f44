"""The CLI subcommands that do not print paper reports.

``list``, ``run``, ``sweep``, ``montecarlo``, ``telemetry-report`` and
``bench-report`` live here, apart from :mod:`repro.cli`:
:func:`repro.cli.main` imports this module only when it dispatches one
of them, so ``reproduce``, ``figure`` and ``evaluate`` against a warm
result manifest never compile it. Each command imports the rest of what
it needs itself.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.cli import attach_store, span_telemetry, write_span_outputs
from repro.experiments.context import ExperimentContext


def _build_policy(context: ExperimentContext, name: str, telemetry=None):
    if name in ("baseline", "oracle"):
        # These comparators take no decisions worth tracing; runner-level
        # KernelLaunch events still cover them.
        factories = {
            "baseline": context.baseline_policy,
            "oracle": context.oracle_policy,
        }
        return factories[name]()
    factories = {
        "harmonia": context.harmonia_policy,
        "cg-only": context.cg_only_policy,
        "dvfs-only": context.dvfs_only_policy,
    }
    return factories[name](telemetry=telemetry)


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
    from repro.telemetry.handle import NULL_TELEMETRY
    from repro.units import hz_to_mhz
    from repro.workloads.registry import application_names

    context = ExperimentContext()
    if args.app not in application_names():
        print(f"unknown application {args.app!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    app = context.application(args.app)

    sink = None
    telemetry = NULL_TELEMETRY
    if args.trace or args.metrics_out or args.profile:
        from repro.telemetry import JsonlSink, Telemetry
        if args.trace:
            sink = JsonlSink(args.trace)
        telemetry = Telemetry(sink=sink)
    attach_store(args)

    # One root span over the whole run: the training's and the baseline's
    # store loads record under it too. The baseline comparator's runner
    # gets no handle, so the event trace holds only the policy under
    # study.
    with telemetry.span("run", application=app.name, policy=args.policy):
        policy = _build_policy(context, args.policy, telemetry=telemetry)
        baseline = context.baseline_policy()
        base_run = BatchSessionRunner(context.platform).run(app, baseline)
        run = BatchSessionRunner(context.platform, telemetry).run(app, policy)

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
        if sink is not None:
            sink.close()
            print(f"\ntelemetry trace: {sink.count} events written to "
                  f"{sink.path}\n(summarize with: python -m repro "
                  f"telemetry-report {sink.path})")
        if args.metrics_out:
            from repro.platform.sweepcache import shared_cache
            shared_cache().publish(telemetry)
            telemetry.metrics.write_json(args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        if args.profile:
            from repro.telemetry.spantrace import format_span_report
            print("\nspan profile of the run:")
            print(format_span_report(telemetry.spans.records()))
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Summarize a JSONL event trace, a span trace, or a metrics export."""
    from repro.errors import TelemetryError
    from repro.telemetry.report import (
        cache_effectiveness_from_metrics, check_metrics_export,
        eventsim_engine_from_metrics, format_report, summarize)

    if not (args.trace or args.spans or args.metrics):
        print("telemetry-report needs a trace file, --spans, or --metrics",
              file=sys.stderr)
        return 2

    first = True
    if args.trace:
        from repro.telemetry.export import load_events
        try:
            events = load_events(args.trace)
        except FileNotFoundError:
            print(f"no such trace file: {args.trace}", file=sys.stderr)
            return 2
        except TelemetryError as error:
            print(f"unreadable trace {args.trace}: {error}", file=sys.stderr)
            return 2
        if not events:
            print(f"trace {args.trace} holds no events", file=sys.stderr)
            return 2
        print(format_report(summarize(events)))
        first = False

    if args.spans:
        from repro.telemetry.spantrace import (
            format_span_report, load_chrome_trace)
        try:
            records = load_chrome_trace(args.spans)
        except FileNotFoundError:
            print(f"no such span trace: {args.spans}", file=sys.stderr)
            return 2
        except TelemetryError as error:
            print(f"unreadable span trace {args.spans}: {error}",
                  file=sys.stderr)
            return 2
        if not first:
            print()
        print(format_span_report(records))
        first = False

    if args.metrics:
        import json
        try:
            with open(args.metrics) as handle:
                metrics = json.load(handle)
            check_metrics_export(metrics)
        except (OSError, ValueError, TelemetryError) as error:
            print(f"unreadable metrics file {args.metrics}: {error}",
                  file=sys.stderr)
            return 2
        line = cache_effectiveness_from_metrics(metrics)
        if not first:
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


def _load_ledger_module():
    """Import :mod:`benchmarks.ledger`, tolerating a src-only sys.path.

    The ledger lives beside the benchmarks (it is their data model, not
    runtime code); when ``repro`` was imported from ``src`` alone, the
    repository root is appended so the module resolves in a dev checkout.
    """
    try:
        from benchmarks import ledger
        return ledger
    except ImportError:
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        if not (repo_root / "benchmarks" / "ledger.py").exists():
            raise
        sys.path.insert(0, str(repo_root))
        from benchmarks import ledger
        return ledger


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Report benchmark trends and regression-gate status from the ledger."""
    try:
        ledger = _load_ledger_module()
    except ImportError as error:
        print(f"bench ledger unavailable: {error}", file=sys.stderr)
        return 2

    path = args.ledger if args.ledger else ledger.default_ledger_path()
    entries = ledger.read_entries(path)
    if not entries:
        print(f"ledger {path} holds no entries; ingest BENCH_*.json runs "
              f"with: python tools/bench_gate.py ingest BENCH_foo.json",
              file=sys.stderr)
        return 2
    if args.bench:
        entries = [entry for entry in entries if entry.bench in args.bench]
        if not entries:
            print(f"ledger {path} holds no entries for {args.bench}",
                  file=sys.stderr)
            return 2
    print(ledger.format_trend_report(entries, window=args.window))
    if args.check:
        results = ledger.evaluate_all_gates(entries, window=args.window)
        if any(result.status == ledger.STATUS_REGRESSION
               for result in results):
            return 1
    return 0
