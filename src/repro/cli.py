"""Command-line interface.

::

    python -m repro list                      # applications and kernels
    python -m repro run CoMD --policy harmonia
    python -m repro evaluate                  # the Figures 10-13 headline
    python -m repro figure fig10              # any paper table/figure
    python -m repro sweep Sort.BottomScan     # design-space summary

Every subcommand builds the deterministic simulated test bed, so output is
reproducible run to run.

Module-level imports are limited to what most subcommands share and
none of them loads numpy or the model stack: each subcommand imports
the rest itself, so ``reproduce`` against a warm result manifest only
loads the registry, the store and the pipeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext

#: figure/table name -> (run, format_report) import paths, resolved lazily.
_FIGURES: Dict[str, str] = {
    "fig01": "fig01_power_breakdown",
    "table1": "table1_dvfs",
    "fig03": "fig03_balance",
    "fig06": "fig06_metric_tradeoffs",
    "fig07": "fig07_occupancy",
    "fig08": "fig08_divergence",
    "fig09": "fig09_clock_domains",
    "table3": "table2_table3_models",
    "fig14": "fig14_16_graph500",
    "fig15": "fig14_16_graph500",
    "fig16": "fig14_16_graph500",
    "fig17": "fig17_power_sharing",
    "fig18": "fig18_cg_vs_fg",
    "sec72": "sec72_variants",
    "ext-voltage": "ext_memory_voltage",
    "ext-portability": "ext_portability",
    "ext-capping": "ext_power_capping",
    "ext-validation": "ext_model_validation",
    "ext-recall": "ext_phase_memory",
    "oracle-gap": "oracle_gap",
    "ext-thermal": "ext_thermal_capping",
}

_POLICIES = ("baseline", "harmonia", "cg-only", "dvfs-only", "oracle")


def _attach_store(args: argparse.Namespace, telemetry=None):
    """Attach the persistent sweep store behind the shared cache.

    Every sweeping subcommand calls this first: unless ``--no-cache`` was
    given, deterministic grid surfaces are served from (and written
    through to) the content-addressed store under ``--cache-dir`` /
    ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-harmonia``, so repeated CLI
    invocations warm-start across processes. An unusable store directory
    degrades to memory-only operation with a warning — the store is an
    accelerator, never a requirement.
    """
    from repro.platform.sweepcache import shared_cache

    cache = shared_cache()
    if getattr(args, "no_cache", False):
        cache.detach_store()
        return None
    from repro.platform.store import SweepStore, resolve_store_dir

    root = resolve_store_dir(getattr(args, "cache_dir", None))
    try:
        store = SweepStore(root, telemetry=telemetry)
    except OSError as error:
        print(f"warning: sweep store disabled ({root}: {error})",
              file=sys.stderr)
        cache.detach_store()
        return None
    cache.attach_store(store)
    return store


def _span_telemetry(args: argparse.Namespace):
    """A live telemetry handle when ``--trace`` or ``--metrics-out`` was
    given, else ``None`` (the run keeps the null handle)."""
    if not (args.trace or args.metrics_out):
        return None
    from repro.telemetry import Telemetry
    return Telemetry()


def _write_span_outputs(args: argparse.Namespace, telemetry) -> None:
    """Write the ``--trace`` Chrome span trace and the ``--metrics-out``
    metrics registry (sweep-cache counters included) of a finished run."""
    if args.trace:
        from repro.telemetry import write_chrome_trace
        written = write_chrome_trace(args.trace, telemetry.spans.records())
        print(f"\nspan trace: {written} spans written to {args.trace}\n"
              f"(open in Perfetto / chrome://tracing, or summarize "
              f"with: python -m repro telemetry-report "
              f"--spans {args.trace})")
    if args.metrics_out:
        from repro.platform.sweepcache import shared_cache
        shared_cache().publish(telemetry)
        telemetry.metrics.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


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
    from repro.units import hz_to_mhz
    from repro.workloads.registry import application_names

    context = ExperimentContext()
    if args.app not in application_names():
        print(f"unknown application {args.app!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    app = context.application(args.app)

    telemetry = None
    sink = None
    if args.trace or args.metrics_out or args.profile:
        from repro.telemetry import JsonlSink, Telemetry
        telemetry = Telemetry()
        if args.trace:
            sink = JsonlSink(args.trace)
            telemetry.add_sink(sink)
    _attach_store(args, telemetry=telemetry)

    policy = _build_policy(context, args.policy, telemetry=telemetry)
    baseline = context.baseline_policy()
    # The baseline comparator runs un-instrumented so the trace holds
    # only the policy under study.
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

    if telemetry is not None:
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
            from repro.telemetry.spans import format_span_report
            print("\nspan profile of the policy run:")
            print(format_span_report(telemetry.spans.records()))
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Summarize a JSONL event trace, a span trace, or a metrics export."""
    from repro.errors import TelemetryError
    from repro.telemetry.report import (
        cache_effectiveness_from_metrics, eventsim_engine_from_metrics,
        format_report, summarize)

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
        from repro.telemetry.spans import format_span_report, load_chrome_trace
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
        from repro.telemetry.metrics import MetricsRegistry
        try:
            with open(args.metrics) as handle:
                metrics = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"unreadable metrics file {args.metrics}: {error}",
                  file=sys.stderr)
            return 2
        if args.prometheus or args.metrics_out:
            try:
                exposition = MetricsRegistry.from_dict(metrics)\
                    .render_prometheus()
            except TelemetryError as error:
                print(f"bad metrics snapshot {args.metrics}: {error}",
                      file=sys.stderr)
                return 2
            if args.metrics_out:
                with open(args.metrics_out, "w") as handle:
                    handle.write(exposition)
                print(f"prometheus exposition written to {args.metrics_out}")
            if args.prometheus:
                if not first:
                    print()
                print(exposition, end="")
                first = False
        else:
            line = cache_effectiveness_from_metrics(metrics)
            if not first:
                print()
            print(line if line is not None
                  else "sweep cache: no series in the metrics export")
            eventsim_line = eventsim_engine_from_metrics(metrics)
            if eventsim_line is not None:
                print(eventsim_line)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Print the Figures 10-13 headline evaluation."""
    from repro.experiments import fig10_13_evaluation
    from repro.runtime.parallel import resolve_jobs

    _attach_store(args)
    jobs = resolve_jobs(args.jobs)
    context = ExperimentContext(jobs=jobs)
    result = fig10_13_evaluation.run(context)
    print(fig10_13_evaluation.format_report(result))
    if args.seeds:
        summary = fig10_13_evaluation.run_ci(
            context, seeds=args.seeds, noise_std_fraction=args.noise,
            jobs=jobs,
        )
        print()
        print(fig10_13_evaluation.format_ci(summary))
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    """Repeated-trial Monte Carlo bands for one policy vs the baseline."""
    from repro.analysis.evaluation import EvaluationHarness
    from repro.runtime.parallel import resolve_jobs
    from repro.telemetry.handle import coalesce
    from repro.workloads.registry import application_names

    telemetry = _span_telemetry(args)
    _attach_store(args, telemetry=telemetry)
    args.jobs = resolve_jobs(args.jobs)
    context = ExperimentContext(jobs=args.jobs)
    if args.apps:
        unknown = [a for a in args.apps if a not in application_names()]
        if unknown:
            print(f"unknown application(s) {', '.join(map(repr, unknown))}; "
                  f"try: python -m repro list", file=sys.stderr)
            return 2
        apps = [context.application(name) for name in args.apps]
    else:
        apps = context.applications

    factories = {
        "baseline": context.baseline_policy,
        "harmonia": context.harmonia_policy,
        "cg-only": context.cg_only_policy,
        "dvfs-only": context.dvfs_only_policy,
        "oracle": context.oracle_policy,
    }
    # One root span over the whole run: training, the reference
    # sessions and every rollout (with its noise gather) nest under it.
    with coalesce(telemetry).span("montecarlo", policy=args.policy,
                                  seeds=args.seeds, jobs=args.jobs):
        if args.jobs > 1 and args.policy not in ("baseline", "oracle"):
            # Train before fanning out so every worker sees one shared
            # report.
            _ = context.training
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        summary = harness.evaluate_montecarlo(
            apps,
            baseline_factory=context.baseline_policy,
            policy_factories=[factories[args.policy]],
            seeds=args.seeds,
            noise_std_fraction=args.noise,
            jobs=args.jobs,
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
    if telemetry is not None:
        _write_span_outputs(args, telemetry)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one paper table/figure."""
    import importlib

    _attach_store(args)
    key = args.name.lower()
    if key in ("fig10", "fig11", "fig12", "fig13"):
        from repro.experiments import fig10_13_evaluation as module
        context = ExperimentContext()
        result = fig10_13_evaluation_result = module.run(context)
        formatter = getattr(module, f"format_{key}")
        print(formatter(result))
        return 0
    if key == "fig04" or key == "fig05":
        from repro.experiments import fig04_fig05_power_ranges as module
        context = ExperimentContext()
        if key == "fig04":
            print(module.format_report(module.run_fig04(context), "70%"))
        else:
            print(module.format_report(module.run_fig05(context), "10%"))
        return 0
    if key not in _FIGURES:
        known = ", ".join(sorted(set(_FIGURES) | {"fig04", "fig05", "fig10",
                                                  "fig11", "fig12", "fig13"}))
        print(f"unknown figure {args.name!r}; known: {known}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{_FIGURES[key]}")
    context = ExperimentContext()
    print(module.format_report(module.run(context)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Design-space summary for one or more kernels."""
    from repro.analysis.sweep import ConfigSweep
    from repro.runtime.parallel import fan_out
    from repro.workloads.registry import get_kernel

    _attach_store(args)
    context = ExperimentContext()
    specs = []
    for name in args.kernels:
        try:
            specs.append(get_kernel(name).base)
        except Exception:
            print(f"unknown kernel {name!r}; try: python -m repro list",
                  file=sys.stderr)
            return 2

    sweeps = fan_out(lambda spec: ConfigSweep(context.platform, spec),
                     specs, jobs=args.jobs)
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


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every paper table/figure and write reports to a dir.

    The experiments run as a DAG through the pipeline scheduler: ready
    nodes fan out over the ``--jobs`` worker budget and unchanged nodes
    are served from the content-addressed result manifest in the sweep
    store (``--no-incremental`` forces recomputation). Report bytes are
    identical in every mode.
    """
    import json
    import pathlib
    import time

    from repro.experiments.registry import (
        reproduce_fingerprint, reproduce_specs)
    from repro.runtime.parallel import resolve_jobs
    from repro.runtime.pipeline import (
        ExperimentPipeline, ResultManifest, STATUS_MANIFEST, format_profile)
    from repro.telemetry.handle import coalesce

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    telemetry = _span_telemetry(args)
    store = _attach_store(args, telemetry=telemetry)
    jobs = resolve_jobs(args.jobs)
    context = ExperimentContext(jobs=jobs)

    manifest = None
    if store is not None and not args.no_incremental:
        manifest = ResultManifest(store, telemetry=telemetry)
    pipeline = ExperimentPipeline(
        reproduce_specs(include_ablations=args.ablations), context,
        jobs=jobs, manifest=manifest,
        fingerprint=reproduce_fingerprint(context),
        telemetry=telemetry,
    )

    started = time.time()
    count = 0

    def emit(name: str, text: str, status: str) -> None:
        nonlocal count
        (out_dir / f"{name}.txt").write_text(text + "\n")
        count += 1
        tag = "  (manifest)" if status == STATUS_MANIFEST else ""
        print(f"[{count:2d}] {name}{tag}")

    # One root span over the whole run: every pipeline node (and the
    # store/batch/Monte-Carlo spans below them, across thread and process
    # workers) nests under it in the exported trace.
    with coalesce(telemetry).span("reproduce", jobs=jobs):
        result = pipeline.run(emit)

    print(f"\n{count} reports written to {out_dir} "
          f"in {time.time() - started:.1f}s")
    served = result.served()
    if manifest is not None:
        if len(served) == len(result.reports):
            print(f"result manifest: all {len(served)} reports served from "
                  f"cache, every node skipped")
        elif served:
            print(f"result manifest: {len(served)}/{len(result.reports)} "
                  f"reports served from cache: {', '.join(served)}")
        else:
            print("result manifest: no reports served (cold run)")
    print()
    print(format_profile(result))
    if args.profile_json:
        profile = result.to_dict()
        profile["jobs"] = jobs
        with open(args.profile_json, "w") as handle:
            json.dump(profile, handle, indent=2)
            handle.write("\n")
        print(f"pipeline profile written to {args.profile_json}")
    from repro.platform.sweepcache import shared_cache
    from repro.telemetry.report import format_cache_effectiveness
    stats = shared_cache().stats()
    store_stats = store.stats() if store is not None else None
    print(format_cache_effectiveness(
        stats.memory.hits, stats.memory.misses,
        stats.store.hits, stats.store.misses,
        bytes_read=store_stats.bytes_read if store_stats else 0,
        bytes_written=store_stats.bytes_written if store_stats else 0,
    ))
    if telemetry is not None:
        _write_span_outputs(args, telemetry)
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Harmonia (ISCA 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand that evaluates sweep surfaces.
    cache_p = argparse.ArgumentParser(add_help=False)
    cache_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="persistent sweep-store directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-harmonia)")
    cache_p.add_argument("--no-cache", action="store_true",
                         help="disable the persistent sweep store (the "
                              "in-process cache stays active)")

    # Shared by the subcommands whose --trace is a Chrome span trace.
    span_p = argparse.ArgumentParser(add_help=False)
    span_p.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the run's "
                             "span tree to PATH (open in Perfetto)")
    span_p.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the aggregated metrics registry "
                             "(merged across all workers) to PATH as JSON")

    sub.add_parser("list", help="list applications and kernels") \
        .set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="run one application under a policy",
                           parents=[cache_p])
    run_p.add_argument("app", help="application name (see: list)")
    run_p.add_argument("--policy", choices=_POLICIES, default="harmonia")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="append a JSONL telemetry trace of the policy "
                            "run to PATH")
    run_p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the run's metrics registry to PATH "
                            "as JSON")
    run_p.add_argument("--profile", action="store_true",
                       help="print the policy run's span profile")
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser(
        "telemetry-report",
        help="summarize a JSONL telemetry trace (action mix, phases, "
             "residency, top kernels), a Chrome span trace, or a "
             "metrics export",
    )
    report_p.add_argument("trace", nargs="?", default=None,
                          help="path to a --trace JSONL event file")
    report_p.add_argument("--spans", metavar="PATH", default=None,
                          help="self-vs-total and critical-path report of "
                               "a Chrome span trace (reproduce or "
                               "montecarlo --trace)")
    report_p.add_argument("--metrics", metavar="PATH", default=None,
                          help="summarize sweep-cache effectiveness from a "
                               "--metrics-out JSON export")
    report_p.add_argument("--prometheus", action="store_true",
                          help="print --metrics as Prometheus text "
                               "exposition instead")
    report_p.add_argument("--metrics-out", metavar="PATH", default=None,
                          help="write the Prometheus exposition of "
                               "--metrics to PATH")
    report_p.set_defaults(func=cmd_telemetry_report)

    eval_p = sub.add_parser("evaluate", help="the Figures 10-13 headline",
                            parents=[cache_p])
    eval_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="evaluate applications on up to N threads; "
                             "0 = one per core (results are identical "
                             "for any N)")
    eval_p.add_argument("--seeds", type=int, default=0, metavar="N",
                        help="also print 95%% confidence bands from N "
                             "Monte Carlo measurement-noise trials")
    eval_p.add_argument("--noise", type=float, default=0.05, metavar="F",
                        help="per-trial execution-time noise fraction "
                             "for --seeds (default: 0.05)")
    eval_p.set_defaults(func=cmd_evaluate)

    mc_p = sub.add_parser(
        "montecarlo",
        help="repeated-trial noise bands for one policy vs the baseline",
        parents=[cache_p, span_p],
    )
    mc_p.add_argument("apps", nargs="*", metavar="app",
                      help="application name(s); default: all fourteen")
    mc_p.add_argument("--policy", choices=_POLICIES, default="harmonia")
    mc_p.add_argument("--seeds", type=int, default=16, metavar="N",
                      help="number of Monte Carlo trial seeds (default: 16)")
    mc_p.add_argument("--noise", type=float, default=0.05, metavar="F",
                      help="per-trial execution-time noise fraction "
                           "(default: 0.05)")
    mc_p.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="evaluate applications on up to N threads; "
                           "0 = one per core")
    mc_p.set_defaults(func=cmd_montecarlo)

    fig_p = sub.add_parser("figure", help="regenerate one table/figure",
                           parents=[cache_p])
    fig_p.add_argument("name", help="e.g. fig10, table1, ext-thermal")
    fig_p.set_defaults(func=cmd_figure)

    sweep_p = sub.add_parser("sweep", help="design-space summary of kernels",
                             parents=[cache_p])
    sweep_p.add_argument("kernels", nargs="+", metavar="kernel",
                         help="qualified name(s), e.g. Sort.BottomScan")
    sweep_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="sweep kernels on up to N threads; "
                              "0 = one per core")
    sweep_p.set_defaults(func=cmd_sweep)

    repro_p = sub.add_parser(
        "reproduce", help="regenerate every table/figure report",
        parents=[cache_p, span_p],
    )
    repro_p.add_argument("--output", default="reports",
                         help="output directory (default: ./reports)")
    repro_p.add_argument("--ablations", action="store_true",
                         help="also run the six ablation studies")
    repro_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="total worker budget: experiment nodes and "
                              "their internal fan-outs share it; 0 = one "
                              "per core (reports are identical for any N)")
    repro_p.add_argument("--no-incremental", action="store_true",
                         help="ignore the result manifest and recompute "
                              "every experiment node")
    repro_p.add_argument("--profile-json", metavar="PATH", default=None,
                         help="write the per-node wall/CPU timings and the "
                              "critical path to PATH as JSON")
    repro_p.set_defaults(func=cmd_reproduce)

    bench_p = sub.add_parser(
        "bench-report",
        help="benchmark trend ledger: history, baselines and gate status",
    )
    bench_p.add_argument("--ledger", metavar="PATH", default=None,
                         help="ledger JSONL file (default: "
                              "benchmarks/ledger.jsonl)")
    bench_p.add_argument("--bench", action="append", default=None,
                         metavar="NAME",
                         help="restrict to one benchmark (repeatable)")
    bench_p.add_argument("--window", type=int, default=5, metavar="N",
                         help="baseline window: median of up to N prior "
                              "entries (default: 5)")
    bench_p.add_argument("--check", action="store_true",
                         help="exit 1 when any gate reports a regression")
    bench_p.set_defaults(func=cmd_bench_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
