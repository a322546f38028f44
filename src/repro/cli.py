"""Command-line interface.

::

    python -m repro list                      # applications and kernels
    python -m repro run CoMD --policy harmonia
    python -m repro evaluate                  # the Figures 10-13 headline
    python -m repro figure fig10              # any paper table/figure
    python -m repro sweep Sort.BottomScan     # design-space summary

Every subcommand builds the deterministic simulated test bed, so output is
reproducible run to run.

``reproduce``, ``figure`` and ``evaluate`` run one pipeline
(:func:`_run_reports`) and share its result manifest, so each of them
serves a report that any of them has stored.

This module holds only those three report commands, the parser and the
helpers the other commands share. The other commands live in
:mod:`repro.commands`, which :func:`main` imports only to run one of
them. No module-level import loads numpy or the model stack: each
command imports the rest itself, so a report command against a warm
result manifest only loads the registry, the store and the pipeline.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Collection, Optional, Sequence

from repro.experiments.context import ExperimentContext

_POLICIES = ("baseline", "harmonia", "cg-only", "dvfs-only", "oracle")

#: Help text of the ``--jobs`` flag that ``reproduce`` and ``montecarlo``
#: still accept so that existing command lines keep working.
_JOBS_IGNORED = ("ignored: every command runs on one thread; still "
                 "accepted so that existing command lines keep working")


def attach_store(args: argparse.Namespace):
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
        store = SweepStore(root)
    except OSError as error:
        print(f"warning: sweep store disabled ({root}: {error})",
              file=sys.stderr)
        cache.detach_store()
        return None
    cache.attach_store(store)
    return store


def _run_reports(args: argparse.Namespace,
                 reports: Optional[Collection[str]] = None, emit=None):
    """Run the ``reproduce`` pipeline; returns (result, context, store).

    ``figure`` and ``evaluate`` ask for some of the report nodes
    (``reports``; ``reproduce`` asks for all of them). The internal
    nodes always come along, and the scheduler prunes those that no
    requested report needs. So all three commands compute the same node
    keys and share the result manifest: a report that one of them
    stored, the others serve. The manifest is off under ``--no-cache``
    and ``--no-incremental``.
    """
    from repro.experiments.registry import reproduce_specs
    from repro.runtime.pipeline import ExperimentPipeline, ResultManifest

    store = attach_store(args)
    context = ExperimentContext()
    manifest = None
    if store is not None and not getattr(args, "no_incremental", False):
        manifest = ResultManifest(store)
    specs = [spec for spec in reproduce_specs(
                 include_ablations=getattr(args, "ablations", False))
             if reports is None or not spec.is_report
             or spec.name in reports]
    pipeline = ExperimentPipeline(specs, context, manifest=manifest)
    return pipeline.run(emit), context, store


def span_telemetry(args: argparse.Namespace):
    """A live telemetry handle when ``--trace``, ``--metrics-out`` or
    ``run --profile`` was given, else the null handle. The command opens
    its root span on it, and everything below records there through the
    ambient span."""
    if not (args.trace or args.metrics_out
            or getattr(args, "profile", False)):
        from repro.telemetry.handle import NULL_TELEMETRY
        return NULL_TELEMETRY
    from repro.telemetry import Telemetry
    return Telemetry()


def write_span_outputs(args: argparse.Namespace, telemetry) -> None:
    """Write the ``--trace`` file (the run's spans and event instants)
    and the ``--metrics-out`` metrics registry, sweep-cache counters
    included, of a finished run."""
    if args.trace:
        from repro.telemetry.spantrace import write_chrome_trace
        instants = telemetry.spans.instants()
        written = write_chrome_trace(args.trace, telemetry.spans.records(),
                                     instants)
        print(f"\nspan trace: {written} spans, {len(instants)} events "
              f"written to {args.trace}\n"
              f"(open in Perfetto / chrome://tracing, or summarize "
              f"with: python -m repro telemetry-report {args.trace})")
    if args.metrics_out:
        from repro.platform.sweepcache import shared_cache
        shared_cache().publish(telemetry)
        telemetry.metrics.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


#: The report nodes ``evaluate`` prints, one blank line apart.
_EVALUATE_REPORTS = ("fig10_ed2", "fig11_energy", "fig12_power",
                     "fig13_performance")


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Print the Figures 10-13 headline evaluation."""
    result, context, _ = _run_reports(args, _EVALUATE_REPORTS)
    print("\n\n".join(result.reports[name] for name in _EVALUATE_REPORTS))
    if args.seeds:
        from repro.experiments import fig10_13_evaluation
        summary = fig10_13_evaluation.run_ci(
            context, seeds=args.seeds, noise_std_fraction=args.noise,
        )
        print()
        print(fig10_13_evaluation.format_ci(summary))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Print one paper table/figure, named by report node or alias."""
    from repro.experiments.registry import reproduce_specs

    nodes = {name: spec.name for spec in reproduce_specs() if spec.is_report
             for name in (spec.name,) + spec.aliases}
    node = nodes.get(args.name.lower())
    if node is None:
        print(f"unknown figure {args.name!r}; known: "
              f"{', '.join(sorted(nodes))}", file=sys.stderr)
        return 2
    result, _, _ = _run_reports(args, (node,))
    print(result.reports[node])
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every paper table/figure and write reports to a dir.

    The experiments run as a DAG through the pipeline scheduler, one
    node after another in dependency order; unchanged nodes are served
    from the content-addressed result manifest in the sweep store
    (``--no-incremental`` forces recomputation). Report bytes are
    identical in every mode.
    """
    import json
    import pathlib

    from repro.runtime.pipeline import STATUS_MANIFEST, format_profile

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry = span_telemetry(args)
    count = 0

    def emit(name: str, text: str, status: str) -> None:
        nonlocal count
        (out_dir / f"{name}.txt").write_text(text + "\n")
        count += 1
        tag = "  (manifest)" if status == STATUS_MANIFEST else ""
        print(f"[{count:2d}] {name}{tag}")

    # One root span over the whole run: every pipeline node (and the
    # store/batch/Monte-Carlo spans below them) nests under it in the
    # exported trace.
    with telemetry.span(args.command):
        result, _, store = _run_reports(args, emit=emit)

    print(f"\n{count} reports written to {out_dir} "
          f"in {result.wall_s:.1f}s")
    served = result.served()
    if store is not None and not args.no_incremental:
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
        with open(args.profile_json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"pipeline profile written to {args.profile_json}")
    from repro.platform.sweepcache import (
        format_cache_effectiveness, shared_cache)
    stats = shared_cache().stats()
    store_stats = store.stats() if store is not None else None
    print(format_cache_effectiveness(
        stats.memory.hits, stats.memory.misses,
        stats.store.hits, stats.store.misses,
        bytes_read=store_stats.bytes_read if store_stats else 0,
        bytes_written=store_stats.bytes_written if store_stats else 0,
    ))
    if telemetry.enabled:
        write_span_outputs(args, telemetry)
    return 0


def _deferred(name: str):
    """The command ``name`` of :mod:`repro.commands`, imported when it
    runs, so that parsing a report command never loads that module."""
    def run(args: argparse.Namespace) -> int:
        from repro import commands
        return getattr(commands, name)(args)
    return run


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _output_path(text: str) -> str:
    """An argparse type: a file path to write, whose directory exists."""
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory {directory} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    return text


def _output_dir(text: str) -> str:
    """An argparse type: a directory to write into, made if missing, so
    no existing file may stand on its path."""
    path = os.path.abspath(text)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is not a directory")
    return text


def _noise_fraction(text: str) -> float:
    """An argparse type: a finite, positive noise fraction."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}")
    return value


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

    # Shared by the subcommands that write a trace of their run.
    span_p = argparse.ArgumentParser(add_help=False)
    span_p.add_argument("--trace", metavar="PATH", type=_output_path,
                        default=None,
                        help="write the run's span tree and controller "
                             "events to PATH as Chrome trace-event JSON, "
                             "replacing any file there (open in Perfetto)")
    span_p.add_argument("--metrics-out", metavar="PATH", type=_output_path,
                        default=None,
                        help="write the run's metrics registry (sweep-cache "
                             "counters included) to PATH as JSON")

    sub.add_parser("list", help="list applications and kernels") \
        .set_defaults(func=_deferred("cmd_list"))

    run_p = sub.add_parser("run", help="run one application under a policy",
                           parents=[cache_p, span_p])
    run_p.add_argument("app", help="application name (see: list)")
    run_p.add_argument("--policy", choices=_POLICIES, default="harmonia")
    run_p.add_argument("--profile", action="store_true",
                       help="print the run's span profile")
    run_p.set_defaults(func=_deferred("cmd_run"))

    report_p = sub.add_parser(
        "telemetry-report",
        help="summarize a --trace file (action mix, phases, residency and "
             "top kernels when it holds controller events, then the span "
             "table and critical path) or a metrics export",
    )
    report_p.add_argument("trace", nargs="?", default=None,
                          help="path to a --trace file of run, reproduce "
                               "or montecarlo")
    report_p.add_argument("--metrics", metavar="PATH", default=None,
                          help="summarize sweep-cache effectiveness from a "
                               "--metrics-out JSON export")
    report_p.set_defaults(func=_deferred("cmd_telemetry_report"))

    eval_p = sub.add_parser("evaluate", help="the Figures 10-13 headline",
                            parents=[cache_p])
    eval_p.add_argument("--seeds", type=_int_at_least(0), default=0,
                        metavar="N",
                        help="also print 95%% confidence bands from N "
                             "Monte Carlo measurement-noise trials")
    eval_p.add_argument("--noise", type=_noise_fraction, default=0.05,
                        metavar="F",
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
    mc_p.add_argument("--seeds", type=_int_at_least(1), default=16,
                      metavar="N",
                      help="number of Monte Carlo trial seeds (default: 16)")
    mc_p.add_argument("--noise", type=_noise_fraction, default=0.05,
                      metavar="F",
                      help="per-trial execution-time noise fraction "
                           "(default: 0.05)")
    mc_p.add_argument("--jobs", type=int, default=1, metavar="N",
                      help=_JOBS_IGNORED)
    mc_p.set_defaults(func=_deferred("cmd_montecarlo"))

    fig_p = sub.add_parser("figure", help="regenerate one table/figure",
                           parents=[cache_p])
    fig_p.add_argument("name", help="report node name or alias, e.g. "
                                    "fig10, table1, ext-thermal, "
                                    "characterization")
    fig_p.set_defaults(func=cmd_figure)

    sweep_p = sub.add_parser("sweep", help="design-space summary of kernels",
                             parents=[cache_p])
    sweep_p.add_argument("kernels", nargs="+", metavar="kernel",
                         help="qualified name(s), e.g. Sort.BottomScan")
    sweep_p.set_defaults(func=_deferred("cmd_sweep"))

    repro_p = sub.add_parser(
        "reproduce", help="regenerate every table/figure report",
        parents=[cache_p, span_p],
    )
    repro_p.add_argument("--output", type=_output_dir, default="reports",
                         help="output directory (default: ./reports)")
    repro_p.add_argument("--ablations", action="store_true",
                         help="also run the six ablation studies")
    repro_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help=_JOBS_IGNORED)
    repro_p.add_argument("--no-incremental", action="store_true",
                         help="ignore the result manifest and recompute "
                              "every experiment node")
    repro_p.add_argument("--profile-json", metavar="PATH", type=_output_path,
                         default=None,
                         help="write each node's status and wall time to "
                              "PATH as JSON")
    repro_p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
