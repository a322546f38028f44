#!/usr/bin/env python
"""CI face of the benchmark trend ledger: ingest runs, gate regressions.

Two subcommands::

    python tools/bench_gate.py ingest BENCH_pipeline.json BENCH_sweep.json
    python tools/bench_gate.py check --window 5

``ingest`` appends every given ``BENCH_*.json`` to the ledger (benchmark
name derived from the filename, overridable with ``--bench`` when
ingesting a single file). ``check`` evaluates the per-benchmark gate
rules (:data:`benchmarks.ledger.DEFAULT_GATES`) against the latest entry
of each benchmark: it prints the ledger's trend report, then one line
per gate; a ``regression`` result, or a gated metric missing from the
latest run, exits 1, which is the CI failure. This script is the
ledger's one entry point.

The ledger file defaults to ``benchmarks/ledger.jsonl``; CI persists it
across runs (actions/cache), so the baseline window survives between
workflow runs on one runner lineage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import ledger  # noqa: E402


def cmd_ingest(args: argparse.Namespace) -> int:
    path = Path(args.ledger) if args.ledger else ledger.default_ledger_path()
    if args.bench and len(args.files) > 1:
        print("bench_gate: --bench needs exactly one file", file=sys.stderr)
        return 2
    failures = 0
    for file in args.files:
        try:
            entry = ledger.ingest_file(path, file, bench=args.bench)
        except ValueError as error:
            print(f"bench_gate: {error}", file=sys.stderr)
            failures += 1
            continue
        print(f"bench_gate: ingested {entry.bench} "
              f"({len(entry.metrics)} metrics) from {file} into {path}")
    return 1 if failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    path = Path(args.ledger) if args.ledger else ledger.default_ledger_path()
    entries = ledger.read_entries(path)
    if not entries:
        # An empty ledger is not a failure: the first CI run on a fresh
        # cache has nothing to compare yet.
        print(f"bench_gate: ledger {path} is empty; nothing to check")
        return 0
    if args.bench:
        entries = [entry for entry in entries if entry.bench in args.bench]
    print(ledger.format_trend_report(entries, window=args.window))
    print()
    results = ledger.evaluate_all_gates(entries, window=args.window)
    if not results:
        print("bench_gate: no gated benchmarks in the ledger")
        return 0
    failures = 0
    for result in results:
        print(f"bench_gate: {result.bench}.{result.metric}: "
              f"{result.status} ({result.detail})")
        # A gated metric that vanished from the latest run would
        # otherwise silently disable its gate — fail on it like a
        # regression.
        if result.status in (ledger.STATUS_REGRESSION,
                             ledger.STATUS_MISSING):
            failures += 1
    if failures:
        print(f"bench_gate: {failures} gate(s) failed", file=sys.stderr)
        return 1
    print(f"bench_gate: OK ({len(results)} gates)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="benchmark trend ledger ingest + regression gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest_p = sub.add_parser("ingest", help="append BENCH_*.json runs")
    ingest_p.add_argument("files", nargs="+", metavar="BENCH_JSON")
    ingest_p.add_argument("--ledger", metavar="PATH", default=None)
    ingest_p.add_argument("--bench", metavar="NAME", default=None,
                          help="benchmark name override (single file only)")
    ingest_p.set_defaults(func=cmd_ingest)

    check_p = sub.add_parser("check", help="gate the latest entries")
    check_p.add_argument("--ledger", metavar="PATH", default=None)
    check_p.add_argument("--window", type=int, default=5, metavar="N",
                         help="baseline = median of up to N prior entries")
    check_p.add_argument("--bench", action="append", default=None,
                         metavar="NAME", help="restrict to one benchmark")
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
