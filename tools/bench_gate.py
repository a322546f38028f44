#!/usr/bin/env python
"""CI face of the benchmark trend ledger: ingest perfbench runs, gate
regressions.

Two subcommands::

    python3 perfbench/run.py --workload reproduce_cold --seed 0 \\
        --seconds 5 --trace 0 > perfbench-reproduce_cold.txt
    python tools/bench_gate.py ingest perfbench-reproduce_cold.txt
    python tools/bench_gate.py check

``ingest`` appends each saved ``--trace 0`` stdout to the ledger as one
row of its workload. ``check`` gates the latest row of each workload
(:func:`benchmarks.ledger.evaluate_gates`: ``wall_s`` and
``peak_rss_mb`` against the median of the prior rows, within
BENCHMARK.json's bounds) and prints the trend report, whose
``gate <metric>:`` lines give each verdict under its workload. A
regression, a missing gated metric or a row that perfbench marked
``correct: false`` exits 1, which is the CI failure. This script is the
ledger's one entry point.

The ledger file defaults to ``benchmarks/ledger.jsonl``; CI persists its
own across runs (actions/cache), so the baseline window survives
between workflow runs on one runner lineage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import ledger  # noqa: E402


def _ledger_path(args: argparse.Namespace) -> Path:
    return Path(args.ledger) if args.ledger else ledger.default_ledger_path()


def cmd_ingest(args: argparse.Namespace) -> int:
    path = _ledger_path(args)
    failures = 0
    for file in args.files:
        try:
            entry = ledger.ingest_file(path, file)
        except ValueError as error:
            print(f"bench_gate: {error}", file=sys.stderr)
            failures += 1
            continue
        verdict = "correct" if entry.correct else "NOT correct"
        print(f"bench_gate: ingested {entry.workload} ({verdict}, "
              f"{len(entry.metrics)} metrics) from {file} into {path}")
    return 1 if failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    path = _ledger_path(args)
    entries = ledger.read_entries(path)
    if not entries:
        # An empty ledger is not a failure: the first CI run on a fresh
        # cache has nothing to compare yet.
        print(f"bench_gate: ledger {path} has no rows; nothing to check")
        return 0
    results = ledger.evaluate_all_gates(entries)
    print(ledger.format_trend_report(entries, results))
    print()
    failures = sum(result.status in ledger.FAILING for result in results)
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

    ingest_p = sub.add_parser(
        "ingest", help="append saved perfbench --trace 0 stdout")
    ingest_p.add_argument("files", nargs="+", metavar="PERFBENCH_STDOUT")
    ingest_p.add_argument("--ledger", metavar="PATH", default=None)
    ingest_p.set_defaults(func=cmd_ingest)

    check_p = sub.add_parser("check", help="gate the latest rows")
    check_p.add_argument("--ledger", metavar="PATH", default=None)
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
