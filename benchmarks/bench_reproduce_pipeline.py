#!/usr/bin/env python
"""Pipeline-scheduler benchmark: cold vs warm ``reproduce``.

Runs the full ``reproduce`` pipeline in *separate interpreters*:

* **cold** — fresh store: every node runs,
* **warm-incremental** — the cold leg's store: every report node must
  be served from the result manifest without executing.

Each child times ``cli.main`` only and writes the ``--profile-json``
per-node breakdown, which lands in the output JSON. The parent verifies

* every report file is **byte-identical** across the two legs,
* the warm leg **served all 26 report nodes from the manifest** and ran
  none,
* the ``--min-warm-speedup`` floor (default 10x; the warm leg does no
  experiment work at all).

Results land in machine-readable JSON (``BENCH_pipeline.json``)::

    PYTHONPATH=src python benchmarks/bench_reproduce_pipeline.py
    PYTHONPATH=src python benchmarks/bench_reproduce_pipeline.py \\
        --min-warm-speedup 5 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Executed in a fresh interpreter per leg: argv = (store, reports, profile)
_CHILD = """\
import json, sys, time
from repro import cli

argv = ["reproduce", "--output", sys.argv[2], "--cache-dir", sys.argv[1],
        "--profile-json", sys.argv[3]]
t0 = time.perf_counter()
rc = cli.main(argv)
elapsed = time.perf_counter() - t0
assert rc == 0, f"reproduce failed with exit code {rc}"
with open(sys.argv[3]) as fh:
    profile = json.load(fh)
profile["elapsed_s"] = elapsed
with open(sys.argv[3], "w") as fh:
    json.dump(profile, fh)
"""


def _run_leg(store_dir: Path, reports_dir: Path, profile_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(store_dir), str(reports_dir),
         str(profile_path)],
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(profile_path) as fh:
        return json.load(fh)


def _compare_reports(base_dir: Path, other_dir: Path) -> list:
    """Names of report files that differ (empty = byte-identical runs)."""
    base = sorted(p.name for p in base_dir.iterdir())
    other = sorted(p.name for p in other_dir.iterdir())
    if base != other:
        return sorted(set(base) ^ set(other))
    return [name for name in base
            if (base_dir / name).read_bytes()
            != (other_dir / name).read_bytes()]


def _node_breakdown(profile: dict) -> list:
    """Per-node rows sorted by wall time, heaviest first."""
    return sorted(
        ({"node": n["node"], "status": n["status"], "wall_s": n["wall_s"]}
         for n in profile["nodes"]),
        key=lambda row: row["wall_s"], reverse=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-warm-speedup", type=float, default=10.0,
                        help="fail if the manifest-served rerun is not at "
                             "least this much faster than the cold run "
                             "(default: 10x)")
    parser.add_argument("--warm-repeats", type=int, default=3,
                        help="warm-leg repeats, best-of")
    parser.add_argument("--out", default="BENCH_pipeline.json",
                        help="output JSON path (default: "
                             "BENCH_pipeline.json)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="pipeline-") as scratch:
        scratch = Path(scratch)

        print("cold reproduce (fresh store) ...")
        cold = _run_leg(scratch / "store", scratch / "r-cold",
                        scratch / "p-cold.json")
        print(f"  {cold['elapsed_s']:.2f}s")

        print(f"warm-incremental reproduce (populated store, best of "
              f"{args.warm_repeats}) ...")
        warm = min(
            (_run_leg(scratch / "store", scratch / "r-warm",
                      scratch / "p-warm.json")
             for _ in range(max(1, args.warm_repeats))),
            key=lambda leg: leg["elapsed_s"],
        )
        warm_statuses = {n["node"]: n["status"] for n in warm["nodes"]}
        served = sorted(n for n, s in warm_statuses.items()
                        if s == "manifest")
        executed = sorted(n for n, s in warm_statuses.items() if s == "ran")
        print(f"  {warm['elapsed_s']:.3f}s, {len(served)} report node(s) "
              f"manifest-served, {len(executed)} executed")

        differing = _compare_reports(scratch / "r-cold", scratch / "r-warm")

    warm_speedup = cold["elapsed_s"] / warm["elapsed_s"]
    summary = {
        "cores": os.cpu_count() or 1,
        "cold_serial_s": cold["elapsed_s"],
        "warm_incremental_s": warm["elapsed_s"],
        "warm_speedup": warm_speedup,
        "min_warm_speedup_floor": args.min_warm_speedup,
        "warm_served_nodes": served,
        "warm_executed_nodes": executed,
        "reports_identical": not differing,
        "differing_reports": differing,
        "node_breakdown": {"cold_serial": _node_breakdown(cold)},
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\nwarm speedup {warm_speedup:.1f}x (cold "
          f"{cold['elapsed_s']:.2f}s -> warm {warm['elapsed_s']:.3f}s) "
          f"-> {args.out}")

    failed = False
    if differing:
        print(f"FAIL: {len(differing)} report(s) differ between cold and "
              f"warm: {', '.join(differing)}", file=sys.stderr)
        failed = True
    if executed:
        print(f"FAIL: warm rerun executed {len(executed)} node(s) instead "
              f"of serving them: {', '.join(executed)}", file=sys.stderr)
        failed = True
    if not served:
        print("FAIL: warm rerun served no nodes from the manifest",
              file=sys.stderr)
        failed = True
    if warm_speedup < args.min_warm_speedup:
        print(f"FAIL: warm speedup {warm_speedup:.1f}x below the "
              f"{args.min_warm_speedup}x floor", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
