#!/usr/bin/env python
"""Regenerate the golden reports and show what changed.

Runs one cold ``python -m repro reproduce`` into a throwaway store and
rewrites ``tests/golden/reproduce/`` with the 26 reports it wrote.
Against the store that run filled it runs ``reproduce --ablations``,
which serves those 26 and computes the six ablation reports, and
rewrites ``tests/golden/ablations/`` with them. It prints a unified diff
of every report that changed, plus the sha256 of each changed core
report. It also rewrites the second copy of each of the 32 reports
under ``benchmarks/reports/``, so the two cannot drift. Against the same
store it then runs
``python -m repro montecarlo --seeds 32`` and rewrites
``tests/golden/montecarlo/harmonia_seeds32.txt`` with its stdout the
same way. Exit status is 0 whether or not anything changed; a nonzero
status means a run failed.

``tests/test_cli.py`` compares reproduce and montecarlo output with
these files byte for byte, and checks that the sha256 values of the core
reports and the montecarlo golden equal the ``reproduce`` and
``montecarlo_seed0_stdout`` digests in ``perfbench/digests.json`` (the
benchmark never runs the ablations). A deliberate output change
therefore needs both: rerun this tool, and update those digests in the
same change.

Run from the repository root:  python tools/regen_goldens.py
"""

from __future__ import annotations

import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "reproduce"
ABLATION_GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "ablations"
BENCH_REPORT_DIR = REPO_ROOT / "benchmarks" / "reports"
MONTECARLO_GOLDEN = (REPO_ROOT / "tests" / "golden" / "montecarlo"
                     / "harmonia_seeds32.txt")
#: the montecarlo run of the golden; perfbench's seed-0 command, which
#: also passes the ignored ``--jobs 1``
MONTECARLO_ARGS = ("montecarlo", "--seeds", "32")


def child_env() -> dict:
    """A fresh interpreter's environment: the checkout's ``src`` on the
    path and no ``REPRO_*`` settings inherited from this process."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def golden_dir(report: str) -> Path:
    """The golden directory of one report file name."""
    return (ABLATION_GOLDEN_DIR if report.startswith("ablation_")
            else GOLDEN_DIR)


def cold_reproduce(workdir: Path) -> Path:
    """Run one cold ``reproduce`` in a fresh interpreter, with its
    store at ``workdir/store``; return the reports directory
    (``workdir/reports``)."""
    out = workdir / "reports"
    subprocess.run(
        [sys.executable, "-m", "repro", "reproduce",
         "--cache-dir", str(workdir / "store"), "--output", str(out)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return out


def ablation_reproduce(store: Path, out: Path) -> Path:
    """Run ``reproduce --ablations`` in a fresh interpreter against
    ``store``, writing every report to ``out``; return ``out``. The
    golden tests make their ablation run here too."""
    subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "--ablations",
         "--cache-dir", str(store), "--output", str(out)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return out


def montecarlo_stdout(store: Path) -> bytes:
    """The stdout of :data:`MONTECARLO_ARGS` run in a fresh interpreter
    against ``store``."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *MONTECARLO_ARGS,
         "--cache-dir", str(store)],
        env=child_env(), check=True, stdout=subprocess.PIPE).stdout


def diff_text(before: bytes, after: bytes, fromfile: str,
              tofile: str) -> str:
    """The unified diff of two UTF-8 texts (empty when they are equal)."""
    return "".join(difflib.unified_diff(
        before.decode("utf-8").splitlines(keepends=True),
        after.decode("utf-8").splitlines(keepends=True),
        fromfile=fromfile, tofile=tofile))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        store = Path(workdir) / "store"
        try:
            out = cold_reproduce(Path(workdir))
            ablations = ablation_reproduce(store, Path(workdir) / "ablations")
            montecarlo = montecarlo_stdout(store)
        except subprocess.CalledProcessError as error:
            print(f"regen_goldens: a run failed ({error})", file=sys.stderr)
            return 1
        fresh = {path.name: path.read_bytes()
                 for path in sorted(out.glob("*.txt"))}
        fresh.update((path.name, path.read_bytes())
                     for path in sorted(ablations.glob("ablation_*.txt")))
    old = {}
    for directory in (GOLDEN_DIR, ABLATION_GOLDEN_DIR):
        directory.mkdir(parents=True, exist_ok=True)
        old.update((path.name, path.read_bytes())
                   for path in sorted(directory.glob("*.txt")))

    changed = []
    for name in sorted(set(old) | set(fresh)):
        before, after = old.get(name, b""), fresh.get(name, b"")
        if before == after:
            continue
        changed.append(name)
        sys.stdout.write(diff_text(before, after, f"golden/{name}",
                                   f"reproduce/{name}"))
    for name in set(old) - set(fresh):
        (golden_dir(name) / name).unlink()
    for name, data in fresh.items():
        (golden_dir(name) / name).write_bytes(data)
        (BENCH_REPORT_DIR / name).write_bytes(data)

    old_montecarlo = (MONTECARLO_GOLDEN.read_bytes()
                      if MONTECARLO_GOLDEN.exists() else b"")
    if old_montecarlo != montecarlo:
        sys.stdout.write(diff_text(
            old_montecarlo, montecarlo,
            f"golden/montecarlo/{MONTECARLO_GOLDEN.name}",
            " ".join(MONTECARLO_ARGS)))
    MONTECARLO_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    MONTECARLO_GOLDEN.write_bytes(montecarlo)

    if not changed and old_montecarlo == montecarlo:
        print(f"regen_goldens: all {len(fresh) + 1} goldens unchanged")
        return 0
    # The benchmark digests the core reports only.
    digested = [name for name in changed if golden_dir(name) == GOLDEN_DIR]
    if not digested and old_montecarlo == montecarlo:
        return 0
    print("\nregen_goldens: update these perfbench/digests.json entries:")
    if digested:
        print(f"reproduce ({len(digested)} core reports changed):")
    for name in digested:
        digest = (hashlib.sha256(fresh[name]).hexdigest()
                  if name in fresh else "(removed)")
        print(f"  {name}: {digest}")
    if old_montecarlo != montecarlo:
        print(f"montecarlo_seed0_stdout: "
              f"{hashlib.sha256(montecarlo).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
