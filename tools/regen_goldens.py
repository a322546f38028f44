#!/usr/bin/env python
"""Regenerate the golden ``reproduce`` reports and show what changed.

Runs one cold ``python -m repro reproduce --jobs 1`` into a throwaway
store, rewrites ``tests/golden/reproduce/`` with the 26 reports it
wrote, and prints a unified diff of every report that changed, plus
the sha256 of each changed report. It also rewrites the second copy of
each report under ``benchmarks/reports/``, so the two cannot drift. Exit status is 0 whether or not
anything changed; a nonzero status means the reproduce run failed.

``tests/test_cli.py`` compares reproduce output with these files byte
for byte, and checks that their sha256 values equal the ``reproduce``
digests in ``perfbench/digests.json``. A deliberate report change
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
BENCH_REPORT_DIR = REPO_ROOT / "benchmarks" / "reports"


def child_env() -> dict:
    """A fresh interpreter's environment: the checkout's ``src`` on the
    path and no ``REPRO_*`` settings inherited from this process."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def cold_reproduce(workdir: Path) -> Path:
    """Run one cold ``reproduce --jobs 1`` in a fresh interpreter, with
    its store at ``workdir/store``; return the reports directory
    (``workdir/reports``). The golden tests build their cold run here
    too, so the goldens and the tests make it the same way."""
    out = workdir / "reports"
    subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "--jobs", "1",
         "--cache-dir", str(workdir / "store"), "--output", str(out)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        try:
            out = cold_reproduce(Path(workdir))
        except subprocess.CalledProcessError as error:
            print(f"regen_goldens: reproduce failed ({error})",
                  file=sys.stderr)
            return 1
        fresh = {path.name: path.read_bytes()
                 for path in sorted(out.glob("*.txt"))}
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    old = {path.name: path.read_bytes()
           for path in sorted(GOLDEN_DIR.glob("*.txt"))}

    changed = []
    for name in sorted(set(old) | set(fresh)):
        before, after = old.get(name, b""), fresh.get(name, b"")
        if before == after:
            continue
        changed.append(name)
        sys.stdout.writelines(difflib.unified_diff(
            before.decode("utf-8").splitlines(keepends=True),
            after.decode("utf-8").splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile=f"reproduce/{name}"))
    for name in set(old) - set(fresh):
        (GOLDEN_DIR / name).unlink()
    for name, data in fresh.items():
        (GOLDEN_DIR / name).write_bytes(data)
        (BENCH_REPORT_DIR / name).write_bytes(data)

    if not changed:
        print(f"regen_goldens: all {len(fresh)} goldens unchanged")
        return 0
    print(f"\nregen_goldens: {len(changed)} of {len(fresh)} reports changed;"
          f" update their perfbench/digests.json entries:")
    for name in changed:
        digest = (hashlib.sha256(fresh[name]).hexdigest()
                  if name in fresh else "(removed)")
        print(f"  {name}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
