#!/usr/bin/env python
"""Check that every function and class in ``src/repro`` is run or kept.

Runs every ``repro`` subcommand (the command lines in :data:`LEGS`) and
every ``examples/*.py`` script, each in a fresh interpreter under a
``sys.setprofile`` hook, and AST-walks ``src/repro`` for every function
and class definition. A definition that no run enters is *uncalled*.
Each uncalled definition must be listed in ``tools/reach_allowlist.txt``
with one tag from :data:`TAGS` saying why it stays. An entry covers
every definition nested in it, so a class entry covers its methods. A
class body runs when its module is imported, so a class counts as
called whenever its module loads; only its methods can show uncalled.

The legs share one temporary ``--cache-dir``: the cold legs run first
and fill it, so the warm legs that follow reach the store-load and
manifest paths that only a fresh process over a filled store runs.

Fails (exit 1) when:

* an uncalled definition is missing from the allowlist;
* an allowlist entry covers no uncalled definition (a run now calls
  it), names no definition, or carries an unknown tag;
* a command or an example exits nonzero;
* a ``build_parser()`` subcommand has no command line here.

:func:`static_errors` is the part that needs no runs (the allowlist
resolves, its tags are known, every subcommand is covered); the test
suite runs it.

Run from the repository root:  python tools/check_reach.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = REPO_ROOT / "examples"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

#: allowlist tag -> why an uncalled definition with that tag stays
TAGS = {
    "oracle": "scalar reference the differential tests compare against",
    "perfbench": "wrapped or read by name in perfbench/layers.py",
    "protocol": "part of an interface: a dunder, a context-manager "
                "method, or an abstract or null-object method",
    "test-accessor": "read-back accessor the tests inspect results with",
    "public": "public API kept on purpose",
}

#: Each leg's ``repro`` argv, in run order. ``{tmp}`` is the run's
#: scratch directory; a leg without ``--no-cache`` gets
#: ``--cache-dir {tmp}/store`` where its subcommand accepts one. The
#: cold legs come first, so the later legs find a filled store.
LEGS: Tuple[Tuple[str, ...], ...] = (
    ("list",),
    ("run", "Graph500", "--trace", "{tmp}/run.json",
     "--metrics-out", "{tmp}/run-metrics.json", "--profile"),
    ("run", "CoMD", "--policy", "baseline", "--no-cache"),
    ("run", "CoMD", "--policy", "oracle", "--no-cache"),
    ("run", "LUD", "--policy", "cg-only", "--no-cache"),
    ("run", "Streamcluster", "--policy", "dvfs-only", "--no-cache"),
    ("sweep", "Sort.BottomScan", "LUD.Internal", "--no-cache"),
    ("figure", "fig18", "--no-cache"),
    ("evaluate", "--seeds", "2", "--no-cache"),
    ("montecarlo", "--seeds", "2", "--noise", "0.1", "--no-cache"),
    ("reproduce", "--output", "{tmp}/cold",
     "--trace", "{tmp}/reproduce.json",
     "--metrics-out", "{tmp}/reproduce-metrics.json",
     "--profile-json", "{tmp}/profile.json"),
    ("reproduce", "--output", "{tmp}/ablations", "--ablations"),
    # Warm: the store and the result manifest are filled.
    ("reproduce", "--output", "{tmp}/warm"),
    ("reproduce", "--output", "{tmp}/recompute", "--no-incremental"),
    ("figure", "table1"),
    ("evaluate",),
    ("evaluate", "--seeds", "2"),
    ("montecarlo", "Graph500", "CoMD", "--seeds", "2",
     "--policy", "cg-only", "--trace", "{tmp}/montecarlo.json",
     "--metrics-out", "{tmp}/montecarlo-metrics.json"),
    ("run", "Graph500", "--policy", "baseline"),
    ("sweep", "Sort.BottomScan"),
    ("telemetry-report", "{tmp}/run.json",
     "--metrics", "{tmp}/run-metrics.json"),
    ("telemetry-report", "{tmp}/reproduce.json",
     "--metrics", "{tmp}/reproduce-metrics.json"),
    ("telemetry-report", "--metrics", "{tmp}/run-metrics.json"),
)

#: Subcommands that take ``--cache-dir``/``--no-cache``.
_STORE_COMMANDS = {"run", "sweep", "figure", "evaluate", "montecarlo",
                   "reproduce"}

#: Runs in the child: hooks every Python call, runs one ``repro``
#: command or one example script, and writes the (file, first line,
#: name) of each code object it entered under ``src/repro`` to a JSON
#: file. argv: out-file, package dir, "repro"|"example", then the
#: command's argv or the script path.
_CHILD = r"""
import json, os, runpy, sys, threading
out, package, kind = sys.argv[1:4]
argv = sys.argv[4:]
codes = set()
def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
status = 0
sys.setprofile(hook)
threading.setprofile(hook)
try:
    if kind == "repro":
        sys.argv = ["repro"] + argv
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(argv[0])
        runpy.run_path(argv[0], run_name="__main__")
except SystemExit as stop:
    status = stop.code
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    with open(out, "w") as handle:
        json.dump(sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                          for c in codes
                          if c.co_filename.startswith(package)}), handle)
sys.exit(status)
"""


@dataclass(frozen=True)
class Definition:
    """One ``def`` or ``class`` under ``src/repro``."""

    #: ``module:Qual.name``, e.g. ``repro.telemetry.metrics:Counter.inc``
    name: str
    #: absolute path of the defining file
    path: str
    #: first line of its code object (the first decorator, if any)
    line: int
    #: the name its code object carries
    code_name: str
    #: last line of the definition
    end: int

    def covered_by(self, entry: str) -> bool:
        """Whether an allowlist entry names this or an enclosing def."""
        return self.name == entry or self.name.startswith(entry + ".")


def definitions() -> List[Definition]:
    """Every function and class definition under ``src/repro``."""
    found: List[Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        module = ".".join(relative.parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(_walk(tree, module, "", str(path)))
    return found


def _walk(node: ast.AST, module: str, prefix: str,
          path: str) -> Iterator[Definition]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualname = prefix + child.name
            line = min([child.lineno]
                       + [d.lineno for d in child.decorator_list])
            yield Definition(f"{module}:{qualname}", path, line, child.name,
                             child.end_lineno)
            yield from _walk(child, module, qualname + ".", path)
        else:
            yield from _walk(child, module, prefix, path)


def load_allowlist(path: Path = ALLOWLIST) -> Tuple[Dict[str, str],
                                                    List[str]]:
    """(entry -> tag, format errors) of the allowlist file.

    One entry a line: ``module:Qual.name  tag``; ``#`` starts a comment.
    """
    entries: Dict[str, str] = {}
    errors: List[str] = []
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        where = f"{path.name}:{number}"
        if len(fields) != 2 or ":" not in fields[0]:
            errors.append(f"{where}: expected 'module:name  tag', got "
                          f"{raw.strip()!r}")
            continue
        name, tag = fields
        if tag not in TAGS:
            errors.append(f"{where}: unknown tag {tag!r} for {name} "
                          f"(known: {', '.join(sorted(TAGS))})")
        if name in entries:
            errors.append(f"{where}: {name} is listed twice")
        entries[name] = tag
    return entries, errors


def subcommands() -> List[str]:
    """The subcommand names ``repro.cli.build_parser()`` defines."""
    import argparse
    sys.path.insert(0, str(SRC))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.remove(str(SRC))
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return list(action.choices)
    return []


def static_errors(allowlist: Path = ALLOWLIST,
                  legs: Sequence[Tuple[str, ...]] = LEGS) -> List[str]:
    """Every error that shows without running a command."""
    entries, errors = load_allowlist(allowlist)
    defs = definitions()
    for entry in entries:
        if not any(d.covered_by(entry) for d in defs):
            errors.append(f"allowlist entry {entry} names no definition "
                          f"under src/repro")
    covered = {leg[0] for leg in legs}
    for command in subcommands():
        if command not in covered:
            errors.append(f"subcommand {command!r} has no command line in "
                          f"tools/check_reach.py LEGS")
    return errors


def _command_lines(tmp: Path) -> List[Tuple[str, List[str]]]:
    """(kind, argv) of every leg and example, in run order."""
    store = str(tmp / "store")
    lines: List[Tuple[str, List[str]]] = []
    for leg in LEGS:
        argv = [arg.replace("{tmp}", str(tmp)) for arg in leg]
        if argv[0] in _STORE_COMMANDS and "--no-cache" not in argv:
            argv += ["--cache-dir", store]
        lines.append(("repro", argv))
    for script in sorted(EXAMPLES.glob("*.py")):
        lines.append(("example", [str(script)]))
    return lines


def reached(tmp: Path) -> Tuple[Set[Tuple[str, int, str]], List[str]]:
    """(code keys any run entered, errors) over every command line."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(tmp / "store"))
    keys: Set[Tuple[str, int, str]] = set()
    errors: List[str] = []
    lines = _command_lines(tmp)
    for index, (kind, argv) in enumerate(lines, 1):
        out = tmp / f"reach-{index}.json"
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD, str(out), str(PACKAGE), kind,
             *argv],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
        label = ("repro " if kind == "repro" else "") + " ".join(
            arg.replace(str(tmp), "$TMP").replace(str(REPO_ROOT) + "/", "")
            for arg in argv)
        print(f"[{index:2d}/{len(lines)}] "
              f"{time.perf_counter() - started:5.1f}s  {label}", flush=True)
        if completed.returncode != 0:
            tail = completed.stderr.strip().splitlines()[-5:]
            errors.append(f"{label} exited {completed.returncode}: "
                          + " | ".join(tail))
        if out.exists():
            keys.update(tuple(key) for key in json.loads(out.read_text()))
    return keys, errors


def reach_errors(defs: Sequence[Definition], keys: Set[Tuple[str, int, str]],
                 entries: Dict[str, str]) -> Tuple[List[Definition],
                                                   List[str]]:
    """(uncalled definitions, errors) of one reach pass; an entry that
    names no definition is left to :func:`static_errors`."""
    uncalled = [d for d in defs if (d.path, d.line, d.code_name) not in keys]
    errors = [f"{d.name} is never called; call it, delete it or add it to "
              f"{ALLOWLIST.name} with a tag"
              for d in uncalled
              if not any(d.covered_by(entry) for entry in entries)]
    for entry in entries:
        if (any(d.covered_by(entry) for d in defs)
                and not any(d.covered_by(entry) for d in uncalled)):
            errors.append(f"allowlist entry {entry} is called now; remove "
                          f"it from {ALLOWLIST.name}")
    return uncalled, errors


def _span_lines(defs: Sequence[Definition]) -> int:
    """Source lines of ``defs``, each nested definition counted once."""
    lines: Set[Tuple[str, int]] = set()
    for d in defs:
        lines.update((d.path, line) for line in range(d.line, d.end + 1))
    return len(lines)


def main() -> int:
    errors = static_errors()
    entries, _ = load_allowlist()
    defs = definitions()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as name:
        keys, run_errors = reached(Path(name))
    errors.extend(run_errors)
    uncalled, found = reach_errors(defs, keys, entries)
    errors.extend(found)
    for error in errors:
        print(f"check_reach: {error}", file=sys.stderr)
    print(f"check_reach: {len(defs) - len(uncalled)} of {len(defs)} "
          f"definitions called; {len(uncalled)} uncalled span "
          f"{_span_lines(uncalled)} lines ({len(entries)} allowlist "
          f"entries)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
