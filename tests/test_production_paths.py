"""Production code never reaches the scalar oracles.

``ApplicationRunner`` (the launch-at-a-time controller loop),
``EventDrivenModel`` (the heap-at-a-time event simulator) and
``HardwarePlatform.run_kernel`` (the from-scratch launch model) stay in
the tree as differential oracles that the equivalence suites compare the
production engines with. No module under ``src/repro`` other than the
defining one may name them. Docstrings and the package's string export
table are not ``Name``, ``Attribute`` or import nodes, so they do not
count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: oracle name -> its defining module, relative to ``src/repro``
ORACLES = {
    "ApplicationRunner": "runtime/simulator.py",
    "EventDrivenModel": "perf/eventsim.py",
    "run_kernel": "platform/hd7970.py",
}


def _oracle_references(tree: ast.AST):
    """(name, line) of every oracle a module names in code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in ORACLES:
            yield name, getattr(node, "lineno", 0)


def test_only_the_defining_modules_name_the_oracles():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _oracle_references(tree):
            if ORACLES[name] != module:
                offenders.append(f"{module}:{line} {name}")
    assert offenders == []


def test_the_guard_sees_each_kind_of_reference():
    code = ("from repro.runtime.simulator import ApplicationRunner\n"
            "import repro.perf.eventsim as sim\n"
            "model = sim.EventDrivenModel\n"
            "platform.run_kernel(spec, config)\n"
            '"""ApplicationRunner in a string does not count."""\n')
    assert sorted(_oracle_references(ast.parse(code))) == [
        ("ApplicationRunner", 1), ("EventDrivenModel", 3), ("run_kernel", 4),
    ]
