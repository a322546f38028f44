#!/usr/bin/env python
"""Lint the static experiment registry against the experiments package.

The registry (``repro.experiments.registry``) replaced the old
``importlib`` string list; this check keeps it honest. Fails (exit 1)
when:

* an experiment module under ``src/repro/experiments/`` is not claimed
  by any registered :class:`ExperimentSpec` (helpers like ``context``
  and ``registry`` itself are exempt);
* a spec names a module that does not exist in the package;
* a dependency edge points at an unregistered node;
* the dependency graph has a cycle (also enforced at runtime, but the
  lint catches it before anything runs);
* a report node name collides with another node's report file stem;
* a node's module reaches a shared stage through its context (reads
  ``context.training`` or ``context.evaluation``, or builds a trained
  policy with ``context.harmonia_policy`` / ``cg_only_policy`` /
  ``dvfs_only_policy``) without that stage among the node's direct or
  transitive dependencies — the scheduler would then build the stage
  inside the node, outside the DAG that is meant to share it.

Run from the repository root:  python tools/check_experiment_registry.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import AnalysisError  # noqa: E402
from repro.experiments import registry  # noqa: E402
from repro.runtime.pipeline import topological_order  # noqa: E402

EXPERIMENTS_DIR = REPO_ROOT / "src" / "repro" / "experiments"

#: Modules in the package that are infrastructure, not experiments.
HELPER_MODULES = {"__init__", "context", "registry"}

#: ``context.<attribute>`` reads that need a shared stage, by that stage.
STAGE_READS = {
    "training": "training",
    "harmonia_policy": "training",
    "cg_only_policy": "training",
    "dvfs_only_policy": "training",
    "evaluation": "evaluation",
}


def stages_read(source: str) -> dict:
    """The shared stages a module's source reaches through ``context``,
    each mapped to one ``context.<attribute>`` that reaches it."""
    stages = {}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in STAGE_READS
                and isinstance(node.value, ast.Name)
                and node.value.id == "context"):
            stages.setdefault(STAGE_READS[node.attr], f"context.{node.attr}")
    return stages


def module_sources(modules) -> dict:
    """Module name -> source text, for the named modules that exist in
    the experiments package."""
    paths = {module: EXPERIMENTS_DIR / f"{module}.py" for module in modules}
    return {module: path.read_text() for module, path in paths.items()
            if path.is_file()}


def undeclared_stages(specs, sources) -> list:
    """Errors for nodes whose module reads a stage they do not depend on.

    Args:
        specs: the registered specs.
        sources: module name -> module source text.
    """
    by_name = {spec.name: spec for spec in specs}
    reads = {module: stages_read(text) for module, text in sources.items()}
    errors = []
    for spec in specs:
        # A node provides its own stage and sees its transitive deps'.
        closure, pending = set(), [spec.name]
        while pending:
            name = pending.pop()
            if name not in closure:
                closure.add(name)
                if name in by_name:
                    pending.extend(by_name[name].deps)
        for stage, read in sorted(reads.get(spec.module, {}).items()):
            if stage not in closure:
                errors.append(
                    f"node {spec.name!r} reads {read} (module "
                    f"{spec.module!r}) but does not depend on {stage!r}; "
                    f"add it to the node's deps"
                )
    return errors


def check() -> list:
    errors = []
    specs = registry.all_specs()

    package_modules = {
        path.stem for path in EXPERIMENTS_DIR.glob("*.py")
        if path.stem not in HELPER_MODULES
    }
    # "context" hosts the internal training node; it is a helper module
    # but a legitimate spec target.
    claimed = {spec.module for spec in specs}

    for module in sorted(package_modules - claimed):
        errors.append(
            f"experiments module {module!r} has no registered "
            "ExperimentSpec; register it (or add it to HELPER_MODULES "
            "if it is infrastructure)"
        )
    for module in sorted(claimed - package_modules - HELPER_MODULES):
        errors.append(
            f"registered module {module!r} does not exist under "
            "src/repro/experiments/"
        )

    names = {spec.name for spec in specs}
    for spec in specs:
        for dep in spec.deps:
            if dep not in names:
                errors.append(
                    f"node {spec.name!r} depends on unregistered node "
                    f"{dep!r}"
                )

    try:
        topological_order(specs)
    except AnalysisError as error:
        errors.append(f"dependency graph is not schedulable: {error}")

    errors.extend(undeclared_stages(specs, module_sources(claimed)))
    return errors


def main() -> int:
    errors = check()
    if errors:
        for error in errors:
            print(f"check_experiment_registry: {error}", file=sys.stderr)
        return 1
    specs = registry.all_specs()
    reports = sum(1 for spec in specs if spec.is_report)
    print(
        f"check_experiment_registry: OK ({len(specs)} nodes, "
        f"{reports} report nodes, every experiments module registered)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
