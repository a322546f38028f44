"""Experiment DAG scheduler with content-addressed result manifests.

``reproduce`` is a DAG, not a list: the ~26 paper tables/figures are
independent leaves except where they share expensive stages (Figures
10-13 are four views of one evaluation matrix; the evaluation and every
ablation hang off one predictor-training run). The scheduler here

* **topologically sorts** the registered
  :class:`~repro.experiments.registry.ExperimentSpec` nodes and runs
  the needed ones one after another on the calling thread, in that
  order — the hot layers (controller stepping, the event simulator)
  hold the GIL, so worker threads could not overlap them;
* serves stored nodes from a **result manifest** layered on the
  persistent content-addressed sweep store: a node's report text is
  keyed by its name, and the store folds the digest of the package
  source into every address
  (:func:`~repro.platform.store.build_digest`), so a warm rerun of the
  same code skips every node and any code change runs them all again,
  with no invalidation protocol;
* records **per-node wall times** and telemetry spans for the final
  summary; nodes run one after another, so a run's wall time is the sum
  of its nodes' walls.

Report bytes are identical whether a node ran or was manifest-served,
because nodes are pure functions of the context and the manifest stores
the exact formatted text.
"""

from __future__ import annotations

import time
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple)

from repro.analysis.report import format_table
from repro.errors import AnalysisError
from repro.platform.store import RESULT_KIND, SweepStore
from repro.telemetry.spans import ambient_telemetry

#: Layout number of the ``--profile-json`` document
#: (:meth:`PipelineResult.to_dict`); 3 dropped each node's ``digest``.
PROFILE_SCHEMA = 3

#: Node outcome states reported by :class:`NodeTiming`.
STATUS_RAN = "ran"
STATUS_MANIFEST = "manifest"
STATUS_PRUNED = "pruned"


def topological_order(specs: Sequence[Any]) -> List[str]:
    """Dependency-respecting node order, first in first out.

    Kahn's algorithm with a queue: the dependency-free nodes come first,
    in registration order, and every other node joins the queue when its
    last dependency is placed (nodes freed by one placement join in
    registration order). For the experiment registry this runs every
    node that needs no shared stage before the nodes that wait for
    training or the evaluation matrix, which keeps a cold run's peak
    memory down: the largest transient (the event-simulator batch of
    ``ext_model_validation``) is over before the evaluation's runs and
    a second calibration's surfaces become resident.

    Raises:
        AnalysisError: on duplicate names, unknown dependencies, or a
            dependency cycle (the cycle members are named).
    """
    by_name: Dict[str, Any] = {}
    for spec in specs:
        if spec.name in by_name:
            raise AnalysisError(f"duplicate pipeline node {spec.name!r}")
        by_name[spec.name] = spec
    for spec in specs:
        for dep in spec.deps:
            if dep not in by_name:
                raise AnalysisError(
                    f"node {spec.name!r} depends on unknown node {dep!r}"
                )

    indegree = {spec.name: len(set(spec.deps)) for spec in specs}
    dependents: Dict[str, List[str]] = {spec.name: [] for spec in specs}
    for spec in specs:
        for dep in set(spec.deps):
            dependents[dep].append(spec.name)

    ready = [spec.name for spec in specs if indegree[spec.name] == 0]
    order: List[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(specs):
        cycle = sorted(name for name, degree in indegree.items() if degree > 0)
        raise AnalysisError(
            f"dependency cycle among pipeline nodes: {', '.join(cycle)}"
        )
    return order


class ResultManifest:
    """Formatted-report records in the content-addressed sweep store.

    Each entry is one tiny ``result-<sha256>.npz`` record with no array
    members: the node's exact report text is the ``report`` field of the
    record's JSON header, so serving a report needs neither numpy nor
    the ``.npy`` reader. Entries are keyed by node name; the store's
    address folds in the build digest, so an entry is only ever served
    to the code that wrote it. The manifest inherits every store
    property: atomic publication, self-validation (corrupt records
    demote to misses) and cross-process sharing. Under a traced run each
    lookup feeds the ambient span's ``pipeline_manifest_total`` counter.
    """

    def __init__(self, store: SweepStore):
        self._store = store

    def load(self, name: str) -> Optional[str]:
        """The stored report text of node ``name``, or None on any miss."""
        # A record without a header ``report`` raises KeyError: an
        # invalid miss.
        text = self._store.load_record(
            RESULT_KIND, name, decode=lambda _arrays, meta: meta["report"])
        ambient_telemetry().metrics.counter(
            "pipeline_manifest_total", "result manifest lookups",
        ).inc(status="miss" if text is None else "hit")
        return text

    def save(self, name: str, text: str) -> bool:
        """Persist one node's report text; False when the write failed."""
        return self._store.save_record(
            RESULT_KIND, name, {}, meta={"report": text})


class NodeTiming(NamedTuple):
    """One node's outcome in a pipeline run."""

    name: str
    status: str  # STATUS_RAN | STATUS_MANIFEST | STATUS_PRUNED
    wall_s: float


class PipelineResult(NamedTuple):
    """Everything one pipeline run produced."""

    reports: Mapping[str, str]  # report node name -> exact report text
    timings: Tuple[NodeTiming, ...]  # registration order
    wall_s: float

    def served(self) -> Tuple[str, ...]:
        """Report nodes served from the manifest (skipped entirely)."""
        return tuple(t.name for t in self.timings
                     if t.status == STATUS_MANIFEST)

    def ran(self) -> Tuple[str, ...]:
        """Nodes actually executed this run."""
        return tuple(t.name for t in self.timings if t.status == STATUS_RAN)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready profile (the CI artifact payload)."""
        return {
            "schema": PROFILE_SCHEMA,
            "wall_s": self.wall_s,
            "nodes": [
                {
                    "node": t.name,
                    "status": t.status,
                    "wall_s": t.wall_s,
                }
                for t in self.timings
            ],
        }


class ExperimentPipeline:
    """Runs one set of experiment nodes in dependency order.

    Args:
        specs: the nodes to schedule (e.g. from
            :func:`repro.experiments.registry.reproduce_specs`); validated
            eagerly — duplicate names, unknown deps and cycles raise here.
        context: the shared :class:`ExperimentContext` handed to every
            runner.
        manifest: optional :class:`ResultManifest`; when given, report
            nodes already stored are served without running, and fresh
            results are written back.

    Under a traced run each node runs in a ``pipeline.<node>`` span on
    the ambient span's handle.
    """

    def __init__(self, specs: Sequence[Any], context, *,
                 manifest: Optional[ResultManifest] = None):
        self._specs = list(specs)
        self._order = topological_order(self._specs)
        self._by_name = {spec.name: spec for spec in self._specs}
        self._context = context
        self._manifest = manifest
        self._results: Dict[str, Any] = {}

    # --- execution -------------------------------------------------------------

    def run(self, emit: Optional[Callable[[str, str, str], None]] = None
            ) -> PipelineResult:
        """Execute the DAG; returns the reports and per-node timings.

        Args:
            emit: optional ``emit(name, text, status)`` callback invoked
                once per report node — manifest-served nodes first, then
                executed ones, each in topological order.

        Raises:
            The first failing node's exception, with a note naming the
            node; no node starts after a failure.
        """
        started = time.perf_counter()
        reports: Dict[str, str] = {}
        wall: Dict[str, float] = {name: 0.0 for name in self._order}
        status: Dict[str, str] = {}

        served = self._probe_manifest(status, wall, reports)
        if emit is not None:
            for name in self._order:
                if name in served:
                    emit(name, reports[name], STATUS_MANIFEST)

        needed = self._needed_nodes(served)
        for name in self._order:
            if name not in needed and name not in served:
                status[name] = STATUS_PRUNED

        self._execute(needed, served, status, wall, reports, emit)

        timings = tuple(
            NodeTiming(name=spec.name, status=status[spec.name],
                       wall_s=wall[spec.name])
            for spec in self._specs
        )
        return PipelineResult(
            reports=reports,
            timings=timings,
            wall_s=time.perf_counter() - started,
        )

    def _probe_manifest(self, status, wall, reports) -> set:
        """Serve every already-stored report node; returns their names."""
        served = set()
        if self._manifest is None:
            return served
        for spec in self._specs:
            if not spec.is_report:
                continue
            t0 = time.perf_counter()
            text = self._manifest.load(spec.name)
            if text is None:
                continue
            served.add(spec.name)
            status[spec.name] = STATUS_MANIFEST
            wall[spec.name] = time.perf_counter() - t0
            reports[spec.name] = text
        return served

    def _needed_nodes(self, served: set) -> set:
        """Unserved report nodes plus their transitive dependencies."""
        needed = set()
        stack = [spec.name for spec in self._specs
                 if spec.is_report and spec.name not in served]
        while stack:
            name = stack.pop()
            if name in needed:
                continue
            needed.add(name)
            stack.extend(self._by_name[name].deps)
        return needed

    def _run_node(self, spec) -> Tuple[Any, Optional[str], float]:
        t0 = time.perf_counter()
        # Store loads and batch sweeps below attach to the node span.
        with ambient_telemetry().span(f"pipeline.{spec.name}",
                                      node=spec.name):
            deps = {dep: self._results[dep] for dep in spec.deps}
            payload = spec.runner(self._context, deps)
            text = (spec.formatter(payload)
                    if spec.formatter is not None else None)
        return payload, text, time.perf_counter() - t0

    def _execute(self, needed, served, status, wall, reports, emit) -> None:
        """Run the needed subgraph in topological order."""
        for name in self._order:
            if name not in needed:
                continue
            spec = self._by_name[name]
            try:
                payload, text, wall[name] = self._run_node(spec)
            except Exception as error:
                if hasattr(error, "add_note"):  # Python >= 3.11
                    error.add_note(f"pipeline node {name!r} failed")
                raise
            self._results[name] = payload
            # A manifest-served report node can still execute when an
            # invalidated dependent needs its in-memory payload (the
            # manifest stores report text, not payloads); its status
            # stays "manifest" — the report was served — but the re-run's
            # true cost replaces the probe time.
            if name in served:
                continue
            status[name] = STATUS_RAN
            if spec.is_report:
                reports[name] = text
                if self._manifest is not None:
                    self._manifest.save(name, text)
                if emit is not None:
                    emit(name, text, STATUS_RAN)


def format_profile(result: PipelineResult) -> str:
    """The per-node profile table for the ``reproduce`` summary."""
    ordered = sorted(result.timings, key=lambda t: t.wall_s, reverse=True)
    return format_table(
        headers=("node", "status", "wall ms"),
        rows=[(t.name, t.status, f"{t.wall_s * 1e3:8.1f}") for t in ordered],
        title=(f"pipeline profile: {result.wall_s:.2f}s wall over "
               f"{len(ordered)} node(s)"),
    )
