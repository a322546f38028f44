"""Experiment DAG scheduler with content-addressed result manifests.

``reproduce`` is a DAG, not a list: the ~26 paper tables/figures are
independent leaves except where they share expensive stages (Figures
10-13 are four views of one evaluation matrix; the evaluation and every
ablation hang off one predictor-training run). The scheduler here

* **topologically sorts** the registered
  :class:`~repro.experiments.registry.ExperimentSpec` nodes and runs
  every ready node concurrently on a shared
  :class:`~repro.runtime.parallel.WorkerBudget` — experiment-level
  fan-out composes with each node's internal ``--jobs`` fan-out through
  the one global budget, so total live workers never exceed ``jobs``;
* serves unchanged nodes from a **result manifest** layered on the
  persistent content-addressed sweep store: a node's report text is
  keyed by the SHA-256 of (result schema version, environment
  fingerprint — calibration, kernel specs, grid axes, application
  roster — the spec's declared inputs and version, and the digests of
  its dependencies), so a warm rerun with unchanged inputs skips every
  node and any input change invalidates exactly the affected subgraph,
  by value, with no invalidation protocol;
* records **per-node wall/CPU timings** and telemetry spans and derives
  the pipeline's **critical path** for the final summary.

Report bytes are identical in every mode — serial, ``--jobs N``,
manifest-served — because nodes are pure functions of the context and
the manifest stores the exact formatted text.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple)

import numpy as np

from repro.analysis.report import format_table
from repro.errors import AnalysisError
from repro.platform.store import RESULT_KIND, SweepStore, content_digest
from repro.runtime.parallel import WorkerBudget, budget_scope
from repro.telemetry.spans import capture_span_context, use_span_context

#: Bump whenever node payloads/formatting change globally; every manifest
#: entry then reads as a miss and is transparently recomputed. Per-node
#: changes should bump the spec's ``version`` instead.
RESULT_SCHEMA_VERSION = 1

#: Node outcome states reported by :class:`NodeTiming`.
STATUS_RAN = "ran"
STATUS_MANIFEST = "manifest"
STATUS_PRUNED = "pruned"


def topological_order(specs: Sequence[Any]) -> List[str]:
    """Dependency-respecting node order (stable: registration order
    among simultaneously ready nodes).

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
                # Keep registration order among ready nodes.
                ready.append(dependent)
        ready.sort(key=lambda n: list(by_name).index(n))
    if len(order) != len(specs):
        cycle = sorted(name for name, degree in indegree.items() if degree > 0)
        raise AnalysisError(
            f"dependency cycle among pipeline nodes: {', '.join(cycle)}"
        )
    return order


def node_keys(specs: Sequence[Any], fingerprint: str) -> Dict[str, Tuple]:
    """Content-addressable manifest key per node, dependency-chained.

    A node's key folds in the digests of its dependencies' keys, so
    invalidating any upstream node (new inputs, bumped version, changed
    fingerprint) transitively invalidates everything built on it.
    """
    by_name = {spec.name: spec for spec in specs}
    keys: Dict[str, Tuple] = {}
    for name in topological_order(specs):
        spec = by_name[name]
        dep_digests = tuple(
            content_digest(keys[dep]) for dep in spec.deps
        )
        keys[name] = (
            RESULT_SCHEMA_VERSION, fingerprint, spec.name, spec.version,
            tuple(spec.inputs), dep_digests,
        )
    return keys


class ResultManifest:
    """Formatted-report records in the content-addressed sweep store.

    Each entry is one tiny ``result-<sha256>.npz`` record holding a
    node's exact report text, addressed by the chained node key from
    :func:`node_keys`. The manifest inherits every store property:
    atomic publication, self-validation (corrupt records demote to
    misses), cross-process sharing, and invalidation by value.
    """

    def __init__(self, store: SweepStore, telemetry=None):
        from repro.telemetry.handle import coalesce
        self._store = store
        self._telemetry = coalesce(telemetry)

    @property
    def store(self) -> SweepStore:
        """The backing content-addressed store."""
        return self._store

    def load(self, key: Tuple) -> Optional[str]:
        """The stored report text for ``key``, or None on any miss."""
        text = self._store.load_record(
            RESULT_KIND, key,
            decode=lambda arrays, _meta: str(arrays["report"][()]),
        )
        self._telemetry.metrics.counter(
            "pipeline_manifest_total", "result manifest lookups",
        ).inc(status="miss" if text is None else "hit")
        return text

    def save(self, key: Tuple, name: str, text: str) -> bool:
        """Persist one node's report text; False when the write failed."""
        return self._store.save_record(
            RESULT_KIND, key, {"report": np.array(text)}, meta={"node": name},
        )


@dataclass(frozen=True)
class NodeTiming:
    """One node's outcome in a pipeline run."""

    name: str
    status: str  # STATUS_RAN | STATUS_MANIFEST | STATUS_PRUNED
    wall_s: float
    cpu_s: float  # main-thread CPU; inner fan-out threads not included
    digest: str


@dataclass(frozen=True)
class PipelineResult:
    """Everything one pipeline run produced."""

    reports: Mapping[str, str]  # report node name -> exact report text
    timings: Tuple[NodeTiming, ...]  # registration order
    critical_path: Tuple[str, ...]
    critical_path_s: float
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
            "schema": RESULT_SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "critical_path": list(self.critical_path),
            "critical_path_s": self.critical_path_s,
            "nodes": [
                {
                    "node": t.name,
                    "status": t.status,
                    "wall_s": t.wall_s,
                    "cpu_s": t.cpu_s,
                    "critical": t.name in self.critical_path,
                    "digest": t.digest,
                }
                for t in self.timings
            ],
        }


class ExperimentPipeline:
    """Schedules one set of experiment nodes over a worker budget.

    Args:
        specs: the nodes to schedule (e.g. from
            :func:`repro.experiments.registry.reproduce_specs`); validated
            eagerly — duplicate names, unknown deps and cycles raise here.
        context: the shared :class:`ExperimentContext` handed to every
            runner.
        jobs: total worker budget across both parallelism levels
            (0 = one per core).
        manifest: optional :class:`ResultManifest`; when given, report
            nodes whose keys are already stored are served without
            running, and fresh results are written back.
        fingerprint: environment fingerprint folded into every node key
            (see :func:`repro.experiments.registry.reproduce_fingerprint`).
        telemetry: optional telemetry handle; nodes run under
            ``pipeline.<node>`` profile spans and the manifest feeds the
            ``pipeline_manifest_total`` counter.
    """

    def __init__(self, specs: Sequence[Any], context, *, jobs: int = 1,
                 manifest: Optional[ResultManifest] = None,
                 fingerprint: str = "", telemetry=None):
        from repro.telemetry.handle import coalesce
        self._specs = list(specs)
        self._order = topological_order(self._specs)
        self._by_name = {spec.name: spec for spec in self._specs}
        self._context = context
        self._budget = WorkerBudget(jobs)
        self._manifest = manifest
        self._keys = node_keys(self._specs, fingerprint)
        self._telemetry = coalesce(telemetry)
        self._results: Dict[str, Any] = {}

    @property
    def jobs(self) -> int:
        """The resolved total worker budget."""
        return self._budget.jobs

    def digest(self, name: str) -> str:
        """The manifest digest addressing one node's result."""
        return content_digest(self._keys[name])

    # --- execution -------------------------------------------------------------

    def run(self, emit: Optional[Callable[[str, str, str], None]] = None
            ) -> PipelineResult:
        """Execute the DAG; returns reports, timings and the critical path.

        Args:
            emit: optional ``emit(name, text, status)`` callback invoked
                from the scheduling thread once per report node — in
                registration order for manifest-served nodes, then in
                completion order for executed ones.

        Raises:
            The first failing node's exception, with a note naming the
            node; remaining running nodes are drained first and no new
            nodes start after a failure.
        """
        started = time.perf_counter()
        reports: Dict[str, str] = {}
        wall: Dict[str, float] = {name: 0.0 for name in self._order}
        cpu: Dict[str, float] = dict(wall)
        status: Dict[str, str] = {}

        served = self._probe_manifest(status, wall, cpu, reports)
        for name in (s.name for s in self._specs if s.name in served):
            if emit is not None:
                emit(name, reports[name], STATUS_MANIFEST)

        needed = self._needed_nodes(served)
        for name in self._order:
            if name not in needed and name not in served:
                status[name] = STATUS_PRUNED

        self._execute(needed, served, status, wall, cpu, reports, emit)

        timings = tuple(
            NodeTiming(name=spec.name, status=status[spec.name],
                       wall_s=wall[spec.name], cpu_s=cpu[spec.name],
                       digest=self.digest(spec.name))
            for spec in self._specs
        )
        path, path_s = _critical_path(self._specs, wall)
        return PipelineResult(
            reports=reports,
            timings=timings,
            critical_path=path,
            critical_path_s=path_s,
            wall_s=time.perf_counter() - started,
        )

    def _probe_manifest(self, status, wall, cpu, reports) -> set:
        """Serve every already-stored report node; returns their names."""
        served = set()
        if self._manifest is None:
            return served
        for spec in self._specs:
            if not spec.is_report:
                continue
            t0 = time.perf_counter()
            c0 = time.thread_time()
            text = self._manifest.load(self._keys[spec.name])
            if text is None:
                continue
            served.add(spec.name)
            status[spec.name] = STATUS_MANIFEST
            wall[spec.name] = time.perf_counter() - t0
            cpu[spec.name] = time.thread_time() - c0
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

    def _run_node(self, spec, span_context=None
                  ) -> Tuple[Any, Optional[str], float, float]:
        self._budget.acquire()
        try:
            t0 = time.perf_counter()
            c0 = time.thread_time()
            # Pool threads don't inherit contextvars: re-install the
            # scheduler's span context so node spans nest under the
            # run's root span, then open the node span — store loads
            # and batch sweeps below attach as its children.
            with use_span_context(span_context), \
                    self._telemetry.span(f"pipeline.{spec.name}",
                                         node=spec.name):
                deps = {dep: self._results[dep] for dep in spec.deps}
                payload = spec.runner(self._context, deps)
                text = (spec.formatter(payload)
                        if spec.formatter is not None else None)
            return (payload, text,
                    time.perf_counter() - t0, time.thread_time() - c0)
        finally:
            self._budget.release()

    def _execute(self, needed, served, status, wall, cpu, reports,
                 emit) -> None:
        """Run the needed subgraph on the worker budget."""
        if not needed:
            return
        indegree = {
            name: len(set(self._by_name[name].deps)) for name in needed
        }
        dependents: Dict[str, List[str]] = {name: [] for name in needed}
        for name in needed:
            for dep in set(self._by_name[name].deps):
                dependents[dep].append(name)

        ready = [name for name in self._order
                 if name in needed and indegree[name] == 0]
        futures: Dict[Future, str] = {}
        failure: Optional[Tuple[str, BaseException]] = None
        span_context = capture_span_context()

        with budget_scope(self._budget), \
                ThreadPoolExecutor(max_workers=self._budget.jobs) as pool:
            while ready or futures:
                while ready and failure is None:
                    name = ready.pop(0)
                    future = pool.submit(self._run_node, self._by_name[name],
                                         span_context)
                    futures[future] = name
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    name = futures.pop(future)
                    error = future.exception()
                    if error is not None:
                        if failure is None:
                            failure = (name, error)
                        continue
                    payload, text, node_wall, node_cpu = future.result()
                    self._results[name] = payload
                    # A manifest-served report node can still execute when
                    # an invalidated dependent needs its in-memory payload
                    # (the manifest stores report text, not payloads); its
                    # status stays "manifest" — the report was served —
                    # but the re-run's true cost replaces the probe time.
                    if name not in served:
                        status[name] = STATUS_RAN
                    wall[name] = node_wall
                    cpu[name] = node_cpu
                    spec = self._by_name[name]
                    if spec.is_report and name not in served:
                        reports[name] = text
                        if self._manifest is not None:
                            self._manifest.save(self._keys[name], name, text)
                        if emit is not None:
                            emit(name, text, STATUS_RAN)
                    for dependent in dependents[name]:
                        indegree[dependent] -= 1
                        if indegree[dependent] == 0:
                            ready.append(dependent)

        if failure is not None:
            name, error = failure
            if hasattr(error, "add_note"):  # Python >= 3.11
                error.add_note(f"pipeline node {name!r} failed")
            raise error


def _critical_path(specs: Sequence[Any],
                   wall: Mapping[str, float]) -> Tuple[Tuple[str, ...], float]:
    """The heaviest dependency chain under the recorded wall times."""
    by_name = {spec.name: spec for spec in specs}
    cost: Dict[str, float] = {}
    heaviest_dep: Dict[str, Optional[str]] = {}
    for name in topological_order(specs):
        deps = by_name[name].deps
        best, best_cost = None, 0.0
        for dep in deps:
            if cost[dep] > best_cost:
                best, best_cost = dep, cost[dep]
        cost[name] = wall.get(name, 0.0) + best_cost
        heaviest_dep[name] = best
    if not cost:
        return (), 0.0
    tail = max(cost, key=lambda n: cost[n])
    path: List[str] = []
    cursor: Optional[str] = tail
    while cursor is not None:
        path.append(cursor)
        cursor = heaviest_dep[cursor]
    return tuple(reversed(path)), cost[tail]


def format_profile(result: PipelineResult) -> str:
    """The critical-path profile table for the ``reproduce`` summary."""
    on_path = set(result.critical_path)
    ordered = sorted(result.timings, key=lambda t: t.wall_s, reverse=True)
    rows = [
        (
            timing.name,
            timing.status,
            f"{timing.wall_s * 1e3:8.1f}",
            f"{timing.cpu_s * 1e3:8.1f}",
            "*" if timing.name in on_path else "",
        )
        for timing in ordered
    ]
    table = format_table(
        headers=("node", "status", "wall ms", "cpu ms", "critical"),
        rows=rows,
        title=(f"pipeline profile: {result.wall_s:.2f}s wall, "
               f"critical path {result.critical_path_s:.2f}s "
               f"over {len(result.critical_path)} node(s)"),
    )
    chain = " -> ".join(result.critical_path) if result.critical_path else "-"
    return f"{table}\ncritical path: {chain}"
