"""Static registry of every paper experiment as a DAG node.

``reproduce`` used to drive its ~26 experiments through a dynamic
``importlib.import_module`` string list, which hid the one piece of
structure the pipeline scheduler needs: *which experiments share which
expensive stages*. This module replaces the string list with a static
registry of :class:`ExperimentSpec` nodes, each declaring

* its **runner** and **formatter** (the existing per-module ``run`` /
  ``format_report`` functions, adapted to a uniform signature),
* its **dependencies** — Figures 10-13 are four views of one shared
  ``evaluation`` node; the evaluation and the ablations both hang off
  the shared ``training`` node,
* its **declared inputs and version**, folded into the node's
  content-addressed manifest key (bump ``version`` after changing a
  formatter or runner so stale manifest entries stop being served).

The registry is data, not behavior: scheduling lives in
:mod:`repro.runtime.pipeline`, and ``tools/check_experiment_registry.py``
lints that every experiment module is registered here exactly once.

Registering a spec does **not** import its experiment module. Runners
and formatters resolve their module on first call (:func:`_mod`), so
importing the registry costs the specs alone — a run that serves every
report from the result manifest never loads the experiment code at
all. The old dynamic-import problem was *stringly structure* (deps and
ordering hidden in a module list), not the deferred imports; the specs
keep the structure static while the code loads lazily. No experiment
module is imported with the registry: the evaluation node's policy
list is :data:`~repro.experiments.context.EVALUATION_POLICIES`, and the
six ablation nodes register on first use (:func:`_register_ablations`),
from the study list in :mod:`~repro.experiments.ablations`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import AnalysisError
from repro.experiments.context import EVALUATION_POLICIES, ExperimentContext
from repro.platform.store import content_digest

#: Node groups: ``core`` report nodes always run under ``reproduce``,
#: ``ablations`` only with ``--ablations``, ``internal`` nodes carry a
#: shared in-memory result and write no report file.
GROUPS = ("core", "ablations", "internal")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment pipeline node.

    Attributes:
        name: unique node name; for report nodes this is also the report
            file stem (``<name>.txt``).
        module: the defining module under ``repro.experiments`` (the
            registry lint checks coverage against the package contents).
        runner: ``runner(context, dep_results) -> payload``; dependency
            payloads arrive keyed by node name.
        formatter: renders the payload to the report text; ``None`` marks
            an internal node (shared stage, no report file).
        deps: names of nodes whose payloads this node consumes (or whose
            side effects — e.g. the trained predictors cached on the
            context — it relies on).
        inputs: declared calibration/kernel/flag inputs, folded verbatim
            into the node's manifest key; values must be canonically
            encodable (str/int/float/bool/tuples/frozen dataclasses).
        version: per-node schema version; bump to invalidate persisted
            manifest entries after changing the node's code.
        group: ``core`` | ``ablations`` | ``internal``.
    """

    name: str
    module: str
    runner: Callable[[ExperimentContext, Mapping[str, Any]], Any]
    formatter: Optional[Callable[[Any], str]] = None
    deps: Tuple[str, ...] = ()
    inputs: Tuple[Any, ...] = ()
    version: int = 1
    group: str = "core"

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise AnalysisError(
                f"experiment {self.name!r}: unknown group {self.group!r}"
            )
        if (self.formatter is None) != (self.group == "internal"):
            raise AnalysisError(
                f"experiment {self.name!r}: internal nodes and only internal "
                f"nodes run without a formatter"
            )

    @property
    def is_report(self) -> bool:
        """Whether this node emits a report file."""
        return self.formatter is not None


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add one spec; report/node names must be unique.

    Raises:
        AnalysisError: on a duplicate node name.
    """
    if spec.name in _REGISTRY:
        raise AnalysisError(
            f"experiment {spec.name!r} registered twice "
            f"({_REGISTRY[spec.name].module} and {spec.module})"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up one registered spec by node name."""
    _register_ablations()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AnalysisError(f"no experiment named {name!r}") from None


def all_specs() -> Tuple[ExperimentSpec, ...]:
    """Every registered spec, in registration order."""
    _register_ablations()
    return tuple(_REGISTRY.values())


def reproduce_specs(include_ablations: bool = False) -> Tuple[ExperimentSpec, ...]:
    """The node set one ``reproduce`` invocation schedules.

    Internal nodes are always included (the scheduler prunes the ones no
    runnable report needs); ablation nodes only with
    ``include_ablations``.
    """
    groups = {"core", "internal"}
    if include_ablations:
        _register_ablations()
        groups.add("ablations")
    return tuple(s for s in _REGISTRY.values() if s.group in groups)


def reproduce_fingerprint(context: ExperimentContext) -> str:
    """Digest of everything outside the specs that shapes report bytes.

    Covers the platform calibration, every kernel spec and the sweep
    grid axes (all via :func:`~repro.platform.sweepcache.sweep_key`, the
    same by-value key the persistent store addresses surfaces with) plus
    the application roster. Any calibration constant, kernel
    characteristic, grid axis or roster change lands a different
    fingerprint, so every manifest entry keyed under the old one is
    simply never addressed again — invalidation by value, exactly like
    the sweep store itself. It reads the context's calibration, not its
    platform, so computing it builds no model.
    """
    from repro.platform.sweepcache import sweep_key
    from repro.workloads.registry import all_kernels

    calibration = context.calibration
    surfaces = tuple(
        sweep_key(calibration, kernel.base) for kernel in all_kernels()
    )
    roster = tuple(
        (app.name, app.suite, app.iterations, app.kernel_names())
        for app in context.applications
    )
    return content_digest((surfaces, roster))


# --- adapters ---------------------------------------------------------------------


_MODULE_CACHE: Dict[str, Any] = {}


def _mod(name: str):
    """The experiment module behind a spec, imported on first use.

    Specs bind their defining modules by name instead of importing them
    at registry-import time: each loads when its runner or formatter
    first fires (or, for ``ablations``, when its nodes register) — so a
    run that serves every report from the result manifest never imports
    the experiment code at all.
    """
    module = _MODULE_CACHE.get(name)
    if module is None:
        module = importlib.import_module(f"repro.experiments.{name}")
        _MODULE_CACHE[name] = module
    return module


def _simple(name: str, module: str, deps: Tuple[str, ...] = (),
            inputs: Tuple[Any, ...] = (), version: int = 1) -> ExperimentSpec:
    """A spec around a module's plain ``run`` / ``format_report`` pair."""
    return ExperimentSpec(
        name=name,
        module=module,
        runner=lambda context, _deps: _mod(module).run(context),
        formatter=lambda result: _mod(module).format_report(result),
        deps=deps,
        inputs=inputs,
        version=version,
    )


# --- the static registry ----------------------------------------------------------

# Shared internal stages. Their payloads are also cached on the
# ExperimentContext, so dependents may either read the dep payload or
# the context property — both see the same object, built exactly once.
register(ExperimentSpec(
    name="training",
    module="context",
    runner=lambda context, _deps: context.training,
    deps=(),
    inputs=("section4-predictor-training",),
    group="internal",
))
register(ExperimentSpec(
    name="evaluation",
    module="fig10_13_evaluation",
    runner=lambda context, _deps: _mod("fig10_13_evaluation").run(context),
    deps=("training",),
    inputs=("figs10-13-policy-matrix",) + EVALUATION_POLICIES,
    group="internal",
))

# The report nodes, in the emission order of the historical serial loop.
register(ExperimentSpec(
    name="fig04_compute_power",
    module="fig04_fig05_power_ranges",
    runner=lambda context, _deps: _mod(
        "fig04_fig05_power_ranges").run_fig04(context),
    formatter=lambda result: _mod(
        "fig04_fig05_power_ranges").format_report(result, "70%"),
    inputs=("compute-power-range", "70%"),
))
register(ExperimentSpec(
    name="fig05_memory_power",
    module="fig04_fig05_power_ranges",
    runner=lambda context, _deps: _mod(
        "fig04_fig05_power_ranges").run_fig05(context),
    formatter=lambda result: _mod(
        "fig04_fig05_power_ranges").format_report(result, "10%"),
    inputs=("memory-power-range", "10%"),
))
for _fig in ("fig10_ed2", "fig11_energy", "fig12_power",
             "fig13_performance"):
    _figure = _fig.split("_", 1)[0]
    register(ExperimentSpec(
        name=_fig,
        module="fig10_13_evaluation",
        runner=lambda context, deps: deps["evaluation"],
        formatter=lambda result, _f=f"format_{_figure}": getattr(
            _mod("fig10_13_evaluation"), _f)(result),
        deps=("evaluation",),
        inputs=(_figure,),
    ))
register(_simple("fig01_power_breakdown", "fig01_power_breakdown",
                 inputs=("XSBench.CalculateXS", "baseline-config")))
register(_simple("table1_dvfs", "table1_dvfs"))
register(_simple("fig03_balance_points", "fig03_balance"))
register(_simple("fig06_metric_tradeoffs", "fig06_metric_tradeoffs"))
register(_simple("fig07_occupancy", "fig07_occupancy"))
register(_simple("fig08_divergence", "fig08_divergence"))
register(_simple("fig09_clock_domains", "fig09_clock_domains"))
register(_simple("table2_table3_models", "table2_table3_models",
                 deps=("training",)))
register(_simple("fig14_16_graph500", "fig14_16_graph500",
                 deps=("evaluation",)))
register(_simple("fig17_power_sharing", "fig17_power_sharing",
                 deps=("evaluation",)))
register(_simple("fig18_cg_vs_fg", "fig18_cg_vs_fg", deps=("evaluation",)))
register(_simple("sec72_variants", "sec72_variants", deps=("evaluation",)))
register(_simple("ext_memory_voltage", "ext_memory_voltage",
                 deps=("evaluation",)))
register(_simple("ext_thermal_capping", "ext_thermal_capping",
                 deps=("training",)))
# version 2: event-driven surfaces come from the batched lockstep engine
# (bitwise-identical to v1's scalar fan-out, but the producer changed).
register(_simple("ext_model_validation", "ext_model_validation", version=2))
register(_simple("ext_phase_memory", "ext_phase_memory",
                 deps=("training",)))
register(_simple("ext_power_capping", "ext_power_capping",
                 deps=("evaluation",)))
register(_simple("ext_portability", "ext_portability",
                 deps=("evaluation",)))
register(_simple("oracle_gap", "oracle_gap", deps=("evaluation",)))
register(_simple("characterization", "characterization"))


@lru_cache(maxsize=None)
def _register_ablations() -> None:
    """Register one ``--ablations`` report node per study, once.

    Called by the lookups that can return ablation nodes rather than at
    import, so that only runs asking for them import the study list.
    """
    ablations = _mod("ablations")
    for study_name, study in ablations.ALL_STUDIES:
        register(ExperimentSpec(
            name=f"ablation_{study_name}",
            module="ablations",
            runner=lambda context, _deps, _s=study: _s(context),
            formatter=ablations.format_report,
            deps=("training",),
            inputs=(study_name,),
            group="ablations",
        ))
