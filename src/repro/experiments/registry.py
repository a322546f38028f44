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
  the shared ``training`` node.

A node's result-manifest key is its name. The store folds the digest of
the package source into every record address, so editing a runner, a
formatter or anything they call makes the next run compute the node
again.

The registry is data, not behavior: scheduling lives in
:mod:`repro.runtime.pipeline`, and ``tools/check_experiment_registry.py``
lints that every experiment module is registered here exactly once.

Each report node also declares its CLI **aliases**, the short names the
paper uses (``fig10``, ``fig15``, ``table3``, ``ext-thermal``, ...).
``python -m repro figure`` accepts a node name or an alias and runs the
same pipeline as ``reproduce`` over that one node; :func:`register`
rejects an alias that repeats another alias or a node name.

Registering a spec does **not** import its experiment module. Runners
and formatters resolve their module on first call (:func:`_mod`), so
importing the registry costs the specs alone — a run that serves every
report from the result manifest never loads the experiment code at
all. The old dynamic-import problem was *stringly structure* (deps and
ordering hidden in a module list), not the deferred imports; the specs
keep the structure static while the code loads lazily. No experiment
module is imported with the registry: the six ablation nodes register
on first use (:func:`_register_ablations`), from the study list in
:mod:`~repro.experiments.ablations`.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext

#: Node groups: ``core`` report nodes always run under ``reproduce``,
#: ``ablations`` only with ``--ablations``, ``internal`` nodes carry a
#: shared in-memory result and write no report file.
GROUPS = ("core", "ablations", "internal")


class _SpecFields(NamedTuple):
    """The fields of :class:`ExperimentSpec`, in declaration order."""

    name: str
    module: str
    runner: Callable[[ExperimentContext, Mapping[str, Any]], Any]
    formatter: Optional[Callable[[Any], str]] = None
    deps: Tuple[str, ...] = ()
    group: str = "core"
    aliases: Tuple[str, ...] = ()


class ExperimentSpec(_SpecFields):
    """One experiment pipeline node.

    An immutable named tuple rather than a frozen dataclass: every report
    command builds the registry at start-up, and a dataclass compiles its
    generated methods when its class is created. Construction validates
    the group and the formatter, and so do :meth:`_make` and therefore
    ``_replace``.

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
        group: ``core`` | ``ablations`` | ``internal``.
        aliases: the node's other names on the command line
            (``figure fig10``); unique across every name and alias.

    Raises:
        AnalysisError: on an unknown group, or when a formatter is given
            to an internal node or missing from a report node.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ExperimentSpec":
        spec = super().__new__(cls, *args, **kwargs)
        if spec.group not in GROUPS:
            raise AnalysisError(
                f"experiment {spec.name!r}: unknown group {spec.group!r}"
            )
        if (spec.formatter is None) != (spec.group == "internal"):
            raise AnalysisError(
                f"experiment {spec.name!r}: internal nodes and only internal "
                f"nodes run without a formatter"
            )
        return spec

    @classmethod
    def _make(cls, iterable) -> "ExperimentSpec":
        # The inherited ``_make`` (which ``_replace`` calls) builds the
        # tuple directly and would skip the checks in ``__new__``.
        return cls(*iterable)

    @property
    def is_report(self) -> bool:
        """Whether this node emits a report file."""
        return self.formatter is not None


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add one spec; node names and aliases must all be distinct.

    Raises:
        AnalysisError: on a duplicate node name, or on an alias that
            repeats another alias or a node name.
    """
    if spec.name in _REGISTRY:
        raise AnalysisError(
            f"experiment {spec.name!r} registered twice "
            f"({_REGISTRY[spec.name].module} and {spec.module})"
        )
    names = (spec.name,) + spec.aliases
    taken = {name for other in _REGISTRY.values()
             for name in (other.name,) + other.aliases}
    clashes = sorted({name for name in names
                      if name in taken or names.count(name) > 1})
    if clashes:
        raise AnalysisError(
            f"experiment {spec.name!r}: name or alias "
            f"{', '.join(map(repr, clashes))} is already taken"
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


def _simple(name: str, module: str, aliases: Tuple[str, ...] = (),
            deps: Tuple[str, ...] = ()) -> ExperimentSpec:
    """A spec around a module's plain ``run`` / ``format_report`` pair."""
    return ExperimentSpec(
        name=name,
        module=module,
        runner=lambda context, _deps: _mod(module).run(context),
        formatter=lambda result: _mod(module).format_report(result),
        deps=deps,
        aliases=aliases,
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
    group="internal",
))
register(ExperimentSpec(
    name="evaluation",
    module="fig10_13_evaluation",
    runner=lambda context, _deps: _mod("fig10_13_evaluation").run(context),
    deps=("training",),
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
    aliases=("fig04",),
))
register(ExperimentSpec(
    name="fig05_memory_power",
    module="fig04_fig05_power_ranges",
    runner=lambda context, _deps: _mod(
        "fig04_fig05_power_ranges").run_fig05(context),
    formatter=lambda result: _mod(
        "fig04_fig05_power_ranges").format_report(result, "10%"),
    aliases=("fig05",),
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
        aliases=(_figure,),
    ))
register(_simple("fig01_power_breakdown", "fig01_power_breakdown", ("fig01",)))
register(_simple("table1_dvfs", "table1_dvfs", ("table1",)))
register(_simple("fig03_balance_points", "fig03_balance", ("fig03",)))
register(_simple("fig06_metric_tradeoffs", "fig06_metric_tradeoffs",
                 ("fig06",)))
register(_simple("fig07_occupancy", "fig07_occupancy", ("fig07",)))
register(_simple("fig08_divergence", "fig08_divergence", ("fig08",)))
register(_simple("fig09_clock_domains", "fig09_clock_domains", ("fig09",)))
register(_simple("table2_table3_models", "table2_table3_models", ("table3",),
                 deps=("training",)))
register(_simple("fig14_16_graph500", "fig14_16_graph500",
                 ("fig14", "fig15", "fig16"), deps=("evaluation",)))
register(_simple("fig17_power_sharing", "fig17_power_sharing", ("fig17",),
                 deps=("evaluation",)))
register(_simple("fig18_cg_vs_fg", "fig18_cg_vs_fg", ("fig18",),
                 deps=("evaluation",)))
register(_simple("sec72_variants", "sec72_variants", ("sec72",),
                 deps=("evaluation",)))
register(_simple("ext_memory_voltage", "ext_memory_voltage",
                 ("ext-voltage",), deps=("evaluation",)))
register(_simple("ext_thermal_capping", "ext_thermal_capping",
                 ("ext-thermal",), deps=("training",)))
register(_simple("ext_model_validation", "ext_model_validation",
                 ("ext-validation",)))
register(_simple("ext_phase_memory", "ext_phase_memory", ("ext-recall",),
                 deps=("training",)))
register(_simple("ext_power_capping", "ext_power_capping", ("ext-capping",),
                 deps=("evaluation",)))
register(_simple("ext_portability", "ext_portability", ("ext-portability",),
                 deps=("evaluation",)))
register(_simple("oracle_gap", "oracle_gap", ("oracle-gap",),
                 deps=("evaluation",)))
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
            group="ablations",
        ))
