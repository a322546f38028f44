"""The static experiment registry: coverage, grouping, and the lint."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_experiment_registry as lint  # noqa: E402

#: The 26 report files one plain ``reproduce`` run has always emitted,
#: in historical emission order.
CORE_REPORTS = (
    "fig04_compute_power",
    "fig05_memory_power",
    "fig10_ed2",
    "fig11_energy",
    "fig12_power",
    "fig13_performance",
    "fig01_power_breakdown",
    "table1_dvfs",
    "fig03_balance_points",
    "fig06_metric_tradeoffs",
    "fig07_occupancy",
    "fig08_divergence",
    "fig09_clock_domains",
    "table2_table3_models",
    "fig14_16_graph500",
    "fig17_power_sharing",
    "fig18_cg_vs_fg",
    "sec72_variants",
    "ext_memory_voltage",
    "ext_thermal_capping",
    "ext_model_validation",
    "ext_phase_memory",
    "ext_power_capping",
    "ext_portability",
    "oracle_gap",
    "characterization",
)


class TestRegistryContents:
    def test_core_report_set_is_stable(self):
        specs = registry.reproduce_specs()
        reports = tuple(s.name for s in specs if s.is_report)
        assert reports == CORE_REPORTS

    def test_internal_nodes_are_training_and_evaluation(self):
        specs = registry.reproduce_specs()
        internal = {s.name for s in specs if not s.is_report}
        assert internal == {"training", "evaluation"}

    def test_ablations_add_six_report_nodes(self):
        base = registry.reproduce_specs()
        full = registry.reproduce_specs(include_ablations=True)
        extra = {s.name for s in full} - {s.name for s in base}
        assert len(extra) == 6
        assert all(name.startswith("ablation_") for name in extra)
        assert all(registry.get_spec(name).is_report for name in extra)

    def test_figures_10_13_share_the_evaluation_node(self):
        for name in ("fig10_ed2", "fig11_energy", "fig12_power",
                     "fig13_performance"):
            assert registry.get_spec(name).deps == ("evaluation",)
        assert registry.get_spec("evaluation").deps == ("training",)

    def test_duplicate_registration_raises(self):
        existing = registry.all_specs()[0]
        with pytest.raises(AnalysisError, match="registered twice"):
            registry.register(existing)

    def test_aliases_are_the_cli_figure_names(self):
        aliases = {alias: spec.name for spec in registry.reproduce_specs()
                   for alias in spec.aliases}
        assert aliases == {
            "fig01": "fig01_power_breakdown",
            "table1": "table1_dvfs",
            "fig03": "fig03_balance_points",
            "fig04": "fig04_compute_power",
            "fig05": "fig05_memory_power",
            "fig06": "fig06_metric_tradeoffs",
            "fig07": "fig07_occupancy",
            "fig08": "fig08_divergence",
            "fig09": "fig09_clock_domains",
            "fig10": "fig10_ed2",
            "fig11": "fig11_energy",
            "fig12": "fig12_power",
            "fig13": "fig13_performance",
            "table3": "table2_table3_models",
            "fig14": "fig14_16_graph500",
            "fig15": "fig14_16_graph500",
            "fig16": "fig14_16_graph500",
            "fig17": "fig17_power_sharing",
            "fig18": "fig18_cg_vs_fg",
            "sec72": "sec72_variants",
            "ext-voltage": "ext_memory_voltage",
            "ext-portability": "ext_portability",
            "ext-capping": "ext_power_capping",
            "ext-validation": "ext_model_validation",
            "ext-recall": "ext_phase_memory",
            "oracle-gap": "oracle_gap",
            "ext-thermal": "ext_thermal_capping",
        }

    @pytest.mark.parametrize("name, aliases", [
        ("toy", ("fig15",)),          # another node's alias
        ("toy", ("oracle_gap",)),     # a node name
        ("fig15", ()),                # a node named like an alias
        ("toy", ("toy-a", "toy-a")),  # repeated within the spec
        ("toy", ("toy",)),            # the node's own name
    ])
    def test_alias_clash_raises(self, name, aliases):
        spec = ExperimentSpec(name=name, module="toy", aliases=aliases,
                              runner=lambda c, d: None, formatter=str)
        with pytest.raises(AnalysisError, match="already taken"):
            registry.register(spec)
        assert name not in {s.name for s in registry.all_specs()}

    def test_get_spec_unknown_name(self):
        with pytest.raises(AnalysisError, match="no experiment"):
            registry.get_spec("fig99_imaginary")

    def test_internal_spec_requires_no_formatter(self):
        with pytest.raises(AnalysisError, match="formatter"):
            ExperimentSpec(name="x", module="toy",
                           runner=lambda c, d: None, formatter=None,
                           group="core")
        with pytest.raises(AnalysisError, match="formatter"):
            ExperimentSpec(name="x", module="toy",
                           runner=lambda c, d: None, formatter=str,
                           group="internal")


class TestSpecContract:
    """``ExperimentSpec`` is an immutable named tuple whose checks run on
    every construction path."""

    @staticmethod
    def runner(context, deps):
        return None

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = ExperimentSpec(
            name="toy", module="toy", runner=self.runner, formatter=str,
            deps=("training",), group="core", aliases=("toy-a",))
        by_position = ExperimentSpec("toy", "toy", self.runner, str,
                                     ("training",), "core", ("toy-a",))
        assert by_keyword == by_position
        assert by_keyword._fields == ("name", "module", "runner",
                                      "formatter", "deps", "group",
                                      "aliases")
        assert (by_keyword.name, by_keyword.deps, by_keyword.aliases) == (
            "toy", ("training",), ("toy-a",))
        assert by_keyword.is_report
        defaults = ExperimentSpec("toy", "toy", self.runner, str)
        assert (defaults.deps, defaults.group, defaults.aliases) == (
            (), "core", ())

    def test_assignment_raises(self):
        spec = registry.get_spec("fig10_ed2")
        with pytest.raises(AttributeError):
            spec.name = "other"
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec.name == "fig10_ed2"

    def test_unknown_group_raises(self):
        with pytest.raises(AnalysisError, match="unknown group"):
            ExperimentSpec(name="x", module="toy", runner=self.runner,
                           formatter=str, group="extras")

    @pytest.mark.parametrize("changes, match", [
        ({"group": "extras"}, "unknown group"),
        ({"formatter": None}, "formatter"),
        ({"group": "internal"}, "formatter"),
    ])
    def test_copies_validate(self, changes, match):
        spec = ExperimentSpec(name="toy", module="toy", runner=self.runner,
                              formatter=str)
        with pytest.raises(AnalysisError, match=match):
            spec._replace(**changes)
        with pytest.raises(AnalysisError, match=match):
            ExperimentSpec._make({**spec._asdict(), **changes}.values())

    def test_copy_keeps_the_type(self):
        spec = registry.get_spec("fig10_ed2")
        copy = spec._replace(aliases=())
        assert type(copy) is ExperimentSpec
        assert copy.is_report and copy.aliases == ()
        assert copy._replace(aliases=spec.aliases) == spec


class TestRegistryLint:
    def run_lint(self):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" /
                                 "check_experiment_registry.py")],
            capture_output=True, text=True,
        )

    def test_lint_passes_on_the_repo(self):
        proc = self.run_lint()
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_lint_reports_unregistered_module(self, tmp_path, monkeypatch):
        # Point the lint at a package copy with one extra orphan module.
        import shutil
        root = tmp_path / "repo"
        (root / "tools").mkdir(parents=True)
        shutil.copytree(REPO_ROOT / "src", root / "src")
        shutil.copy(REPO_ROOT / "tools" / "check_experiment_registry.py",
                    root / "tools")
        orphan = root / "src" / "repro" / "experiments" / "fig99_orphan.py"
        orphan.write_text("def run(context):\n    return None\n")
        proc = subprocess.run(
            [sys.executable, str(root / "tools" /
                                 "check_experiment_registry.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "fig99_orphan" in proc.stderr

    def test_every_shared_stage_read_is_a_declared_dep(self):
        specs = registry.all_specs()
        sources = lint.module_sources({spec.module for spec in specs})
        assert "fig14_16_graph500" in sources
        assert lint.undeclared_stages(specs, sources) == []

    def test_undeclared_stage_read_is_flagged(self):
        sources = {"toy": "def run(context):\n"
                          "    return context.harmonia_policy()\n"}
        toy = ExperimentSpec(name="toy", module="toy",
                             runner=lambda c, d: None, formatter=str)
        [error] = lint.undeclared_stages([toy], sources)
        assert "'toy'" in error and "context.harmonia_policy" in error
        assert "'training'" in error
        # Depending on the evaluation reaches training transitively.
        chained = [toy._replace(deps=("evaluation",)),
                   registry.get_spec("evaluation"),
                   registry.get_spec("training")]
        assert lint.undeclared_stages(chained, sources) == []
