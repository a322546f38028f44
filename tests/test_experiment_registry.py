"""The static experiment registry: coverage, grouping, and the lint."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.experiments import registry
from repro.experiments.context import ExperimentContext, default_context
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


class TestFingerprint:
    def test_deterministic_across_contexts(self):
        a = registry.reproduce_fingerprint(default_context())
        b = registry.reproduce_fingerprint(default_context())
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_follows_the_context_platform_calibration(self):
        from repro.platform.hd7970 import (
            make_hd7970_platform, make_pitcairn_platform)
        unbuilt = registry.reproduce_fingerprint(ExperimentContext())
        given = ExperimentContext(platform=make_hd7970_platform())
        assert registry.reproduce_fingerprint(given) == unbuilt
        other = ExperimentContext(platform=make_pitcairn_platform())
        assert registry.reproduce_fingerprint(other) != unbuilt


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
        chained = [dataclasses.replace(toy, deps=("evaluation",)),
                   registry.get_spec("evaluation"),
                   registry.get_spec("training")]
        assert lint.undeclared_stages(chained, sources) == []
