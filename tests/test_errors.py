"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.ConfigurationError,
        errors.KernelSpecError,
        errors.CalibrationError,
        errors.PolicyError,
        errors.WorkloadError,
        errors.AnalysisError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_single_catch_clause_covers_library(self):
        try:
            raise errors.KernelSpecError("bad kernel")
        except errors.ReproError as caught:
            assert "bad kernel" in str(caught)

    def test_distinct_types_distinguishable(self):
        with pytest.raises(errors.ConfigurationError):
            try:
                raise errors.ConfigurationError("x")
            except errors.AnalysisError:  # pragma: no cover
                pytest.fail("wrong branch")

    def test_library_raises_repro_errors_for_bad_config(self, platform):
        from repro.gpu.config import HardwareConfig
        from repro.workloads.registry import get_kernel
        with pytest.raises(errors.ReproError):
            platform.run_kernel(
                get_kernel("MaxFlops.MaxFlops").base,
                HardwareConfig(7, 1e9, 1375e6),
            )


class TestMapItems:
    def test_preserves_item_order(self):
        items = list(range(40))
        assert errors.map_items(lambda x: x * x, items) == [
            x * x for x in items]

    def test_propagates_the_original_exception(self):
        raised = ValueError("boom")

        def explode(x):
            if x == 2:
                raise raised
            return x

        with pytest.raises(ValueError, match="boom") as excinfo:
            errors.map_items(explode, range(4))
        assert excinfo.value is raised
        assert type(excinfo.value) is ValueError

    def test_names_the_failing_item_and_stops(self):
        class Item:
            def __init__(self, name):
                self.name = name

        seen = []

        def explode(item):
            seen.append(item.name)
            if item.name == "BPT":
                raise ValueError("boom")
            return item.name

        items = [Item("CoMD"), Item("BPT"), Item("Sort")]
        with pytest.raises(ValueError, match="boom") as excinfo:
            errors.map_items(explode, items)
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "item 2/3 (BPT) failed" in notes
        assert seen == ["CoMD", "BPT"]

    def test_unnamed_items_are_labelled_by_repr(self):
        with pytest.raises(KeyError) as excinfo:
            errors.map_items(lambda x: {}[x], ["ghost"])
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "item 1/1 ('ghost') failed" in notes

    def test_evaluation_names_the_failing_application(self, context):
        from repro.analysis.evaluation import EvaluationHarness
        from repro.core.baseline import BaselinePolicy

        class Broken(BaselinePolicy):
            def config_for(self, launch):
                if launch.kernel_name.startswith("BPT."):
                    raise RuntimeError("no config")
                return super().config_for(launch)

        platform = context.platform
        harness = EvaluationHarness(platform, context.baseline_policy())
        apps = [context.application("MaxFlops"), context.application("BPT")]
        with pytest.raises(RuntimeError) as excinfo:
            harness.evaluate(apps, [Broken(platform.config_space)])
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "item 2/2 (BPT) failed" in notes
