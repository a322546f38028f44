"""Tests for :mod:`repro.experiments.context`."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.context import ExperimentContext


class TestContext:
    def test_applications_cached(self, context):
        assert context.applications is context.applications

    def test_application_lookup(self, context):
        assert context.application("BPT").name == "BPT"

    def test_unknown_application(self, context):
        with pytest.raises(KeyError):
            context.application("nope")

    def test_training_cached(self, context):
        assert context.training is context.training

    def test_evaluation_cached(self, context):
        assert context.evaluation is context.evaluation

    def test_policy_factories_fresh(self, context):
        assert context.harmonia_policy() is not context.harmonia_policy()
        assert context.baseline_policy() is not context.baseline_policy()

    def test_policy_names(self, context):
        assert context.harmonia_policy().name == "harmonia"
        assert context.cg_only_policy().name == "cg-only"
        assert context.dvfs_only_policy().name == "dvfs-only"
        assert context.oracle_policy().name == "oracle"
        assert context.baseline_policy().name == "baseline"

    def test_evaluation_covers_all_policies(self, evaluation):
        policies = {c.policy for c in evaluation.comparisons}
        assert policies == {"cg-only", "harmonia", "oracle", "dvfs-only"}


class TestLazyPlatform:
    def test_platform_built_once_on_first_read(self):
        ctx = ExperimentContext()
        with ThreadPoolExecutor(4) as pool:
            platforms = list(pool.map(lambda _: ctx.platform, range(8)))
        assert all(platform is platforms[0] for platform in platforms)

    def test_platform_read_does_not_wait_for_training(self):
        """Training and the evaluation matrix hold the build lock for their
        whole run; a pipeline node that needs only the test bed must get
        it meanwhile."""
        ctx = ExperimentContext()
        with ThreadPoolExecutor(1) as pool, ctx._build_lock:
            platform = pool.submit(lambda: ctx.platform).result(timeout=20)
        assert platform is ctx.platform

    def test_built_training_read_does_not_wait_for_the_lock(self, context):
        """Once trained, the report is read without the build lock, which
        the evaluation build holds for its whole run."""
        training = context.training
        with ThreadPoolExecutor(1) as pool, context._build_lock:
            read = pool.submit(lambda: context.training).result(timeout=20)
        assert read is training


class TestBuildSpans:
    def test_platform_and_training_builds_are_spans(self):
        """A traced build shows the platform build (model-stack import
        included) nested in the training span."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        ctx = ExperimentContext()
        with telemetry.span("root"):
            training = ctx.training
            assert ctx.training is training  # built once: one span each
        by_name = {r.name: r for r in telemetry.spans.records()}
        assert by_name["context.training"].parent_id == by_name[
            "root"].span_id
        assert by_name["context.platform"].parent_id == by_name[
            "context.training"].span_id
        assert [r.name for r in telemetry.spans.records()].count(
            "context.training") == 1
