"""The experiment DAG scheduler and its content-addressed manifest."""

from __future__ import annotations

import threading

import pytest

from repro.errors import AnalysisError
from repro.experiments.registry import ExperimentSpec
from repro.platform.store import RESULT_KIND, SweepStore
from repro.runtime.pipeline import (
    PROFILE_SCHEMA,
    STATUS_MANIFEST,
    STATUS_PRUNED,
    STATUS_RAN,
    ExperimentPipeline,
    NodeTiming,
    PipelineResult,
    ResultManifest,
    format_profile,
    topological_order,
)


def spec(name, deps=(), runner=None, internal=False):
    """A toy pipeline node; report nodes render ``<name>=<payload>``."""
    if runner is None:
        runner = lambda context, deps_, _n=name: _n.upper()
    return ExperimentSpec(
        name=name,
        module="toy",
        runner=runner,
        formatter=None if internal else (lambda p, _n=name: f"{_n}={p}"),
        deps=tuple(deps),
        group="internal" if internal else "core",
    )


class TestTopologicalOrder:
    def test_respects_deps_and_registration_order(self):
        specs = [
            spec("d", deps=("b",)),
            spec("a"),
            spec("b", deps=("a",)),
            spec("c", deps=("a",)),
        ]
        order = topological_order(specs)
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c")
        # Among simultaneously ready nodes, registration order holds.
        assert order.index("b") < order.index("c")

    def test_ready_nodes_queue_first_in_first_out(self):
        """A node waiting on a shared stage queues behind every node that
        was ready before it, whatever the registration order."""
        specs = [
            spec("shared", internal=True),
            spec("waits", deps=("shared",)),
            spec("free"),
        ]
        assert topological_order(specs) == ["shared", "free", "waits"]

    def test_duplicate_name_raises(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            topological_order([spec("a"), spec("a")])

    def test_unknown_dep_raises(self):
        with pytest.raises(AnalysisError, match="unknown node 'ghost'"):
            topological_order([spec("a", deps=("ghost",))])

    def test_cycle_raises_and_names_members(self):
        specs = [
            spec("a", deps=("c",)),
            spec("b", deps=("a",)),
            spec("c", deps=("b",)),
            spec("free"),
        ]
        with pytest.raises(AnalysisError, match="cycle") as excinfo:
            topological_order(specs)
        message = str(excinfo.value)
        assert "a" in message and "b" in message and "c" in message
        assert "free" not in message


class TestResultManifest:
    def test_round_trips_exact_text(self, tmp_path):
        manifest = ResultManifest(SweepStore(tmp_path / "s"))
        text = "line one\n  μ-indented line two\n\ttabbed\n"
        assert manifest.load("node") is None
        assert manifest.save("node", text)
        assert manifest.load("node") == text

    def test_distinct_keys_distinct_entries(self, tmp_path):
        manifest = ResultManifest(SweepStore(tmp_path / "s"))
        manifest.save("a", "A")
        manifest.save("b", "B")
        assert manifest.load("a") == "A"
        assert manifest.load("b") == "B"

    @pytest.mark.parametrize("text", [
        "ED² gain — Harmonia vs baseline",
        "trailing spaces   ",
        "trailing newlines\n\n\n",
        "trailing NUL\x00",
        "",
    ], ids=["non-ascii", "spaces", "newlines", "nul", "empty"])
    def test_round_trips_awkward_text(self, tmp_path, text):
        store = SweepStore(tmp_path / "s")
        manifest = ResultManifest(store)
        assert manifest.save("node", text)
        assert manifest.load("node") == text
        # The text lives in the JSON header; the record has no members.
        arrays, meta = store.load_record(RESULT_KIND, "node")
        assert arrays == {}
        assert meta["report"] == text

    def test_old_layout_is_an_invalid_miss_and_gets_rewritten(self,
                                                              tmp_path):
        np = pytest.importorskip("numpy")
        store = SweepStore(tmp_path / "s")
        manifest = ResultManifest(store)
        specs = [spec("only")]
        # A record at the node's address without a header ``report``:
        # the text as an array member.
        assert store.save_record(RESULT_KIND, "only",
                                 {"report": np.array("only=ONLY")})
        assert manifest.load("only") is None
        assert store.stats().invalid_records == 1

        def run():
            return ExperimentPipeline(specs, context=None,
                                      manifest=manifest).run()

        assert run().ran() == ("only",)  # the miss re-runs the node...
        _, meta = store.load_record(RESULT_KIND, "only")
        assert meta["report"] == "only=ONLY"  # ...and rewrites the record
        rerun = run()
        assert rerun.served() == ("only",)
        assert rerun.reports["only"] == "only=ONLY"


def toy_dag(counter):
    """base -> {mid1, mid2} -> leaf, plus a free leaf; counts runs."""
    def counting(name, payload_fn):
        def runner(context, deps, _n=name):
            with counter["lock"]:
                counter[_n] = counter.get(_n, 0) + 1
            return payload_fn(deps)
        return runner

    return [
        spec("base", internal=True,
             runner=counting("base", lambda deps: "B")),
        spec("mid1", deps=("base",),
             runner=counting("mid1", lambda deps: deps["base"] + "1")),
        spec("mid2", deps=("base",),
             runner=counting("mid2", lambda deps: deps["base"] + "2")),
        spec("leaf", deps=("mid1", "mid2"),
             runner=counting(
                 "leaf", lambda deps: deps["mid1"] + deps["mid2"])),
        spec("free", runner=counting("free", lambda deps: "F")),
    ]


EXPECTED_REPORTS = {
    "mid1": "mid1=B1",
    "mid2": "mid2=B2",
    "leaf": "leaf=B1B2",
    "free": "free=F",
}


class TestPipelineRun:
    def run_pipeline(self, specs, manifest=None):
        emitted = []
        pipeline = ExperimentPipeline(specs, context=None, manifest=manifest)
        result = pipeline.run(
            emit=lambda name, text, status: emitted.append((name, status)))
        return result, emitted

    def test_reports_emit_in_topological_order(self):
        counter = {"lock": threading.Lock()}
        specs = toy_dag(counter)
        result, emitted = self.run_pipeline(specs)
        assert dict(result.reports) == EXPECTED_REPORTS
        reports = [name for name in topological_order(specs)
                   if name in EXPECTED_REPORTS]
        assert emitted == [(name, STATUS_RAN) for name in reports]

    def test_shared_dependency_runs_once(self):
        counter = {"lock": threading.Lock()}
        result, _ = self.run_pipeline(toy_dag(counter))
        assert counter["base"] == 1
        assert set(result.ran()) == {"base", "mid1", "mid2", "leaf", "free"}

    def test_manifest_serves_everything_and_prunes_internals(self, tmp_path):
        manifest = ResultManifest(SweepStore(tmp_path / "s"))
        counter = {"lock": threading.Lock()}
        cold, cold_emits = self.run_pipeline(
            toy_dag(counter), manifest=manifest)
        assert all(status == STATUS_RAN for _, status in cold_emits)

        warm, warm_emits = self.run_pipeline(
            toy_dag(counter), manifest=manifest)
        assert dict(warm.reports) == dict(cold.reports)
        assert set(warm.served()) == set(EXPECTED_REPORTS)
        assert warm.ran() == ()
        # The shared internal node never re-ran...
        assert counter["base"] == 1
        # ...because it was pruned, not served (internal nodes have no
        # report text to store).
        statuses = {t.name: t.status for t in warm.timings}
        assert statuses["base"] == STATUS_PRUNED
        # Manifest-served nodes emit in topological order, as a cold run
        # emits its executed ones.
        assert warm_emits == [(name, STATUS_MANIFEST)
                              for name, _ in cold_emits]
        assert [name for name, _ in warm_emits] == [
            name for name in topological_order(toy_dag(counter))
            if name in EXPECTED_REPORTS]
        assert all(s == STATUS_MANIFEST for _, s in warm_emits)

    def test_no_manifest_recomputes(self, tmp_path):
        counter = {"lock": threading.Lock()}
        self.run_pipeline(toy_dag(counter))
        self.run_pipeline(toy_dag(counter))
        assert counter["base"] == 2  # no manifest, no serving

    def test_failure_names_the_node_and_stops_scheduling(self):
        started = []

        def runner(name, error=None):
            def run(context, deps):
                started.append(name)
                if error is not None:
                    raise error
                return name
            return run

        specs = [
            spec("ok", runner=runner("ok")),
            spec("bad", runner=runner("bad", RuntimeError("kaput"))),
            spec("downstream", deps=("bad",), runner=runner("downstream")),
            spec("independent", runner=runner("independent")),
        ]
        with pytest.raises(RuntimeError, match="kaput") as excinfo:
            self.run_pipeline(specs)
        assert any("pipeline node 'bad'" in note
                   for note in getattr(excinfo.value, "__notes__", []))
        assert started == ["ok", "bad"]  # nothing starts after a failure

    def test_every_node_runs_on_the_calling_thread(self):
        threads = []

        def tracked(context, deps):
            threads.append(threading.get_ident())
            return "x"

        specs = [spec(f"n{i}", runner=tracked) for i in range(6)]
        specs.append(spec("tail", deps=("n0", "n5"), runner=tracked))
        self.run_pipeline(specs)
        assert threads == [threading.get_ident()] * 7

    def test_profile_lists_every_node(self):
        counter = {"lock": threading.Lock()}
        specs = toy_dag(counter)
        result, _ = self.run_pipeline(specs)
        rows = format_profile(result).splitlines()[3:]
        assert sorted(row.split()[0] for row in rows) == sorted(
            spec.name for spec in specs)
        assert [node["node"] for node in result.to_dict()["nodes"]] == [
            spec.name for spec in specs]


class TestResultContract:
    """``NodeTiming`` and ``PipelineResult`` are immutable named tuples
    with the fields, accessors and profile layout readers rely on."""

    TIMINGS = (
        NodeTiming(name="base", status=STATUS_PRUNED, wall_s=0.0),
        NodeTiming("leaf", STATUS_MANIFEST, 0.25),
        NodeTiming(name="free", status=STATUS_RAN, wall_s=1.5),
    )

    def result(self):
        return PipelineResult(reports={"leaf": "leaf=1", "free": "free=2"},
                              timings=self.TIMINGS, wall_s=2.0)

    def test_keyword_and_positional_construction_agree(self):
        assert NodeTiming("n", STATUS_RAN, 0.5) == NodeTiming(
            name="n", status=STATUS_RAN, wall_s=0.5)
        assert NodeTiming._fields == ("name", "status", "wall_s")
        reports = {"leaf": "leaf=1"}
        assert PipelineResult(reports, self.TIMINGS, 2.0) == PipelineResult(
            reports=reports, timings=self.TIMINGS, wall_s=2.0)
        assert PipelineResult._fields == ("reports", "timings", "wall_s")

    def test_assignment_raises(self):
        timing, result = self.TIMINGS[1], self.result()
        with pytest.raises(AttributeError):
            timing.wall_s = 0.0
        with pytest.raises(AttributeError):
            result.wall_s = 0.0
        with pytest.raises(AttributeError):
            result.extra = 1
        assert (timing.wall_s, result.wall_s) == (0.25, 2.0)

    def test_ran_and_served(self):
        result = self.result()
        assert result.ran() == ("free",)
        assert result.served() == ("leaf",)

    def test_to_dict_keeps_the_profile_layout(self):
        assert PROFILE_SCHEMA == 3
        assert self.result().to_dict() == {
            "schema": 3,
            "wall_s": 2.0,
            "nodes": [
                {"node": "base", "status": "pruned", "wall_s": 0.0},
                {"node": "leaf", "status": "manifest", "wall_s": 0.25},
                {"node": "free", "status": "ran", "wall_s": 1.5},
            ],
        }


class TestPipelineSpans:
    def run_traced(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        counter = {"lock": threading.Lock()}
        pipeline = ExperimentPipeline(toy_dag(counter), context=None)
        with telemetry.span("root"):
            pipeline.run(emit=lambda name, text, status: None)
        return telemetry

    def test_every_node_spans_under_the_caller(self):
        telemetry = self.run_traced()
        records = telemetry.spans.records()
        root = next(r for r in records if r.name == "root")
        nodes = [r for r in records if r.name.startswith("pipeline.")]
        assert {r.name for r in nodes} == {
            "pipeline.base", "pipeline.mid1", "pipeline.mid2",
            "pipeline.leaf", "pipeline.free",
        }
        assert all(r.parent_id == root.span_id for r in nodes)
        assert all(r.label_dict() == {"node": r.name.split(".", 1)[1]}
                   for r in nodes)

    def test_node_spans_double_as_profiler_sections(self):
        """The span aggregation is the profile: one row per node span."""
        from repro.telemetry.spantrace import aggregate_spans

        telemetry = self.run_traced()
        records = telemetry.spans.records()
        stats = aggregate_spans(records)
        assert stats["pipeline.base"].count == 1
        assert stats["pipeline.leaf"].count == 1
        assert len({r.span_id for r in records}) == len(records)
