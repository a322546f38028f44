"""Reports are byte-identical in every reproduce execution mode.

The invariant of the pipeline scheduler: cold and warm-incremental
(manifest-served) runs must emit exactly the same report bytes —
caching is a pure accelerator, never observable in the output.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry.spans import aggregate_spans, load_chrome_trace


def run_reproduce(tmp_path, leg, extra):
    out = tmp_path / f"reports-{leg}"
    argv = ["reproduce", "--output", str(out),
            "--cache-dir", str(tmp_path / "store")] + extra
    assert main(argv) == 0
    return out


def report_bytes(directory):
    files = sorted(directory.glob("*.txt"))
    assert files, f"no reports in {directory}"
    return {path.name: path.read_bytes() for path in files}


def controller_sessions_by_node(trace):
    """Pipeline node span name -> lane counts of the controller sessions
    a Chrome span trace records under that node."""
    records = load_chrome_trace(trace)
    by_id = {record.span_id: record for record in records}
    sessions = {}
    for record in records:
        if record.name != "controller.session":
            continue
        node = by_id[record.parent_id]
        while not node.name.startswith("pipeline."):
            node = by_id[node.parent_id]
        sessions.setdefault(node.name, []).append(
            int(record.label_dict()["lanes"]))
    return sessions


class TestReproduceByteIdentity:
    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    def test_cold_and_warm_are_identical(self, tmp_path, capsys):
        trace = tmp_path / "cold-trace.json"
        cold = run_reproduce(tmp_path, "cold", ["--trace", str(trace)])
        profile = tmp_path / "profile.json"
        warm = run_reproduce(
            tmp_path, "warm", ["--profile-json", str(profile)])
        capsys.readouterr()

        baseline = report_bytes(cold)
        assert report_bytes(warm) == baseline
        assert len(baseline) == 26

        # The warm leg must have served every report node from the
        # manifest and executed nothing.
        nodes = json.loads(profile.read_text())["nodes"]
        by_status = {}
        for node in nodes:
            by_status.setdefault(node["status"], []).append(node["node"])
        assert len(by_status.get("manifest", [])) == 26
        assert "ran" not in by_status
        assert set(by_status.get("pruned", [])) == {"training", "evaluation"}

        # Each controller session runs once per cold run: the nodes that
        # read the evaluation's runs start none of their own.
        sessions = controller_sessions_by_node(trace)
        lanes = [n for node in sessions.values() for n in node]
        assert (len(lanes), sum(lanes)) == (71, 157)
        assert "pipeline.fig14_16_graph500" not in sessions
        assert "pipeline.fig18_cg_vs_fg" not in sessions
        assert sessions["pipeline.ext_power_capping"] == [1] * 6
        assert sessions["pipeline.ext_memory_voltage"] == [2] * 14

        # The training node's time is its platform-build and training
        # spans, not unexplained self time.
        records = load_chrome_trace(trace)
        spans = aggregate_spans(records)
        training = spans["pipeline.training"]
        assert training.self_s < 0.1 * training.total_s
        assert spans["context.platform"].count == 1
        assert spans["context.training"].count == 1
        assert len({(r.pid, r.tid) for r in records}) == 1  # one thread

    def test_no_incremental_recomputes_despite_manifest(self, tmp_path,
                                                        capsys):
        run_reproduce(tmp_path, "first", [])
        profile = tmp_path / "p2.json"
        run_reproduce(
            tmp_path, "second",
            ["--no-incremental", "--profile-json", str(profile)])
        capsys.readouterr()
        nodes = json.loads(profile.read_text())["nodes"]
        assert all(node["status"] == "ran" for node in nodes)
