"""Reports are byte-identical in every reproduce execution mode.

The tentpole invariant of the pipeline scheduler: serial, parallel
(``--jobs N``) and warm-incremental (manifest-served) runs must emit
exactly the same report bytes — parallelism and caching are pure
accelerators, never observable in the output.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry.spans import load_chrome_trace


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

    def test_serial_parallel_and_warm_are_identical(self, tmp_path, capsys):
        trace = tmp_path / "serial-trace.json"
        serial = run_reproduce(tmp_path, "serial",
                               ["--jobs", "1", "--trace", str(trace)])
        parallel = run_reproduce(
            tmp_path, "parallel", ["--jobs", "4", "--no-incremental"])
        profile = tmp_path / "profile.json"
        warm = run_reproduce(
            tmp_path, "warm",
            ["--jobs", "0", "--profile-json", str(profile)])
        capsys.readouterr()

        baseline = report_bytes(serial)
        assert report_bytes(parallel) == baseline
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

    def test_no_incremental_recomputes_despite_manifest(self, tmp_path,
                                                        capsys):
        run_reproduce(tmp_path, "first", ["--jobs", "1"])
        profile = tmp_path / "p2.json"
        run_reproduce(
            tmp_path, "second",
            ["--jobs", "1", "--no-incremental",
             "--profile-json", str(profile)])
        capsys.readouterr()
        nodes = json.loads(profile.read_text())["nodes"]
        assert all(node["status"] == "ran" for node in nodes)
