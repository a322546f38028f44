"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_to_harmonia(self):
        args = build_parser().parse_args(["run", "CoMD"])
        assert args.policy == "harmonia"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CoMD", "--policy", "magic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "14 applications" in out
        assert "Graph500" in out

    def test_run(self, capsys):
        assert main(["run", "XSBench", "--policy", "cg-only"]) == 0
        out = capsys.readouterr().out
        assert "XSBench" in out
        assert "ED2" in out
        assert "residency" in out

    def test_run_unknown_app(self, capsys):
        assert main(["run", "NoSuchApp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "SRAD.Prepare"]) == 0
        out = capsys.readouterr().out
        assert "min ED2" in out

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "No.Such"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "DPM2" in capsys.readouterr().out

    def test_figure_fig07(self, capsys):
        assert main(["figure", "fig07"]) == 0
        assert "occupancy" in capsys.readouterr().out

    def test_figure_fig05(self, capsys):
        assert main(["figure", "fig05"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestReproduce:
    def test_reproduce_writes_reports(self, tmp_path, capsys):
        assert main(["reproduce", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "reports written" in out
        assert "sweep cache:" in out  # the cache-effectiveness summary
        written = list(tmp_path.glob("*.txt"))
        assert len(written) >= 20
        # The headline figure must be among them, with its geomeans.
        fig10 = (tmp_path / "fig10_ed2.txt").read_text()
        assert "geomean" in fig10


class TestSweepStoreFlags:
    """--cache-dir / --no-cache and the telemetry-report --metrics line."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    def test_cache_dir_persists_grid_records(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        shared_cache().clear()  # cold memory tier, like a fresh process
        store_dir = tmp_path / "store"
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        records = list(store_dir.glob("grid-*.npz"))
        assert len(records) == 1

    def test_no_cache_disables_the_store(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        assert main(["sweep", "SRAD.Prepare", "--no-cache"]) == 0
        assert shared_cache().store is None

    def test_unusable_cache_dir_degrades_with_warning(self, tmp_path,
                                                      capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(blocker)]) == 0
        captured = capsys.readouterr()
        assert "sweep store disabled" in captured.err
        assert "min ED2" in captured.out

    def test_second_invocation_warm_starts(self, tmp_path, capsys):
        from repro.platform.sweepcache import shared_cache
        store_dir = tmp_path / "store"
        shared_cache().clear()  # cold start: compute + write through
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        # Simulate a fresh process: empty the in-memory tier.
        shared_cache().clear()
        before = shared_cache().stats().store
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        after = shared_cache().stats().store
        assert after.hits == before.hits + 1

    def test_telemetry_report_metrics_line(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "sweep cache:" in out
        assert "served without recompute" in out

    def test_telemetry_report_metrics_unreadable(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(tmp_path / "absent.json")]) == 2
        assert "unreadable metrics file" in capsys.readouterr().err


def _ledger_module():
    import sys
    from pathlib import Path

    repo_root = Path(__file__).resolve().parent.parent
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from benchmarks import ledger
    return ledger


class TestObservabilityCli:
    """Traced reproduce, span/metrics reports, and bench-report."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.sweepcache import shared_cache
        yield
        shared_cache().detach_store()

    def test_traced_reproduce_nests_everything(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["reproduce", "--output", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "span trace:" in out and "metrics written to" in out

        from repro.telemetry.spans import load_chrome_trace, span_tree
        records = load_chrome_trace(trace)
        (root,) = span_tree(records)  # a single tree covers the whole run
        assert root.record.name == "reproduce"
        names = {r.name for r in records}
        assert any(name.startswith("pipeline.") for name in names)

        # Spans double as the span report; metrics as Prometheus text.
        capsys.readouterr()
        assert main(["telemetry-report", "--spans", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "critical path" in report.lower()
        assert "reproduce" in report
        assert main(["telemetry-report", "--metrics", str(metrics),
                     "--prometheus"]) == 0
        exposition = capsys.readouterr().out
        assert "# TYPE" in exposition
        assert "sweep_cache_hits_total" in exposition
        # The cold run simulated all 25 x 27 event-driven lanes.
        assert main(["telemetry-report", "--metrics", str(metrics)]) == 0
        assert ("eventsim: 675 lanes via the batched lockstep engine"
                in capsys.readouterr().out)

    def test_eventsim_line_needs_the_lane_series(self):
        from repro.telemetry.report import eventsim_engine_from_metrics
        assert eventsim_engine_from_metrics({}) is None
        lanes = {"eventsim_batch_lanes_total": {
            "samples": [{"labels": {}, "value": 27.0}]}}
        assert (eventsim_engine_from_metrics(lanes)
                == "eventsim: 27 lanes via the batched lockstep engine")

    def test_telemetry_report_spans_missing_file(self, tmp_path, capsys):
        assert main(["telemetry-report",
                     "--spans", str(tmp_path / "gone.json")]) == 2
        assert "no such span trace" in capsys.readouterr().err

    def test_bench_report_on_committed_ledger(self, capsys):
        assert main(["bench-report"]) == 0
        out = capsys.readouterr().out
        assert "run(s)" in out
        assert "[gated]" in out

    def test_bench_report_empty_ledger_exits_2(self, tmp_path, capsys):
        assert main(["bench-report",
                     "--ledger", str(tmp_path / "none.jsonl")]) == 2
        assert "no entries" in capsys.readouterr().err

    def test_bench_report_check_gates_regressions(self, tmp_path, capsys):
        ledger = _ledger_module()
        path = tmp_path / "ledger.jsonl"
        for speedup in (30.0, 31.0, 29.5, 3.0):  # last run: 10x slower
            ledger.append_entry(path, ledger.LedgerEntry(
                bench="pipeline", recorded_at="2026-08-01T00:00:00+00:00",
                metrics={"warm_speedup": speedup}))
        assert main(["bench-report", "--ledger", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench-report", "--ledger", str(path),
                     "--check"]) == 1
        assert "regression" in capsys.readouterr().out
