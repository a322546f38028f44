"""Benchmark trend ledger: ingest, durability, regression gates."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks import ledger  # noqa: E402
from tools import bench_gate  # noqa: E402


def write_bench_json(path, **scalars):
    path.write_text(json.dumps(scalars))
    return path


def make_entry(bench, recorded_at="2026-08-01T00:00:00+00:00", **metrics):
    return ledger.LedgerEntry(
        bench=bench, recorded_at=recorded_at,
        metrics={k: float(v) for k, v in metrics.items()},
    )


class TestIngestAndRead:
    def test_round_trip(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        bench_json = write_bench_json(
            tmp_path / "BENCH_pipeline.json",
            warm_speedup=30.0, cores=1, reports_identical=True)
        entry = ledger.ingest_file(ledger_path, bench_json)
        assert entry.bench == "pipeline"
        assert entry.metrics == {"warm_speedup": 30.0, "cores": 1.0}
        assert entry.env["python"]
        (read,) = ledger.read_entries(ledger_path)
        assert read == entry

    def test_booleans_and_nested_values_excluded(self, tmp_path):
        bench_json = write_bench_json(
            tmp_path / "BENCH_x.json",
            speedup=2.0, ok=True, rows=[1, 2], nested={"a": 1})
        entry = ledger.ingest_file(tmp_path / "l.jsonl", bench_json)
        assert entry.metrics == {"speedup": 2.0}

    def test_bench_name_from_filename(self):
        assert ledger.bench_name_for("BENCH_warmstart.json") == "warmstart"
        assert ledger.bench_name_for("/a/b/BENCH_tele-2.json") == "tele-2"
        assert ledger.bench_name_for("other.json") == "other"

    def test_name_override(self, tmp_path):
        bench_json = write_bench_json(tmp_path / "BENCH_x.json", v=1.0)
        entry = ledger.ingest_file(tmp_path / "l.jsonl", bench_json,
                                   bench="renamed")
        assert entry.bench == "renamed"

    def test_unreadable_and_scalar_free_payloads_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unreadable"):
            ledger.ingest_file(tmp_path / "l.jsonl", tmp_path / "gone.json")
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            ledger.ingest_file(tmp_path / "l.jsonl", bad)
        bad.write_text(json.dumps({"name": "only strings"}))
        with pytest.raises(ValueError, match="no numeric scalars"):
            ledger.ingest_file(tmp_path / "l.jsonl", bad)

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert ledger.read_entries(tmp_path / "absent.jsonl") == []

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(path, make_entry("a", v=1))
        ledger.append_entry(path, make_entry("a", v=2))
        with open(path, "a") as handle:
            handle.write('{"bench": "a", "metri')  # crashed writer
        entries = ledger.read_entries(path)
        assert [e.metrics["v"] for e in entries] == [1.0, 2.0]

    def test_earlier_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(path, make_entry("a", v=1))
        with open(path, "a") as handle:
            handle.write("{broken\n")
        ledger.append_entry(path, make_entry("a", v=2))
        with pytest.raises(ValueError, match="not valid JSON"):
            ledger.read_entries(path)


class TestGates:
    RULES = {"b": [ledger.GateRule("speedup", higher_is_better=True,
                                   max_regression=0.20)]}

    def _history(self, *values):
        return [make_entry("b", speedup=v) for v in values]

    def test_first_entry_is_seeded(self):
        (result,) = ledger.evaluate_gates(self._history(10.0), "b",
                                          gates=self.RULES)
        assert result.status == ledger.STATUS_SEEDED

    def test_within_band_is_ok(self):
        (result,) = ledger.evaluate_gates(
            self._history(10.0, 10.5, 9.9, 9.0), "b", gates=self.RULES)
        assert result.status == ledger.STATUS_OK
        assert result.baseline == pytest.approx(10.0)

    def test_injected_slowdown_fails_the_gate(self):
        """The acceptance scenario: a synthetic slowdown must gate."""
        history = self._history(10.0, 10.2, 9.8, 10.1, 5.0)
        (result,) = ledger.evaluate_gates(history, "b", gates=self.RULES)
        assert result.status == ledger.STATUS_REGRESSION
        assert "below" in result.detail

    def test_baseline_is_median_not_mean(self):
        # One 100x outlier run must not drag the bar up.
        history = self._history(10.0, 1000.0, 10.2, 9.9, 9.0)
        (result,) = ledger.evaluate_gates(history, "b", gates=self.RULES)
        assert result.status == ledger.STATUS_OK
        assert result.baseline == pytest.approx(10.1)

    def test_window_bounds_the_baseline(self):
        history = self._history(100.0, 10.0, 10.0, 10.0, 10.0, 10.0, 9.5)
        (result,) = ledger.evaluate_gates(history, "b", window=5,
                                          gates=self.RULES)
        assert result.baseline == pytest.approx(10.0)

    def test_lower_is_better_direction(self):
        rules = {"b": [ledger.GateRule("ratio", higher_is_better=False,
                                       max_regression=0.10)]}
        entries = [make_entry("b", ratio=1.0), make_entry("b", ratio=1.5)]
        (result,) = ledger.evaluate_gates(entries, "b", gates=rules)
        assert result.status == ledger.STATUS_REGRESSION
        assert "above" in result.detail

    def test_absolute_ceiling_beats_history(self):
        rules = {"b": [ledger.GateRule("ratio", higher_is_better=False,
                                       max_value=1.02)]}
        # History would call 1.05 normal; the absolute bound must not.
        entries = [make_entry("b", ratio=1.05), make_entry("b", ratio=1.05)]
        (result,) = ledger.evaluate_gates(entries, "b", gates=rules)
        assert result.status == ledger.STATUS_REGRESSION
        assert "ceiling" in result.detail

    def test_missing_metric_reported(self):
        entries = [make_entry("b", other=1.0)]
        (result,) = ledger.evaluate_gates(entries, "b", gates=self.RULES)
        assert result.status == ledger.STATUS_MISSING

    def test_evaluate_all_gates_covers_each_gated_bench(self):
        entries = [make_entry("pipeline", warm_speedup=30.0),
                   make_entry("warmstart", warm_speedup=6.0),
                   make_entry("ungated_bench", anything=1.0)]
        results = ledger.evaluate_all_gates(entries)
        assert {r.bench for r in results} == {"pipeline", "warmstart"}


class TestTrendReport:
    def test_report_shows_trends_and_gates(self):
        entries = [make_entry("pipeline", warm_speedup=30.0),
                   make_entry("pipeline", warm_speedup=31.0)]
        report = ledger.format_trend_report(entries)
        assert "pipeline: 2 run(s)" in report
        assert "30 -> 31" in report
        assert "[gated]" in report
        assert "gate warm_speedup:" in report

    def test_empty_ledger_report(self):
        assert "empty" in ledger.format_trend_report([])


class TestBenchGateCli:
    def test_ingest_then_check_ok(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        bench_json = write_bench_json(tmp_path / "BENCH_pipeline.json",
                                      warm_speedup=30.0)
        rc = bench_gate.main(["ingest", "--ledger", str(ledger_path),
                              str(bench_json)])
        assert rc == 0
        rc = bench_gate.main(["check", "--ledger", str(ledger_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seeded" in out and "OK" in out
        # The trend report comes first, above the gate lines.
        report = out.index("bench ledger: 1 entries across 1 benchmark(s)")
        assert report < out.index("  warm_speedup") < out.index(
            "[gated]") < out.index("bench_gate: pipeline.warm_speedup")

    def test_check_fails_on_injected_slowdown(self, tmp_path, capsys):
        """End-to-end acceptance: the CI gate exits 1 on a regression."""
        ledger_path = tmp_path / "ledger.jsonl"
        for speedup in (30.0, 31.0, 29.5):
            bench_json = write_bench_json(
                tmp_path / "BENCH_pipeline.json", warm_speedup=speedup)
            assert bench_gate.main(["ingest", "--ledger", str(ledger_path),
                                    str(bench_json)]) == 0
        slow = write_bench_json(tmp_path / "BENCH_pipeline.json",
                                warm_speedup=3.0)  # 10x slower
        assert bench_gate.main(["ingest", "--ledger", str(ledger_path),
                                str(slow)]) == 0
        rc = bench_gate.main(["check", "--ledger", str(ledger_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out
        assert "failed" in captured.err

    def test_check_fails_on_vanished_metric(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        good = write_bench_json(tmp_path / "BENCH_pipeline.json",
                                warm_speedup=30.0)
        bench_gate.main(["ingest", "--ledger", str(ledger_path), str(good)])
        gone = write_bench_json(tmp_path / "BENCH_pipeline.json",
                                something_else=1.0)
        bench_gate.main(["ingest", "--ledger", str(ledger_path), str(gone)])
        assert bench_gate.main(["check", "--ledger", str(ledger_path)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_empty_ledger_check_passes(self, tmp_path, capsys):
        rc = bench_gate.main(["check", "--ledger",
                              str(tmp_path / "none.jsonl")])
        assert rc == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_ingest_reports_bad_files(self, tmp_path, capsys):
        rc = bench_gate.main(["ingest", "--ledger",
                              str(tmp_path / "l.jsonl"),
                              str(tmp_path / "BENCH_gone.json")])
        assert rc == 1
        assert "bench_gate:" in capsys.readouterr().err

    def test_bench_override_needs_single_file(self, tmp_path):
        a = write_bench_json(tmp_path / "BENCH_a.json", v=1.0)
        b = write_bench_json(tmp_path / "BENCH_b.json", v=2.0)
        rc = bench_gate.main(["ingest", "--ledger",
                              str(tmp_path / "l.jsonl"),
                              "--bench", "x", str(a), str(b)])
        assert rc == 2


class TestCommittedLedger:
    def test_repo_ledger_is_populated_and_green(self):
        entries = ledger.read_entries(ledger.default_ledger_path())
        assert entries, "benchmarks/ledger.jsonl must ship seeded"
        results = ledger.evaluate_all_gates(entries)
        assert results
        assert all(r.status in (ledger.STATUS_OK, ledger.STATUS_SEEDED)
                   for r in results)
