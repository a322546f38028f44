"""Benchmark trend ledger: perfbench rows, durability, regression gates."""

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

#: End-to-end values of a plausible ``reproduce_cold`` run.
VALUES = {"wall_s": 0.80, "cpu_s": 0.78, "peak_rss_mb": 45.2,
          "setup_s": 0.003, "sim_ed2_gain_pct": 12.0}
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
         "sim_ed2_gain_pct": "%"}
WORKLOADS = ("montecarlo", "reproduce_cold", "reproduce_warm")


def perfbench_stdout(workload="reproduce_cold", correct=True, drop=(),
                     extra_facts=None, extra_result=None, **scale):
    """Text shaped like ``perfbench/run.py --trace 0`` stdout: the table,
    then the facts and result lines. ``scale`` multiplies metric values;
    ``drop`` leaves metrics out of the result line; ``extra_facts`` and
    ``extra_result`` add keys to the two JSON lines."""
    metrics = {name: {"value": value * scale.get(name, 1.0),
                      "unit": UNITS[name]}
               for name, value in VALUES.items() if name not in drop}
    facts = {"workload": workload, "seed": 0, "nproc": 2,
             "python": "3.11.7", "numpy": "2.4.6", "code.src_lines": 16800,
             "parallel_leg": "not measured: every invocation runs --jobs 1",
             **(extra_facts or {})}
    result = {"correct": correct, "attempted": 9, "failed": 0 if correct
              else 1, "metrics": metrics, **(extra_result or {})}
    table = "\n".join(f"{name:34s} {value['value']:>14.6g} {value['unit']}"
                      for name, value in metrics.items())
    return (f"as measured, medians: wall_s 0.9 s over 3\n{table}\n"
            f"{json.dumps(facts)}\n{json.dumps(result)}\n")


def write_stdout(path, **kwargs):
    path.write_text(perfbench_stdout(**kwargs))
    return path


def make_entry(workload="w", correct=True, **metrics):
    return ledger.LedgerEntry(
        workload=workload, recorded_at="2026-10-01T00:00:00+00:00",
        correct=correct, metrics={k: float(v) for k, v in metrics.items()})


def ingest(ledger_path, tmp_path, **kwargs):
    stdout = write_stdout(tmp_path / "perfbench.txt", **kwargs)
    assert bench_gate.main(["ingest", "--ledger", str(ledger_path),
                            str(stdout)]) == 0


class TestIngestAndRead:
    def test_round_trip(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        stdout = write_stdout(tmp_path / "perfbench-reproduce_cold.txt")
        entry = ledger.ingest_file(ledger_path, stdout)
        assert entry.workload == "reproduce_cold"
        assert entry.correct and (entry.attempted, entry.failed) == (9, 0)
        assert entry.metrics == {**VALUES, "code.src_lines": 16800.0}
        assert entry.env == {"seed": 0, "nproc": 2, "python": "3.11.7",
                             "numpy": "2.4.6"}
        assert entry.source == "perfbench-reproduce_cold.txt"
        (read,) = ledger.read_entries(ledger_path)
        assert read == entry

    def test_row_keeps_what_the_result_line_holds(self):
        entry = ledger.entry_from_stdout(
            perfbench_stdout(correct=False, drop=("wall_s",)))
        assert not entry.correct and entry.failed == 1
        assert "wall_s" not in entry.metrics
        assert entry.metrics["peak_rss_mb"] == VALUES["peak_rss_mb"]

    def test_booleans_and_nested_values_excluded(self):
        """Only the result line's metric values and a numeric
        ``code.src_lines`` become row metrics."""
        entry = ledger.entry_from_stdout(perfbench_stdout(
            extra_facts={"code.src_lines": True, "jobs": [1, 2]},
            extra_result={"speedup": 2.0, "ok": True, "nested": {"a": 1}}))
        assert entry.metrics == VALUES
        assert entry.env == {"seed": 0, "nproc": 2, "python": "3.11.7",
                             "numpy": "2.4.6"}

    @pytest.mark.parametrize("text", [
        "",
        '{"correct": true, "metrics": {}}\n',
        "table\nnot json\n",
        '{"seed": 0}\n{"correct": true, "metrics": {}}\n',
        '{"workload": "w"}\n{"correct": "yes", "metrics": {}}\n',
        '{"workload": "w"}\n{"correct": true, "metrics": []}\n',
        '{"workload": "w"}\n{"correct": true, "metrics": '
        '{"wall_s": {"value": "fast"}}}\n',
        '{"workload": "w"}\n{"correct": true, "metrics": {"wall_s": 1.0}}\n',
        '{"workload": "w"}\n{"correct": true, "failed": "none", '
        '"metrics": {}}\n',
    ], ids=["empty", "one-line", "not-json", "no-workload", "string-correct",
            "list-metrics", "string-value", "bare-value", "string-count"])
    def test_non_perfbench_output_rejected(self, tmp_path, text):
        path = tmp_path / "out.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="out.txt"):
            ledger.ingest_file(tmp_path / "l.jsonl", path)
        assert not (tmp_path / "l.jsonl").exists()

    def test_unreadable_and_scalar_free_payloads_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unreadable"):
            ledger.ingest_file(tmp_path / "l.jsonl", tmp_path / "gone.txt")
        bad = tmp_path / "BENCH_bad.json"
        for payload in ("[1, 2]", json.dumps({"name": "only strings"}),
                        json.dumps({"warm_speedup": 30.0})):
            bad.write_text(payload)
            with pytest.raises(ValueError, match="perfbench's facts"):
                ledger.ingest_file(tmp_path / "l.jsonl", bad)
        assert not (tmp_path / "l.jsonl").exists()

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert ledger.read_entries(tmp_path / "absent.jsonl") == []

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(path, make_entry(wall_s=1))
        ledger.append_entry(path, make_entry(wall_s=2))
        with open(path, "a") as handle:
            handle.write('{"workload": "w", "metri')  # crashed writer
        entries = ledger.read_entries(path)
        assert [e.metrics["wall_s"] for e in entries] == [1.0, 2.0]

    def test_earlier_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(path, make_entry(wall_s=1))
        with open(path, "a") as handle:
            handle.write("{broken\n")
        ledger.append_entry(path, make_entry(wall_s=2))
        with pytest.raises(ValueError, match="not valid JSON"):
            ledger.read_entries(path)

    def test_line_that_is_no_row_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"bench": "sweep", "metrics": {}}) + "\n")
        with pytest.raises(ValueError, match=r"ledger.jsonl:1: not a ledger"):
            ledger.read_entries(path)


class TestGates:
    def _history(self, *walls, rss=45.0):
        return [make_entry(wall_s=wall, peak_rss_mb=rss) for wall in walls]

    def _gate(self, entries, metric="wall_s", **kwargs):
        results = ledger.evaluate_gates(entries, "w", **kwargs)
        return next(result for result in results if result.metric == metric)

    def test_bounds_come_from_benchmark_json(self):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        declared = {metric["name"]: (metric["better"], metric["bound"])
                    for metric in spec["end_to_end"]}
        bounds = ledger.metric_bounds()
        assert bounds == declared
        assert set(ledger.GATED) <= set(bounds)

    def test_first_entry_is_seeded(self):
        results = ledger.evaluate_gates(self._history(1.0), "w")
        assert [(r.metric, r.status, r.baseline) for r in results] == [
            ("wall_s", ledger.STATUS_SEEDED, None),
            ("peak_rss_mb", ledger.STATUS_SEEDED, None)]

    def test_within_band_is_ok(self):
        result = self._gate(self._history(1.0, 1.05, 0.99, 1.2))
        assert result.status == ledger.STATUS_OK
        assert result.baseline == pytest.approx(1.0)

    def test_injected_slowdown_fails_the_gate(self):
        """The acceptance scenario: a synthetic slowdown must gate."""
        result = self._gate(self._history(1.0, 1.02, 0.98, 1.01, 1.30))
        assert result.status == ledger.STATUS_REGRESSION
        assert "above the 25% band" in result.detail

    def test_baseline_is_median_not_mean(self):
        # One 100x outlier run must not move the bar.
        result = self._gate(self._history(1.0, 100.0, 1.02, 0.99, 1.2))
        assert result.status == ledger.STATUS_OK
        assert result.baseline == pytest.approx(1.01)

    def test_window_bounds_the_baseline(self):
        history = self._history(0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.2)
        assert ledger.WINDOW == 5
        result = self._gate(history)
        assert result.baseline == pytest.approx(1.0)
        assert result.status == ledger.STATUS_OK

    def test_missing_metric_reported(self):
        entries = [make_entry(wall_s=1.0, peak_rss_mb=45.0),
                   make_entry(peak_rss_mb=45.0)]
        results = ledger.evaluate_gates(entries, "w")
        assert [(r.metric, r.status) for r in results] == [
            ("wall_s", ledger.STATUS_MISSING),
            ("peak_rss_mb", ledger.STATUS_OK)]

    def test_incorrect_rows_are_no_baseline(self):
        history = [make_entry(wall_s=0.1, peak_rss_mb=45.0, correct=False),
                   *self._history(1.0)]
        assert self._gate(history).status == ledger.STATUS_SEEDED

    def test_lower_is_better_direction(self):
        # peak_rss_mb is "lower" in BENCHMARK.json: a drop is no
        # regression, a 6% rise is.
        shrunk = self._gate(self._history(1.0, rss=45.0)
                            + self._history(1.0, rss=42.0), "peak_rss_mb")
        assert shrunk.status == ledger.STATUS_OK
        grown = self._gate(self._history(1.0, rss=45.0)
                           + self._history(1.0, rss=47.7), "peak_rss_mb")
        assert grown.status == ledger.STATUS_REGRESSION
        assert "above" in grown.detail

    def test_higher_is_better_direction(self):
        bounds = {"wall_s": ("higher", 0.1), "peak_rss_mb": ("lower", 0.05)}
        result = self._gate(self._history(1.0, 0.85), bounds=bounds)
        assert result.status == ledger.STATUS_REGRESSION
        assert "below" in result.detail

    def test_trended_metrics_never_gate(self):
        entries = [make_entry(wall_s=1.0, peak_rss_mb=45.0, setup_s=0.002),
                   make_entry(wall_s=1.0, peak_rss_mb=45.0, setup_s=0.02)]
        results = ledger.evaluate_gates(entries, "w")
        assert all(r.status == ledger.STATUS_OK for r in results)

    def test_evaluate_all_gates_covers_each_gated_bench(self):
        entries = [make_entry("a", wall_s=1.0, peak_rss_mb=45.0),
                   make_entry("b", wall_s=1.0, peak_rss_mb=45.0)]
        results = ledger.evaluate_all_gates(entries)
        assert [(r.workload, r.metric) for r in results] == [
            ("a", "wall_s"), ("a", "peak_rss_mb"),
            ("b", "wall_s"), ("b", "peak_rss_mb")]


class TestTrendReport:
    def test_report_shows_trends_and_gates(self):
        entries = [ledger.entry_from_stdout(perfbench_stdout()),
                   ledger.entry_from_stdout(perfbench_stdout(wall_s=1.1))]
        report = ledger.format_trend_report(
            entries, ledger.evaluate_all_gates(entries))
        # Each gate's verdict comes once, under its workload, after the
        # metric trails.
        assert report.index("bench ledger: 2 rows across 1 workload(s)") \
            < report.index("reproduce_cold: 2 run(s)") < report.index(
            f"  {'wall_s':<32s} 0.8 -> 0.88 [gated]") < \
            report.index("  gate wall_s: ok (within 25% of baseline 0.8)")
        assert f"  {'code.src_lines':<32s} 16800 -> 16800\n" in report
        assert f"  {'setup_s':<32s} 0.003 -> 0.003\n" in report
        assert report.count("  gate ") == 2
        assert "gate peak_rss_mb: ok (within 5% of baseline 45.2)" in report

    def test_empty_ledger_report(self):
        assert ledger.format_trend_report([], []) == \
            "bench ledger: 0 rows across 0 workload(s)"


def check_after_baseline(directory, capsys, **latest):
    """``check``'s exit code and output on a ledger of two plain rows and
    a latest row made with ``latest``."""
    directory.mkdir(exist_ok=True)
    ledger_path = directory / "ledger.jsonl"
    ingest(ledger_path, directory)
    ingest(ledger_path, directory)
    ingest(ledger_path, directory, **latest)
    capsys.readouterr()
    rc = bench_gate.main(["check", "--ledger", str(ledger_path)])
    return rc, capsys.readouterr()


class TestBenchGateCli:
    def test_ingest_then_check_ok(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        ingest(ledger_path, tmp_path)
        ingest(ledger_path, tmp_path, wall_s=1.1)
        assert bench_gate.main(["check", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "ingested reproduce_cold (correct, 6 metrics)" in out
        assert "reproduce_cold: 2 run(s)" in out
        assert out.count("  gate ") == 2
        assert "bench_gate: OK (2 gates)" in out

    def test_check_fails_on_injected_slowdown(self, tmp_path, capsys):
        """The CI gate exits 1 on a ``wall_s`` 30% or a ``peak_rss_mb`` 6%
        above a two-row baseline."""
        for metric, scale in (("wall_s", 1.30), ("peak_rss_mb", 1.06)):
            rc, captured = check_after_baseline(tmp_path / metric, capsys,
                                                **{metric: scale})
            assert rc == 1, metric
            assert f"gate {metric}: regression (" in captured.out
            assert "gate(s) failed" in captured.err

    def test_check_fails_on_vanished_metric(self, tmp_path, capsys):
        rc, captured = check_after_baseline(tmp_path, capsys,
                                            drop=("wall_s",))
        assert rc == 1
        assert "gate wall_s: missing (" in captured.out
        assert "gate(s) failed" in captured.err

    def test_check_fails_on_incorrect_row(self, tmp_path, capsys):
        rc, captured = check_after_baseline(tmp_path, capsys, correct=False)
        assert rc == 1
        assert captured.out.count(": incorrect (") == 2
        assert "gate(s) failed" in captured.err

    def test_noise_inside_the_bounds_passes(self, tmp_path, capsys):
        rc, _ = check_after_baseline(tmp_path, capsys, wall_s=1.2,
                                     peak_rss_mb=1.04, setup_s=1.3,
                                     cpu_s=1.5)
        assert rc == 0

    def test_first_row_seeds(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        ingest(ledger_path, tmp_path)
        assert bench_gate.main(["check", "--ledger", str(ledger_path)]) == 0
        assert capsys.readouterr().out.count(": seeded (") == 2

    def test_empty_ledger_check_passes(self, tmp_path, capsys):
        rc = bench_gate.main(["check", "--ledger",
                              str(tmp_path / "none.jsonl")])
        assert rc == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_ingest_reports_bad_files(self, tmp_path, capsys):
        good = write_stdout(tmp_path / "good.txt")
        rc = bench_gate.main(["ingest", "--ledger",
                              str(tmp_path / "l.jsonl"),
                              str(tmp_path / "gone.txt"), str(good)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bench_gate: unreadable perfbench output" in captured.err
        assert len(ledger.read_entries(tmp_path / "l.jsonl")) == 1


class TestCommittedLedger:
    def test_repo_ledger_is_populated_and_green(self, capsys):
        entries = ledger.read_entries(ledger.default_ledger_path())
        assert {entry.workload for entry in entries} == set(WORKLOADS)
        assert all(entry.correct and "code.src_lines" in entry.metrics
                   for entry in entries)
        assert bench_gate.main(["check"]) == 0
        gates = [line.split(" (")[0].strip()
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  gate ")]
        assert gates == [f"gate {metric}: ok" for _ in WORKLOADS
                         for metric in ("wall_s", "peak_rss_mb")]
