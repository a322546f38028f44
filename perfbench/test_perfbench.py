"""Smoke tests of the benchmark itself: metric names, digest checks and
layer attribution. Run with ``python3 -m pytest perfbench -q``."""

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

FIG10 = """Figure 10: ED2 improvement over baseline
  application  cg-only  harmonia  oracle
-------------  -------  --------  ------
     MaxFlops    +8.2%     +5.7%   +8.7%
    geomean 1    +2.6%    +12.0%  +19.7%
    geomean 2    +1.7%    +12.8%  +20.7%
"""

MONTECARLO = """harmonia: 32 Monte Carlo trials
  application  ED2 vs baseline  energy vs baseline  performance
-------------  ---------------  ------------------  -----------
     MaxFlops      +7.1% ±1.4%         +8.5% ±0.5%  -0.7% ±0.5%
      geomean     +12.2% ±0.3%        +13.2% ±0.1%  -0.5% ±0.1%
"""


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_pipeline_nodes_match_registry():
    from repro.experiments.registry import reproduce_specs

    assert tuple(s.name for s in reproduce_specs()) == layers.PIPELINE_NODES
    assert sum(s.is_report for s in reproduce_specs()) == run.REPORT_COUNT


def test_committed_digests_cover_every_report():
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    assert len(digests["reproduce"]) == run.REPORT_COUNT
    assert "fig10_ed2.txt" in digests["reproduce"]


def test_report_parsers():
    assert run.fig10_harmonia_geomean(FIG10) == 12.0
    assert run.montecarlo_geomean(MONTECARLO) == 12.2


def _invocation(stdout=b"", code=0):
    return run.Invocation(wall_s=1.0, cpu_s=1.0, rss_mb=1.0, code=code,
                          stdout=stdout)


def _reports(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "fig10_ed2.txt").write_text(FIG10)
    (out / "table1_dvfs.txt").write_text("table 1\n")
    return out, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir()}


def test_digest_check_accepts_matching_reports(tmp_path):
    out, digests = _reports(tmp_path)
    bench = run.Bench("reproduce_cold", 1, tmp_path)
    bench.digests["reproduce"] = digests
    assert bench.check(_invocation(), out, "reproduce_cold")
    assert (bench.attempted, bench.failed, bench.ed2) == (1, 0, 12.0)


def test_digest_check_counts_each_mismatch(tmp_path):
    out, digests = _reports(tmp_path)
    bench = run.Bench("reproduce_cold", 1, tmp_path)
    bench.digests["reproduce"] = dict(digests, **{"fig99.txt": "0" * 64})
    assert not bench.check(_invocation(), out, "reproduce_cold")
    (out / "table1_dvfs.txt").write_text("drifted\n")
    bench.digests["reproduce"] = digests
    assert not bench.check(_invocation(), out, "reproduce_cold")
    assert not bench.check(_invocation(code=1), out, "reproduce_cold")
    assert (bench.attempted, bench.failed) == (3, 3)


def test_warm_run_must_be_served_from_the_manifest(tmp_path):
    out, digests = _reports(tmp_path)
    bench = run.Bench("reproduce_warm", 1, tmp_path)
    bench.digests["reproduce"] = digests
    assert not bench.check(_invocation(b"[ 1] fig10_ed2\n"), out,
                           "reproduce_warm")
    served = b"[ 1] fig10_ed2  (manifest)\n" * run.REPORT_COUNT
    assert bench.check(_invocation(served), out, "reproduce_warm")


def test_montecarlo_digest(tmp_path):
    seed0 = run.Bench("montecarlo", 0, tmp_path)
    assert not seed0.check(_invocation(MONTECARLO.encode()), tmp_path,
                           "montecarlo")
    other = run.Bench("montecarlo", 5, tmp_path)
    assert other.check(_invocation(MONTECARLO.encode()), tmp_path,
                       "montecarlo")
    assert other.mc_digest == hashlib.sha256(MONTECARLO.encode()).hexdigest()
    changed = MONTECARLO.replace("+7.1%", "+7.2%").encode()
    assert not other.check(_invocation(changed), tmp_path, "montecarlo")
    assert other.failed == 1


class _Fake:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return "done"

    def inner(self):
        return self.inner_again()

    def inner_again(self):
        return 1

    def batch(self, items):
        return len(items)

    @property
    def prop(self):
        return 7


def test_tracer_attributes_self_time_and_skips_same_layer_nesting():
    ticks = iter(range(100))
    tracer = layers.LayerTracer(clock=lambda: float(next(ticks)))
    tracer.wrap(_Fake, "outer", "a")
    tracer.wrap(_Fake, "inner", "b")
    tracer.wrap(_Fake, "inner_again", "b")
    try:
        assert _Fake().outer(2) == "done"
    finally:
        tracer.uninstall()
    # clock: outer 0..5; inner 1..2 and 3..4 (inner_again passes through)
    assert dict(tracer.calls) == {"a": 1, "b": 2}
    assert tracer.total_s["a"] == 5.0 and tracer.self_s["a"] == 3.0
    assert tracer.total_s["b"] == 2.0 and tracer.self_s["b"] == 2.0
    assert tracer.last_result["a"] == "done"
    assert "outer" in vars(_Fake) and not hasattr(_Fake.outer, "__wrapped__")


def test_tracer_wraps_properties_and_counts_units():
    tracer = layers.LayerTracer()
    tracer.wrap(_Fake, "prop", "p")
    tracer.wrap(_Fake, "batch", "o", units=layers._count_first_arg)
    try:
        assert _Fake().prop == 7
        assert _Fake().batch([None, None, None]) == 3
    finally:
        tracer.uninstall()
    assert tracer.calls["p"] == 1
    assert tracer.units["o"] == 3
    assert isinstance(vars(_Fake)["prop"], property)


def test_tracer_is_thread_safe():
    tracer = layers.LayerTracer()
    tracer.wrap(_Fake, "inner", "b")
    try:
        threads = [threading.Thread(target=lambda: [_Fake().inner()
                                                    for _ in range(2000)])
                   for _ in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
    finally:
        tracer.uninstall()
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.calls["b"] == 16000


def test_every_layer_resolves_and_a_renamed_one_fails():
    tracer = layers.LayerTracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(KeyError):
        tracer.install([("repro.platform.noise", "LaunchKeyedNoise",
                         "no_such_method", "x", None)])


def test_count_rules_fail_a_layer_that_reads_zero(tmp_path):
    metrics = {name: 0 for name, _ in layers.PER_LAYER}
    bench = run.Bench("reproduce_warm", 1, tmp_path)
    bench.check_counts(dict(metrics, **{"pipeline.nodes_served": 26,
                                        "store.loads": 26}))
    assert not bench.errors
    bench.check_counts(metrics)
    assert len(bench.errors) == 2
