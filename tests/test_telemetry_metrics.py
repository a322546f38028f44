"""Metrics registry: label handling, type safety, histogram buckets."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter("hits_total")
        assert counter.value() == 0.0
        assert counter.value(kernel="X") == 0.0

    def test_label_sets_are_independent_series(self):
        counter = Counter("cg_actions_total")
        counter.inc(kernel="Sort.TopScan")
        counter.inc(kernel="Sort.TopScan")
        counter.inc(kernel="LUD.Diagonal")
        assert counter.value(kernel="Sort.TopScan") == 2.0
        assert counter.value(kernel="LUD.Diagonal") == 1.0
        assert counter.value() == 0.0

    def test_label_order_is_irrelevant(self):
        counter = Counter("launches_total")
        counter.inc(kernel="K", policy="harmonia")
        counter.inc(policy="harmonia", kernel="K")
        assert counter.value(policy="harmonia", kernel="K") == 2.0

    def test_label_values_are_stringified(self):
        counter = Counter("phases_total")
        counter.inc(phase=1)
        assert counter.value(phase="1") == 1.0

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_samples_sorted_and_labelled(self):
        counter = Counter("c_total")
        counter.inc(kernel="B")
        counter.inc(3.0, kernel="A")
        samples = counter.samples()
        assert samples == [
            {"labels": {"kernel": "A"}, "value": 3.0},
            {"labels": {"kernel": "B"}, "value": 1.0},
        ]


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("current_phase")
        assert gauge.value(kernel="K") is None
        gauge.set(2, kernel="K")
        gauge.set(3, kernel="K")
        assert gauge.value(kernel="K") == 3.0


class TestHistogram:
    def test_bucketing(self):
        histogram = Histogram("t_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            histogram.observe(value, kernel="K")
        assert histogram.bucket_counts(kernel="K") == (1, 2, 1, 1)
        assert histogram.count(kernel="K") == 5
        assert histogram.total(kernel="K") == pytest.approx(5.0605)

    def test_boundary_lands_in_bucket(self):
        histogram = Histogram("t", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts() == (1, 0, 0)

    def test_unsorted_buckets_are_sorted(self):
        histogram = Histogram("t", buckets=(0.1, 0.001, 0.01))
        assert histogram.buckets == (0.001, 0.01, 0.1)

    def test_rejects_empty_and_duplicate_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram("t", buckets=())
        with pytest.raises(TelemetryError):
            Histogram("t", buckets=(0.1, 0.1))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        second = registry.counter("c_total")
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("metric")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("bad name!")

    def test_as_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(kernel="K")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(0.1,)).observe(0.05)
        dumped = json.loads(json.dumps(registry.as_dict()))
        assert dumped["c_total"]["type"] == "counter"
        assert dumped["c_total"]["samples"][0]["value"] == 1.0
        assert dumped["g"]["type"] == "gauge"
        assert dumped["h"]["samples"][0]["count"] == 1

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["c_total"]["type"] == "counter"

    def test_render_text_mentions_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(kernel="K")
        registry.histogram("h_seconds").observe(0.5)
        text = registry.render_text()
        assert "c_total{kernel=K} 1" in text
        assert "h_seconds count=1" in text


class TestRegistryMerge:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(2.0, kernel="K")
        registry.gauge("g", "a gauge").set(1.5)
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        return registry.as_dict()

    def test_merge_into_empty_equals_source(self):
        snapshot = self._snapshot()
        merged = MetricsRegistry()
        merged.merge(snapshot)
        assert merged.as_dict() == snapshot

    def test_counters_add_across_merges(self):
        snapshot = self._snapshot()
        merged = MetricsRegistry()
        merged.merge(snapshot)
        merged.merge(snapshot)
        assert merged.counter("c_total").value(kernel="K") == 4.0

    def test_histograms_add_buckets_and_sums(self):
        snapshot = self._snapshot()
        merged = MetricsRegistry()
        merged.merge(snapshot)
        merged.merge(snapshot)
        histogram = merged.histogram("h_seconds")
        assert histogram.count() == 2
        assert histogram.total() == pytest.approx(0.1)
        assert histogram.bucket_counts() == (2, 0, 0)

    def test_gauge_is_last_write_wins(self):
        merged = MetricsRegistry()
        merged.gauge("g").set(9.0)
        merged.merge(self._snapshot())
        assert merged.gauge("g").value() == 1.5

    def test_from_dict_round_trip(self):
        snapshot = self._snapshot()
        assert MetricsRegistry.from_dict(snapshot).as_dict() == snapshot

    def test_mismatched_histogram_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(0.5,)).observe(0.1)
        with pytest.raises(TelemetryError, match="bucket"):
            registry.merge(self._snapshot())

    def test_negative_counter_snapshot_rejected(self):
        snapshot = self._snapshot()
        snapshot["c_total"]["samples"][0]["value"] = -1.0
        with pytest.raises(TelemetryError):
            MetricsRegistry().merge(snapshot)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("c_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.merge(self._snapshot())

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="kind"):
            MetricsRegistry().merge(
                {"x": {"type": "summary", "help": "", "samples": []}})

    def test_concurrent_increments_are_exact(self):
        import threading

        counter = MetricsRegistry().counter("c_total")

        def spin():
            for _ in range(1000):
                counter.inc(worker="w")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="w") == 4000.0


class TestPrometheusRendering:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "the counter").inc(3, kernel="K")
        registry.gauge("g", "the gauge").set(1.5, mode="warm")
        registry.histogram("h_seconds", "the hist",
                           buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP c_total the counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kernel="K"} 3' in text
        assert 'g{mode="warm"} 1.5' in text
        assert '# TYPE h_seconds histogram' in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text       # cumulative
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.05" in text
        assert "h_seconds_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'c_total{path="a\\"b\\\\c\\nd"} 1' in text
