"""Metrics registry: label handling, type safety, histogram buckets."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry


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
            registry.histogram("metric")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("bad name!")

    def test_as_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(kernel="K")
        registry.histogram("h", buckets=(0.1,)).observe(0.05)
        dumped = json.loads(json.dumps(registry.as_dict()))
        assert dumped["c_total"]["type"] == "counter"
        assert dumped["c_total"]["samples"][0]["value"] == 1.0
        assert dumped["h"]["samples"][0]["count"] == 1

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["c_total"]["type"] == "counter"
