"""Metrics registry tests: instruments, percentiles, snapshot schema."""

import math

import pytest

from repro.serve.metrics import Histogram, MetricsRegistry, percentile


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2

    def test_histogram_window_rolls_off_old_samples(self):
        hist = Histogram(window=4)
        for value in (100.0, 1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 5  # lifetime count survives the roll
        assert summary["max"] == 4.0  # the 100.0 sample rolled off


class TestPercentile:
    def test_interpolation(self):
        ordered = [float(v) for v in range(1, 101)]
        assert percentile(ordered, 50.0) == pytest.approx(50.5)
        assert percentile(ordered, 95.0) == pytest.approx(95.05)
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 100.0) == 100.0

    def test_degenerate_inputs(self):
        assert math.isnan(percentile([], 50.0))
        assert percentile([7.0], 99.0) == 7.0


class TestSnapshot:
    def test_fresh_registry_snapshot_is_empty(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(10)
        registry.gauge("active").set(2)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("latency").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"frames": 10}
        assert snapshot["gauges"] == {"active": 2}
        latency = snapshot["histograms"]["latency"]
        assert latency["count"] == 3
        assert latency["mean"] == pytest.approx(0.2)
        assert latency["min"] == 0.1
        assert latency["max"] == 0.3
        assert latency["p50"] == pytest.approx(0.2)
        assert latency["p95"] <= 0.3
        assert set(latency) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_empty_histogram_serializes_none_not_nan(self):
        registry = MetricsRegistry()
        registry.histogram("quiet")
        summary = registry.snapshot()["histograms"]["quiet"]
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p99"] is None
