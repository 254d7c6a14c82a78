"""The labeled metric registry and its log-bucketed histograms."""

import math

import pytest

from repro.core.metrics import percentile
from repro.core.registry import (
    DEFAULT_GROWTH,
    LogHistogram,
    MetricRegistry,
    latency_histogram,
    size_histogram,
)
from repro.errors import ReproError


def seeded_samples(n=500, seed=3):
    """Deterministic latency-like samples spanning several decades."""
    samples = []
    state = seed
    for _ in range(n):
        state = (state * 48271) % 2147483647
        # 0.2 ms .. ~20 s, log-uniform-ish
        samples.append(2e-4 * (10 ** (5.0 * (state / 2147483647))))
    return samples


class TestLogHistogram:
    def test_observation_is_deterministic(self):
        a = latency_histogram()
        b = latency_histogram()
        for value in seeded_samples():
            a.observe(value)
            b.observe(value)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_percentile_within_one_bucket_of_exact(self):
        samples = seeded_samples()
        hist = latency_histogram()
        for value in samples:
            hist.observe(value)
        for p in (50, 90, 99):
            exact = percentile(samples, p)
            approx = hist.percentile(p)
            # The histogram returns the bucket's upper bound, so the answer
            # is never below the exact sample and at most one bucket above.
            assert exact <= approx <= exact * DEFAULT_GROWTH * (1 + 1e-9), p

    def test_mean_is_exact(self):
        samples = seeded_samples(100)
        hist = latency_histogram()
        for value in samples:
            hist.observe(value)
        assert math.isclose(hist.mean, sum(samples) / len(samples))

    def test_underflow_and_overflow(self):
        hist = LogHistogram(lo=1.0, hi=100.0)
        hist.observe(0.5)
        hist.observe(1e6)
        assert hist.total == 2
        assert hist.percentile(0) == 1.0  # underflow reports lo
        assert hist.percentile(99) == 100.0  # overflow clamps to hi

    def test_empty_percentile_is_zero(self):
        assert latency_histogram().percentile(99) == 0.0

    def test_merge_matches_combined_observation(self):
        samples = seeded_samples(300)
        combined = latency_histogram()
        for value in samples:
            combined.observe(value)
        a = latency_histogram()
        b = latency_histogram()
        for i, value in enumerate(samples):
            (a if i % 2 else b).observe(value)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.total == combined.total
        # Addition order differs, so the sums agree only to float rounding.
        assert math.isclose(a.sum, combined.sum)

    def test_merge_is_associative(self):
        samples = seeded_samples(300)
        parts = [latency_histogram() for _ in range(3)]
        for i, value in enumerate(samples):
            parts[i % 3].observe(value)
        a, b, c = parts

        left = a.copy().merge(b).merge(c)  # (a + b) + c
        right = b.copy().merge(c)  # a + (b + c)
        right = a.copy().merge(right)
        assert left.counts == right.counts
        assert left.total == right.total
        assert math.isclose(left.sum, right.sum)

    def test_merge_layout_mismatch_raises(self):
        with pytest.raises(ReproError):
            latency_histogram().merge(size_histogram())


class TestFamilies:
    def test_counter_and_gauge(self):
        registry = MetricRegistry()
        requests = registry.counter("reqs_total", "requests", labelnames=("tenant",))
        requests.labels(tenant="a").inc()
        requests.labels(tenant="a").inc(2)
        requests.labels(tenant="b").inc()
        depth = registry.gauge("queue_depth", "depth")
        depth.labels().set(7)
        assert requests.labels(tenant="a").value == 3
        assert requests.labels(tenant="b").value == 1
        assert depth.labels().value == 7

    def test_get_or_create_returns_same_family(self):
        registry = MetricRegistry()
        first = registry.counter("c_total", "help", labelnames=("x",))
        second = registry.counter("c_total", "help", labelnames=("x",))
        assert first is second

    def test_schema_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("c_total", "help", labelnames=("x",))
        with pytest.raises(ReproError):
            registry.gauge("c_total", "help", labelnames=("x",))
        with pytest.raises(ReproError):
            registry.counter("c_total", "help", labelnames=("y",))

    def test_wrong_label_names_raise(self):
        registry = MetricRegistry()
        family = registry.counter("c_total", "help", labelnames=("tenant",))
        with pytest.raises(ReproError):
            family.labels(nope="x")
        with pytest.raises(ReproError):
            family.labels()


class TestExports:
    def build(self):
        registry = MetricRegistry()
        registry.counter("reqs_total", "requests", labelnames=("tenant",)).labels(
            tenant="acme"
        ).inc(5)
        registry.gauge("depth", "queue depth").labels().set(2.5)
        hist = registry.histogram(
            "lat_seconds", "latency", labelnames=("tenant",)
        ).labels(tenant="acme")
        for value in (0.001, 0.01, 0.01, 0.1, 2.0):
            hist.observe(value)
        return registry

    def test_prometheus_exposition_shape(self):
        text = self.build().to_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert '# HELP lat_seconds latency' in text
        assert 'reqs_total{tenant="acme"} 5' in text
        assert "depth 2.5" in text
        assert 'lat_seconds_bucket{tenant="acme",le="+Inf"} 5' in text
        assert 'lat_seconds_count{tenant="acme"} 5' in text

    def test_prometheus_round_trips_through_slo_report(self):
        registry = self.build()
        from repro.tools.slo_report import parse_prometheus

        parsed = parse_prometheus(registry.to_prometheus())
        document = registry.to_dict()
        assert set(parsed) == set(document)
        for name, family in document.items():
            assert parsed[name]["type"] == family["type"]
            assert parsed[name]["help"] == family["help"]
            for sample, round_tripped in zip(
                family["samples"], parsed[name]["samples"]
            ):
                assert round_tripped["labels"] == sample["labels"]
                if family["type"] == "histogram":
                    assert round_tripped["count"] == sample["count"]
                    assert round_tripped["sum"] == sample["sum"]
                    # Cumulative bucket counts survive (le keys are
                    # formatted differently, and the exposition always
                    # carries the mandatory +Inf row).
                    expected = list(sample["buckets"].values())
                    if "+Inf" not in sample["buckets"]:
                        expected.append(sample["count"])
                    assert list(round_tripped["buckets"].values()) == expected
                else:
                    assert round_tripped["value"] == sample["value"]

    def test_to_dict_histogram_buckets_are_cumulative(self):
        document = self.build().to_dict()
        buckets = document["lat_seconds"]["samples"][0]["buckets"]
        counts = list(buckets.values())
        assert counts == sorted(counts)
        assert counts[-1] == 5
