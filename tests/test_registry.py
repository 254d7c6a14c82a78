"""The log-bucketed histograms and the metric document the monitor writes
from them."""

import math

import pytest

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core.metrics import percentile
from repro.core.registry import (
    DEFAULT_GROWTH,
    LogHistogram,
    latency_histogram,
    size_histogram,
)
from repro.errors import ReproError
from repro.sim import Simulator
from repro.support import Context, SamplingParams


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


class TestExports:
    """The monitor's ``metrics`` block, written straight from the records."""

    @pytest.fixture(scope="class")
    def served(self):
        sim = Simulator(seed=5)
        server = PieServer(
            sim, num_devices=2, tenants=(TenantSpec(name="zeta"), TenantSpec(name="acme"))
        )

        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("an exported prompt ")
            await context.generate_until(max_tokens=4)
            context.free()

        server.register_program(InferletProgram(name="probe", main=main))

        async def fleet():
            for index in range(5):
                await server.run_inferlet("probe", tenant=("zeta", "acme")[index % 2])

        sim.run_until_complete(fleet())
        sim.run()
        return server, server.export_metrics()["metrics"]

    def test_to_dict_histogram_buckets_are_cumulative(self, served):
        server, metrics = served
        for name, field in (("pie_ttft_seconds", "ttft"), ("pie_tpot_seconds", "tpot")):
            for sample in metrics[name]["samples"]:
                counts = list(sample["buckets"].values())
                assert counts == sorted(counts)
                record = server.metrics.tenants[sample["labels"]["tenant"]]
                assert counts[-1] == sample["count"] == getattr(record, field).total > 0
                assert sample == {"labels": sample["labels"], **getattr(record, field).to_dict()}

    def test_type_and_help(self, served):
        _, metrics = served
        assert list(metrics) == sorted(metrics)
        histograms = {"pie_ttft_seconds", "pie_tpot_seconds"}
        counters = {"pie_offered_total", "pie_good_total", "pie_requests_total"}
        for name, family in metrics.items():
            assert set(family) == {"type", "help", "samples"}, name
            kind = "histogram" if name in histograms else "counter" if name in counters else "gauge"
            assert family["type"] == kind, name
        assert metrics["pie_system_commands_dropped"]["help"] == "SystemMetrics.commands_dropped"
        assert metrics["pie_tenant_output_tokens"]["help"] == "TenantMetrics.output_tokens"
        assert metrics["pie_shard_forward_yields"]["help"] == "SchedulerStats.forward_yields"
        assert metrics["pie_shard_kv_occupancy"]["help"] == "Fraction of GPU KV pages in use"
        assert metrics["pie_ttft_seconds"]["help"] == "Time to first token per tenant"

    def test_label_dicts_and_sample_order(self, served):
        server, metrics = served
        labels = lambda name: [s["labels"] for s in metrics[name]["samples"]]  # noqa: E731
        assert labels("pie_system_inferlets_finished") == [{}]
        # Tenants in record order (configured first), not by name.
        assert list(server.metrics.tenants)[:2] == ["zeta", "acme"]
        tenants = [{"tenant": name} for name in server.metrics.tenants]
        assert labels("pie_tenant_output_tokens") == tenants
        assert labels("pie_offered_total") == labels("pie_ttft_seconds") == tenants[:2]
        assert labels("pie_requests_total") == [
            {"tenant": "zeta", "status": "finished"},
            {"tenant": "acme", "status": "finished"},
        ]
        assert labels("pie_shard_queue_depth") == [
            {"model": server.service().entry.name, "shard": "0"},
            {"model": server.service().entry.name, "shard": "1"},
        ]
        assert [s["value"] for s in metrics["pie_offered_total"]["samples"]] == [3.0, 2.0]
        for name, family in metrics.items():
            if family["type"] != "histogram":
                assert all(type(s["value"]) is float for s in family["samples"]), name
