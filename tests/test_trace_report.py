"""Stall-attribution tests for repro.tools.trace_report.

Synthetic event streams pin the attribution semantics: overlap resolution
by fixed priority (swap > transfer > prefill > decode > compute > queue >
admission), decode-gap vs other classification of uncovered time, aborted
inferlets (open lifecycle spans), chunked-prefill residual queue spans —
and the invariant that the buckets partition launch-to-finish latency
exactly.  A final test round-trips a real traced cluster run through both
exporters.
"""

import math

import pytest

from repro.tools.trace_report import (
    ATTRIBUTION_BUCKETS,
    attribute_stalls,
    build_report,
    load_events,
    render_report,
)


def span(name, cat, ts, dur, inferlet="i-1", shard=0, args=None):
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": ts,
        "dur": dur,
        "shard": shard,
        "inferlet": inferlet,
        "args": args,
    }


def lifecycle(ts, dur, inferlet="i-1", status="finished"):
    return span("inferlet", "lifecycle", ts, dur, inferlet=inferlet, args={"status": status})


def assert_partitions(row):
    assert math.isclose(
        sum(row["buckets"].values()), row["latency"], rel_tol=0, abs_tol=1e-9
    )


def test_simple_timeline_buckets():
    events = [
        lifecycle(0.0, 1.0),
        span("launch", "admission", 0.0, 0.1),
        span("queue:forward", "queue", 0.1, 0.2),
        span("prefill", "exec", 0.3, 0.3),
        span("decode", "exec", 0.7, 0.2),
    ]
    rows = attribute_stalls(events)
    row = rows["i-1"]
    buckets = row["buckets"]
    assert buckets["admission"] == pytest.approx(0.1)
    assert buckets["queue"] == pytest.approx(0.2)
    assert buckets["prefill"] == pytest.approx(0.3)
    assert buckets["decode"] == pytest.approx(0.2)
    # 0.6..0.7 is uncovered *between* executions -> decode_gap; 0.9..1.0 is
    # after the last execution -> other.
    assert buckets["decode_gap"] == pytest.approx(0.1)
    assert buckets["other"] == pytest.approx(0.1)
    assert_partitions(row)


def test_overlapping_swap_and_queue_spans_resolve_by_priority():
    """An inferlet can sit in a command queue while its pages fault in from
    host memory; the overlap counts once, as swap (the stronger claim)."""
    events = [
        lifecycle(0.0, 1.0),
        span("queue:forward", "queue", 0.0, 0.8),
        span("swap_stall", "swap", 0.2, 0.4),
    ]
    row = attribute_stalls(events)["i-1"]
    assert row["buckets"]["swap"] == pytest.approx(0.4)
    assert row["buckets"]["queue"] == pytest.approx(0.4)  # 0.8 minus overlap
    assert row["buckets"]["other"] == pytest.approx(0.2)
    assert_partitions(row)


def test_transfer_outranks_exec_and_queue():
    events = [
        lifecycle(0.0, 1.0),
        span("prefill", "exec", 0.0, 0.6),
        span("kv_stream", "transfer", 0.4, 0.4, args={"pages": 8}),
        span("queue:forward", "queue", 0.7, 0.3),
    ]
    row = attribute_stalls(events)["i-1"]
    assert row["buckets"]["prefill"] == pytest.approx(0.4)
    assert row["buckets"]["transfer"] == pytest.approx(0.4)
    assert row["buckets"]["queue"] == pytest.approx(0.2)
    assert_partitions(row)


def test_aborted_inferlet_open_lifecycle_span():
    """A terminated inferlet exports an open lifecycle span (args.open);
    attribution still covers launch -> abort and flags the row."""
    events = [
        lifecycle(0.0, 0.5, status="terminated"),
        span("launch", "admission", 0.0, 0.1, args={"aborted": True}),
        span("queue:forward", "queue", 0.1, 0.4, args={"dropped": True}),
    ]
    row = attribute_stalls(events)["i-1"]
    assert row["aborted"] is True
    assert row["status"] == "terminated"
    assert row["latency"] == pytest.approx(0.5)
    assert row["buckets"]["admission"] == pytest.approx(0.1)
    assert row["buckets"]["queue"] == pytest.approx(0.4)
    assert_partitions(row)


def test_chunked_prefill_residual_queue_spans():
    """Chunked prefill ends the parent's queue span at each slice dispatch
    and opens a fresh one for the residual: alternating queue/prefill spans
    must attribute cleanly with no double counting."""
    events = [lifecycle(0.0, 1.0)]
    t = 0.0
    for _ in range(3):  # three slices: wait 0.1, execute 0.2
        events.append(span("queue:forward", "queue", t, 0.1, args={"residual_tokens": 16}))
        events.append(span("prefill", "exec", t + 0.1, 0.2, args={"tokens": 16}))
        t += 0.3
    row = attribute_stalls(events)["i-1"]
    assert row["buckets"]["queue"] == pytest.approx(0.3)
    assert row["buckets"]["prefill"] == pytest.approx(0.6)
    assert row["buckets"]["other"] == pytest.approx(0.1)  # tail after last slice
    assert_partitions(row)


def test_spans_clipped_to_lifecycle_window():
    """Spans leaking past the lifecycle window (e.g. a queue span closed by
    cleanup after the finish timestamp) are clipped, not double counted."""
    events = [
        lifecycle(0.0, 0.5),
        span("queue:forward", "queue", 0.4, 0.3),  # runs past finish
        span("prefill", "exec", 0.0, 0.2),
    ]
    row = attribute_stalls(events)["i-1"]
    assert row["buckets"]["queue"] == pytest.approx(0.1)
    assert row["latency"] == pytest.approx(0.5)
    assert_partitions(row)


def test_missing_lifecycle_falls_back_to_span_extent():
    events = [
        span("queue:forward", "queue", 1.0, 0.5),
        span("decode", "exec", 1.5, 0.5),
    ]
    row = attribute_stalls(events)["i-1"]
    assert row["status"] is None
    assert row["launch"] == pytest.approx(1.0)
    assert row["finish"] == pytest.approx(2.0)
    assert_partitions(row)


def test_report_summary_and_render():
    events = [
        lifecycle(0.0, 1.0, inferlet="a"),
        span("decode", "exec", 0.0, 1.0, inferlet="a"),
        lifecycle(0.0, 3.0, inferlet="b", status="terminated"),
        span("queue:forward", "queue", 0.0, 3.0, inferlet="b"),
    ]
    report = build_report(events)
    summary = report["summary"]
    assert summary["inferlets"] == 2
    assert summary["aborted"] == 1
    assert summary["latency"]["p50"] == pytest.approx(1.0)
    assert summary["latency"]["p99"] == pytest.approx(3.0)
    assert summary["buckets"]["decode"]["total"] == pytest.approx(1.0)
    assert summary["buckets"]["queue"]["total"] == pytest.approx(3.0)
    text = render_report(report)
    assert "terminated*" in text  # aborted marker
    for bucket in ATTRIBUTION_BUCKETS:
        assert bucket in text


def test_a_refused_launch_moves_no_percentile():
    """A launch refused at admission leaves a zero-length lifecycle row
    (status ``rejected``): the summary counts it beside the aborted ones and
    the fleet percentiles stay those of the inferlets that were let in."""
    served = [
        lifecycle(0.0, 1.0, inferlet="a"),
        span("decode", "exec", 0.0, 1.0, inferlet="a"),
    ]
    refused = lifecycle(0.5, 0.0, inferlet="b", status="rejected")
    before = build_report(served)
    after = build_report(served + [refused])
    assert after["inferlets"]["b"]["latency"] == 0.0
    summary = after["summary"]
    assert (summary["inferlets"], summary["aborted"], summary["rejected"]) == (2, 0, 1)
    assert summary["latency"] == before["summary"]["latency"] == {"p50": 1.0, "p99": 1.0}
    assert summary["buckets"] == before["summary"]["buckets"]
    assert "2 inferlets (0 aborted, 1 rejected), latency p50 1000.00 ms" in render_report(after)


def test_real_trace_round_trips_through_both_exporters(tmp_path):
    """A traced cluster run exports to JSONL and Perfetto JSON; both load
    back into identical attribution reports, and every finished inferlet's
    buckets sum to its launch->finish latency."""
    from repro.bench.runners import make_pie_setup, run_pie_concurrent
    from repro.core.inferlet import InferletProgram
    from repro.support import Context, SamplingParams

    def make_program(index):
        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill(f"trace roundtrip prompt {index} " * 4)
            answer = await context.generate_until(max_tokens=3)
            context.free()
            return answer

        return InferletProgram(name=f"rt{index}", main=main)

    sim, server = make_pie_setup(seed=5, num_devices=2, tracing=True, trace_sample_ms=2.0)
    programs = [make_program(i) for i in range(4)]
    results, _ = run_pie_concurrent(server, programs)
    assert all(r.status == "finished" for r in results)
    jsonl_path = tmp_path / "t.jsonl"
    perfetto_path = tmp_path / "t.json"
    server.export_trace(str(jsonl_path))
    server.export_trace(str(perfetto_path))
    report_jsonl = build_report(load_events(str(jsonl_path)))
    report_perfetto = build_report(load_events(str(perfetto_path)))
    assert set(report_jsonl["inferlets"]) == set(report_perfetto["inferlets"])
    assert len(report_jsonl["inferlets"]) == 4
    for inferlet, row in report_jsonl["inferlets"].items():
        other = report_perfetto["inferlets"][inferlet]
        assert row["latency"] == pytest.approx(other["latency"])
        assert row["buckets"]["decode"] == pytest.approx(other["buckets"]["decode"])
        assert row["latency"] > 0.0
        assert_partitions(row)
        assert_partitions(other)
