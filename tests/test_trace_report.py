"""Stall attribution: the phase timeline (repro.core.timeline) and the
report over its spans (repro.tools.trace_report).

Timelines driven by hand pin the attribution semantics: overlaps resolve by
rank (swap > transfer > relaunch > prefill > decode > compute > queue >
admission) whatever order the facts arrive in, idle time splits into
decode-gap and other, an aborted inferlet's row is flagged, chunked-prefill
waits tile with their slices, what runs past the exit is clipped there, a
refused launch is a zero-length row — and the buckets partition
launch-to-exit latency exactly.  Each closed timeline goes through the real
tracer into spans and back through ``attribute_stalls``.  A final test
round-trips a real traced cluster run through both exporters.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.timeline import (
    COMPUTE,
    DECODE,
    PREFILL,
    QUEUE,
    RELAUNCH,
    SWAP,
    Timeline,
    TimelineKeeper,
)
from repro.core.trace import LifecycleTracer, TraceRecorder
from repro.tools.trace_report import (
    ATTRIBUTION_BUCKETS,
    attribute_stalls,
    build_report,
    load_events,
    render_report,
)


def closed(timeline, finish, inferlet="i-1", status="finished"):
    """Close ``timeline`` at ``finish`` and write it as the tracer does;
    returns (buckets, the trace's events)."""
    launched_at = timeline.marks[0][0]
    buckets = timeline.close(finish)
    recorder = TraceRecorder(SimpleNamespace(now=finish))
    instance = SimpleNamespace(
        instance_id=inferlet,
        program=SimpleNamespace(name="p"),
        tenant="default",
        status=status,
        metrics=SimpleNamespace(launched_at=launched_at),
        timeline=timeline,
    )
    LifecycleTracer(recorder).note_finished(instance)
    return buckets, recorder.events()


def row_of(timeline, finish, **kwargs):
    buckets, events = closed(timeline, finish, **kwargs)
    (row,) = attribute_stalls(events).values()
    assert row["buckets"] == buckets
    assert math.isclose(sum(buckets.values()), row["latency"], rel_tol=0, abs_tol=1e-9)
    return row


def running(launch=0.0, admitted=None):
    timeline = Timeline(launch)
    timeline.admitted(launch if admitted is None else admitted)
    return timeline


def test_simple_timeline_buckets():
    timeline = running(admitted=0.1)
    timeline.dispatched(0.3, 0.1, PREFILL)  # a forward waited from 0.1
    timeline.done(0.6, 0.3, PREFILL)
    timeline.dispatched(0.7, 0.7, DECODE)
    timeline.done(0.9, 0.7, DECODE)
    row = row_of(timeline, 1.0)
    buckets = row["buckets"]
    assert buckets["admission"] == pytest.approx(0.1)
    assert buckets["queue"] == pytest.approx(0.2)
    assert buckets["prefill"] == pytest.approx(0.3)
    assert buckets["decode"] == pytest.approx(0.2)
    # 0.6..0.7 is idle *between* executions -> decode_gap; 0.9..1.0 is
    # after the last execution -> other.
    assert buckets["decode_gap"] == pytest.approx(0.1)
    assert buckets["other"] == pytest.approx(0.1)
    assert timeline.marks is None and len(timeline.closed) == 6


def test_ranks_decide_overlaps_in_any_order():
    """Live execs of three kinds, then windows over them: each instant goes
    to the strongest, and a window never takes a stronger segment."""
    timeline = running()
    timeline.dispatched(0.0, 0.0, COMPUTE)
    timeline.dispatched(0.1, 0.1, DECODE)
    timeline.dispatched(0.2, 0.2, PREFILL)
    timeline.done(0.3, 0.2, PREFILL)
    timeline.done(0.4, 0.1, DECODE)
    timeline.done(0.5, 0.0, COMPUTE)
    timeline.window(0.0, 0.5, QUEUE)  # outranks nothing here
    timeline.window(0.25, 0.6, RELAUNCH)  # outranks every exec
    buckets = row_of(timeline, 0.6)["buckets"]
    assert buckets["compute"] == pytest.approx(0.1)
    assert buckets["decode"] == pytest.approx(0.1)
    assert buckets["prefill"] == pytest.approx(0.05)
    assert buckets["relaunch"] == pytest.approx(0.35)
    assert buckets["queue"] == buckets["other"] == 0.0


def test_overlapping_swap_and_queue_spans_resolve_by_priority():
    """An inferlet can sit in a command queue while its pages fault in from
    host memory; the overlap counts once, as swap (the stronger claim),
    whichever window is written first."""
    timeline = running()
    timeline.window(0.2, 0.6, SWAP)  # the stall ends at 0.6 ...
    timeline.window(0.0, 0.8, QUEUE)  # ... the wait around it at 0.8
    buckets = row_of(timeline, 1.0)["buckets"]
    assert buckets["swap"] == pytest.approx(0.4)
    assert buckets["queue"] == pytest.approx(0.4)  # 0.8 minus overlap
    assert buckets["other"] == pytest.approx(0.2)

    rows = []
    for order in ((SWAP, QUEUE), (QUEUE, SWAP)):  # both end at 0.8
        timeline = running()
        for phase in order:
            timeline.window(0.2 if phase == SWAP else 0.0, 0.8, phase)
        rows.append(row_of(timeline, 1.0)["buckets"])
    assert rows[0] == rows[1]
    assert rows[0]["swap"] == pytest.approx(0.6)
    assert rows[0]["queue"] == pytest.approx(0.2)


def test_transfer_outranks_exec_and_queue():
    timeline = running()
    timeline.dispatched(0.0, 0.0, PREFILL)
    timeline.transfer(0.4, 0.8)  # a KV stream landing in the future
    timeline.done(0.6, 0.0, PREFILL)
    timeline.window(0.7, 1.0, QUEUE)
    buckets = row_of(timeline, 1.0)["buckets"]
    assert buckets["prefill"] == pytest.approx(0.4)
    assert buckets["transfer"] == pytest.approx(0.4)
    assert buckets["queue"] == pytest.approx(0.2)


def test_aborted_inferlet_open_lifecycle_span():
    """A terminated inferlet's row covers launch -> abort and is flagged."""
    timeline = running(admitted=0.1)
    timeline.window(0.1, 0.5, QUEUE)  # its pending command, drained at teardown
    row = row_of(timeline, 0.5, status="terminated")
    assert row["aborted"] is True
    assert row["status"] == "terminated"
    assert row["latency"] == pytest.approx(0.5)
    assert row["buckets"]["admission"] == pytest.approx(0.1)
    assert row["buckets"]["queue"] == pytest.approx(0.4)


def test_chunked_prefill_residual_queue_spans():
    """Each slice's dispatch ends the wait it inherited and the residual's
    next wait starts there: alternating waits and slices tile with no
    double counting."""
    timeline = running()
    t = 0.0
    for _ in range(3):  # three slices: wait 0.1, execute 0.2
        timeline.dispatched(t + 0.1, t, PREFILL)
        timeline.done(t + 0.3, t + 0.1, PREFILL)
        t += 0.3
    buckets = row_of(timeline, 1.0)["buckets"]
    assert buckets["queue"] == pytest.approx(0.3)
    assert buckets["prefill"] == pytest.approx(0.6)
    assert buckets["other"] == pytest.approx(0.1)  # tail after last slice


def test_spans_clipped_to_lifecycle_window():
    """What runs past the exit — an exec or a transfer still in flight, a
    wait that ends after it — counts only up to the exit."""
    timeline = running()
    timeline.dispatched(0.0, 0.0, PREFILL)
    timeline.done(0.2, 0.0, PREFILL)
    timeline.dispatched(0.3, 0.3, DECODE)  # still running at the exit
    timeline.transfer(0.4, 0.7)
    row = row_of(timeline, 0.5)
    assert row["latency"] == pytest.approx(0.5)
    assert row["buckets"]["decode"] == pytest.approx(0.1)
    assert row["buckets"]["transfer"] == pytest.approx(0.1)
    # 0.2..0.3 lies before the in-flight exec's start: between executions.
    assert row["buckets"]["decode_gap"] == pytest.approx(0.1)
    # An exec dispatched at the exit instant has no length: the idle time
    # before it follows the last execution.
    timeline = running()
    timeline.dispatched(0.0, 0.0, PREFILL)
    timeline.done(0.2, 0.0, PREFILL)
    timeline.dispatched(0.5, 0.5, DECODE)
    buckets = row_of(timeline, 0.5)["buckets"]
    assert (buckets["prefill"], buckets["other"], buckets["decode_gap"]) == (0.2, 0.3, 0.0)

    sim = SimpleNamespace(now=0.0)
    keeper = TimelineKeeper(sim)
    instance = SimpleNamespace(instance_id="i-2", metrics=SimpleNamespace(launched_at=0.0))
    keeper.note_launch_requested(instance)
    keeper.note_running(instance)
    sim.now = 0.5
    keeper.note_finished(instance)
    sim.now = 0.7  # a command issued before the exit, dropped after it
    keeper.note_dropped(0, SimpleNamespace(inferlet_id="i-2", issue_time=0.4))
    assert instance.metrics.stall_buckets["other"] == 0.5
    assert [bucket for _, _, bucket in instance.timeline.closed] == ["other"]


def test_phase_spans_without_a_lifecycle_make_no_row():
    """Rows are the lifecycle spans: phase spans whose lifecycle span is
    missing (a partial trace) are left out."""
    timeline = running()
    _, events = closed(timeline, 1.0)
    assert [e["name"] for e in events] == ["inferlet", "other"]
    assert attribute_stalls(events[1:]) == {}


def test_report_summary_and_render():
    a = running()
    a.dispatched(0.0, 0.0, DECODE)
    a.done(1.0, 0.0, DECODE)
    b = running()
    b.window(0.0, 3.0, QUEUE)
    events = closed(a, 1.0, inferlet="a")[1] + closed(b, 3.0, inferlet="b", status="terminated")[1]
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
    """A launch refused at admission closes its timeline at launch: a
    zero-length row (status ``rejected``) with no phase span; the summary
    counts it beside the aborted ones and the fleet percentiles stay those
    of the inferlets that were let in."""
    a = running()
    a.dispatched(0.0, 0.0, DECODE)
    a.done(1.0, 0.0, DECODE)
    served = closed(a, 1.0, inferlet="a")[1]
    refused_buckets, refused = closed(Timeline(0.5), 0.5, inferlet="b", status="rejected")
    assert [e["name"] for e in refused] == ["inferlet"]
    assert set(refused_buckets.values()) == {0.0}
    before = build_report(served)
    after = build_report(served + refused)
    assert after["inferlets"]["b"]["latency"] == 0.0
    summary = after["summary"]
    assert (summary["inferlets"], summary["aborted"], summary["rejected"]) == (2, 0, 1)
    assert summary["latency"] == before["summary"]["latency"] == {"p50": 1.0, "p99": 1.0}
    assert summary["buckets"] == before["summary"]["buckets"]
    assert "2 inferlets (0 aborted, 1 rejected), latency p50 1000.00 ms" in render_report(after)


def test_real_trace_round_trips_through_both_exporters(tmp_path):
    """A traced cluster run exports to JSONL and Perfetto JSON; both load
    back into identical attribution reports, every finished inferlet's
    buckets sum to its launch->finish latency, and the JSONL report's
    buckets are the ones the core kept."""
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
        assert row["buckets"] == server.metrics.per_inferlet[inferlet].stall_buckets
        for each in (row, other):
            total = sum(each["buckets"].values())
            assert math.isclose(total, each["latency"], rel_tol=0, abs_tol=1e-9)
