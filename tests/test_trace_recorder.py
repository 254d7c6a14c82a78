"""Unit tests for the flight recorder itself (repro.core.trace).

The serving-path integration (bit-identity, off-knob inertness) lives in
tests/test_determinism.py; here the recorder's own guarantees are pinned:
bounded ring eviction that never orphans a begin/close pair, idempotent
span closing, and exporter round-trips.  The telemetry sampler's timer is a
``PeriodicService`` (tests/test_periodic_service.py).
"""

import json

from repro.core.trace import TraceRecorder
from repro.sim import Simulator


def make_recorder(max_events=10):
    sim = Simulator(seed=1)
    return sim, TraceRecorder(sim, max_events=max_events)


# -- spans & ring buffer ------------------------------------------------------


def test_begin_end_records_duration_on_virtual_clock():
    sim, trace = make_recorder()
    span = trace.begin("queue:forward", "queue", shard=0, inferlet="i-1")
    sim.run_until_complete(sim.sleep(0.25))
    trace.end(span, args={"tokens": 4})
    (event,) = trace.events()
    assert event["name"] == "queue:forward"
    assert event["ts"] == 0.0
    assert event["dur"] == 0.25
    assert event["args"] == {"tokens": 4}
    assert trace.open_spans() == []


def test_end_is_idempotent_and_tolerates_none():
    _, trace = make_recorder()
    span = trace.begin("s", "sched")
    trace.end(span)
    trace.end(span)  # second close: no-op
    trace.end(None)  # cleared span handle: no-op
    trace.end(10**9)  # unknown id: no-op
    assert len(trace.events()) == 1


def test_ring_eviction_keeps_open_spans_out_of_the_ring():
    """Open spans must survive arbitrarily many completed-event evictions:
    a span is either still open, fully present, or fully evicted — never a
    dangling close without its begin."""
    _, trace = make_recorder(max_events=5)
    held = trace.begin("lifecycle", "lifecycle", inferlet="survivor")
    for index in range(50):
        trace.instant(f"tick{index}", "sched")
    assert len(trace.events()) == 5  # ring is full...
    assert trace.dropped == 45
    assert [span["inferlet"] for span in trace.open_spans()] == ["survivor"]
    trace.end(held)  # ...and the old span still closes into the ring
    closed = trace.events()[-1]
    assert closed["inferlet"] == "survivor"
    assert "dur" in closed
    assert trace.open_spans() == []


def test_total_emitted_counts_evicted_events():
    _, trace = make_recorder(max_events=3)
    for _ in range(7):
        trace.instant("x", "sched")
    assert trace.total_emitted == 7
    assert len(trace.events()) == 3
    assert trace.dropped == 4


def test_events_filter_by_category():
    _, trace = make_recorder()
    trace.instant("a", "swap")
    trace.instant("b", "sched")
    trace.counter("telemetry", {"queue_depth": 2}, shard=0)
    assert [e["name"] for e in trace.events("swap")] == ["a"]
    assert [e["name"] for e in trace.events("counter")] == ["telemetry"]


# -- exporters ----------------------------------------------------------------


def test_jsonl_export_includes_open_spans_flagged(tmp_path):
    sim, trace = make_recorder()
    trace.begin("lifecycle", "lifecycle", inferlet="aborted-1")
    trace.instant("swap_out", "swap", shard=0, inferlet="i-2", args={"pages": 3})
    path = tmp_path / "t.jsonl"
    count = trace.export(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert count == len(lines) == 2
    open_events = [e for e in lines if (e.get("args") or {}).get("open")]
    assert [e["inferlet"] for e in open_events] == ["aborted-1"]
    # Exporting is read-only: the span is still open afterwards.
    assert len(trace.open_spans()) == 1


def test_perfetto_export_structure(tmp_path):
    sim, trace = make_recorder()
    span = trace.begin("queue:forward", "queue", shard=1, inferlet="i-1")
    sim.run_until_complete(sim.sleep(0.002))
    trace.end(span)
    trace.counter("telemetry", {"queue_depth": 2.0}, shard=1)
    trace.instant("place", "sched", shard=0, inferlet="i-1")
    path = tmp_path / "t.json"
    trace.export(str(path))
    document = json.loads(path.read_text())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    names = {m["args"]["name"] for m in metadata if m["name"] == "process_name"}
    assert "shard1" in names and "shard0" in names
    (span_event,) = spans
    assert span_event["pid"] == 2  # shard 1 -> pid 2
    assert span_event["dur"] == 0.002 * 1e6  # microseconds
    counters = [e for e in events if e["ph"] == "C"]
    assert counters[0]["args"] == {"queue_depth": 2.0}
