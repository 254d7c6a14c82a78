"""Unit tests for the flight recorder itself (repro.core.trace).

The serving-path integration (bit-identity, off-knob inertness) lives in
tests/test_determinism.py; here the recorder's own guarantees are pinned:
it only appends (a span is written once, when it ends, from a start the
caller kept), the ring is its whole memory bound, and exporter
round-trips.  The telemetry sampler's timer is a ``PeriodicService``
(tests/test_periodic_service.py).
"""

import json

import pytest

from repro.core import trace as trace_module
from repro.core.trace import TraceRecorder
from repro.sim import Simulator


def make_recorder(max_events=10):
    """A recorder whose ring holds ``max_events``: it reads
    ``TRACE_MAX_EVENTS`` when built."""
    sim = Simulator(seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "TRACE_MAX_EVENTS", max_events)
        return sim, TraceRecorder(sim)


# -- spans & ring buffer ------------------------------------------------------


def test_complete_records_duration_on_virtual_clock():
    sim, trace = make_recorder()
    sim.run_until_complete(sim.sleep(0.25))
    trace.complete("queue:forward", "queue", 0.0, shard=0, inferlet="i-1", args={"tokens": 4})
    (event,) = trace.events()
    assert event["name"] == "queue:forward"
    assert event["ts"] == 0.0
    assert event["dur"] == 0.25
    assert event["args"] == {"tokens": 4}


def test_complete_takes_an_explicit_end():
    _, trace = make_recorder()
    trace.complete("kvlink:0->1", "net", 1.0, end=1.5, args={"bytes": 8})
    (event,) = trace.events()
    assert (event["ts"], event["dur"]) == (1.0, 0.5)


def test_the_recorder_holds_nothing_outside_its_ring():
    """The recorder only appends: no begin/end pair, no side table.  A
    span is written at its end, so eviction drops whole spans, oldest
    written first, and ``dropped`` counts them like any other event."""
    sim, trace = make_recorder(max_events=5)
    for name in ("begin", "end", "open_spans", "_open"):
        assert not hasattr(trace, name), name
    for index in range(50):
        trace.instant(f"tick{index}", "sched")
    assert len(trace.events()) == 5  # ring is full...
    assert trace.dropped == 45
    sim.run_until_complete(sim.sleep(2.0))
    # ...and a long span started before every tick still lands whole.
    trace.complete("inferlet", "lifecycle", 0.0, inferlet="survivor")
    assert len(trace.events()) == 5 and trace.dropped == 46
    closed = trace.events()[-1]
    assert (closed["inferlet"], closed["ts"], closed["dur"]) == ("survivor", 0.0, 2.0)
    assert [event["name"] for event in trace.events()[:-1]] == [
        f"tick{index}" for index in range(46, 50)
    ]


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


def test_jsonl_export_writes_every_event_once(tmp_path):
    sim, trace = make_recorder()
    trace.instant("swap_out", "swap", shard=0, inferlet="i-2", args={"pages": 3})
    trace.complete("inferlet", "lifecycle", 0.0, inferlet="i-2", args={"status": "finished"})
    path = tmp_path / "t.jsonl"
    count = trace.export(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert count == len(lines) == 2
    assert [event["name"] for event in lines] == ["swap_out", "inferlet"]
    assert lines[1]["args"] == {"status": "finished"}


def test_perfetto_export_structure(tmp_path):
    sim, trace = make_recorder()
    sim.run_until_complete(sim.sleep(0.002))
    trace.complete("queue:forward", "queue", 0.0, shard=1, inferlet="i-1")
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
