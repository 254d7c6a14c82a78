"""Benchmark for the flight recorder (observability, beyond the paper).

Runs the disaggregated-cluster workload with tracing off and on, asserting
the recorder's two contracts — it changes nothing the simulation can
observe, and its exported Perfetto trace is well-formed and attributable —
and records the host-side recording overhead (wall-clock on vs off) in
``BENCH_tracing.json``.  The exported trace itself is left at the repo
root (``trace_disaggregation.json``) so CI can archive it next to the
perf artifacts.
"""

import json
import math
from pathlib import Path

from repro.bench.experiments import tracing as experiment

TRACE_ARTIFACT = Path(__file__).resolve().parents[1] / "trace_disaggregation.json"


def test_tracing(run_experiment, write_artifact):
    result = run_experiment(experiment, trace_path=str(TRACE_ARTIFACT))
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"tracing_off", "tracing_on"}

    # Contract 1: the recorder observes without perturbing.  Virtual time
    # and every emitted token are identical with tracing on.
    assert result.raw["identical_elapsed"], result.raw
    assert result.raw["identical_tokens"], result.raw
    assert rows["tracing_on"]["output_tokens"] == rows["tracing_off"]["output_tokens"]
    assert rows["tracing_on"]["goodput_tok_s"] == rows["tracing_off"]["goodput_tok_s"]

    # Contract 2: the export is a loadable Perfetto trace_event document
    # with real span content from a disagg+chunked cluster run.
    document = json.loads(TRACE_ARTIFACT.read_text())
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in events}
    assert {"X", "M", "C"} <= phases
    categories = {event.get("cat") for event in events if event["ph"] == "X"}
    for cat in ("lifecycle", "queue", "exec", "transfer", "sched"):
        assert cat in categories, cat
    process_names = {
        event["args"]["name"] for event in events if event.get("name") == "process_name"
    }
    assert "control-plane" in process_names
    assert any(name.startswith("shard") for name in process_names)

    # Attribution is a partition: per-inferlet buckets sum to the
    # launch-to-finish latency (within rounding) for every inferlet.
    from repro.tools.trace_report import build_report, load_events

    report = build_report(load_events(str(TRACE_ARTIFACT)))
    assert report["summary"]["inferlets"] > 0
    for inferlet, row in report["inferlets"].items():
        total = sum(row["buckets"].values())
        assert math.isclose(total, row["latency"], rel_tol=0, abs_tol=1e-9), inferlet

    head = {
        "wall_off_s": result.raw["wall_off_s"],
        "wall_on_s": result.raw["wall_on_s"],
        "overhead_ratio": result.raw["overhead_ratio"],
        "identical_elapsed": result.raw["identical_elapsed"],
        "identical_tokens": result.raw["identical_tokens"],
        "trace_events": len(events),
        "inferlets_attributed": report["summary"]["inferlets"],
        "latency_p50_ms": report["summary"]["latency"]["p50"] * 1e3,
        "latency_p99_ms": report["summary"]["latency"]["p99"] * 1e3,
    }
    write_artifact("BENCH_tracing.json", head)
