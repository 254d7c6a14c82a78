"""Stall attribution over flight-recorder traces.

Reads a trace exported by :class:`repro.core.trace.TraceRecorder` — the
JSONL event log or the Chrome/Perfetto ``trace_event`` document — and
reports, per inferlet, where its launch-to-exit latency went.  The core
keeps that answer as it serves (``repro.core.timeline``, which states the
ranking rule): when an inferlet leaves, the recorder writes its lifecycle
span and one span per segment of its closed phase timeline, named by the
bucket, and this tool sums them.  The buckets: ``swap`` (faulting in from
host memory), ``transfer`` (KV streams, handoff stalls), ``relaunch`` (a
shard crash to the re-materialization), ``prefill`` / ``decode`` /
``compute`` (on a device), ``queue`` (commands waiting for dispatch),
``admission`` (launch handling, the launch gate), and idle time:
``decode_gap`` between the first execution's end and the last one's start
(think time, tool calls, round trips), ``other`` outside it.  They sum to
the latency; an untraced run carries the same totals on
``InferletMetrics.stall_buckets``.

Usage::

    python -m repro.tools.trace_report trace.jsonl
    python -m repro.tools.trace_report trace.json --json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from repro.core.metrics import percentile
from repro.core.timeline import BUCKETS

__all__ = [
    "ATTRIBUTION_BUCKETS", "load_events", "attribute_stalls", "build_report", "render_report", "main"
]  # fmt: skip

#: Every bucket a report row contains, in presentation order.
ATTRIBUTION_BUCKETS = BUCKETS


# -- loading ----------------------------------------------------------------


def load_events(path: str) -> List[dict]:
    """Load trace events from a JSONL log or a Perfetto JSON document.

    Returns events in the recorder's native shape (virtual-time seconds,
    ``shard`` / ``inferlet`` fields); Perfetto documents are converted
    back using their process/thread metadata.
    """
    with open(path, "r", encoding="utf-8") as handle:
        if str(path).endswith(".jsonl"):
            return [json.loads(line) for line in handle if line.strip()]
        document = json.load(handle)
    # A bare trace_event array is the document's other flavour.
    trace_events = document if isinstance(document, list) else document.get("traceEvents", [])
    thread_names: Dict[int, str] = {}
    for event in trace_events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            thread_names[event["tid"]] = event.get("args", {}).get("name")
    events = []
    for event in trace_events:
        ph = event.get("ph")
        if ph not in ("X", "i", "C"):
            continue
        pid = event.get("pid", 0)
        args = event.get("args") or {}
        converted = {
            "ph": ph,
            "name": event.get("name"),
            "cat": event.get("cat"),
            "ts": event.get("ts", 0.0) / 1e6,
            "shard": None if pid == 0 else pid - 1,
            "inferlet": thread_names.get(event.get("tid", 0)),
            "args": args,
        }
        if ph == "X":
            converted["dur"] = event.get("dur", 0.0) / 1e6
        if "span_id" in args:
            converted["id"] = args["span_id"]
        events.append(converted)
    return events


# -- attribution ------------------------------------------------------------


def attribute_stalls(events: List[dict]) -> Dict[str, dict]:
    """Per-inferlet latency attribution; keys are inferlet ids.

    One row per lifecycle span: ``launch`` / ``finish`` / ``latency``
    (seconds), ``status``, ``aborted`` (the inferlet ended terminated or
    failed), and ``buckets`` — a dict over :data:`ATTRIBUTION_BUCKETS`, the
    summed durations of the inferlet's phase spans.
    """
    rows: Dict[str, dict] = {}
    phases: List[dict] = []
    for event in events:
        if event.get("inferlet") is None or event.get("ph") != "X":
            continue
        if event.get("cat") != "lifecycle":
            phases.append(event)
        elif event["inferlet"] not in rows:
            launch = event["ts"]
            finish = launch + event.get("dur", 0.0)
            status = (event.get("args") or {}).get("status")
            rows[event["inferlet"]] = {
                "launch": launch,
                "finish": finish,
                "latency": finish - launch,
                "status": status,
                "aborted": status in ("terminated", "failed"),
                "buckets": dict.fromkeys(ATTRIBUTION_BUCKETS, 0.0),
            }
    for event in phases:
        row = rows.get(event["inferlet"])
        if row is not None and event["name"] in row["buckets"]:
            row["buckets"][event["name"]] += event.get("dur", 0.0)
    return dict(sorted(rows.items()))


# -- reporting --------------------------------------------------------------


def build_report(events: List[dict]) -> dict:
    """Attribution rows plus fleet-level percentile summaries.

    A launch refused at admission is a zero-length row: it is counted under
    ``rejected`` and kept out of every percentile, which describe the
    inferlets that were let in."""
    rows = attribute_stalls(events)
    admitted = [row for row in rows.values() if row["status"] != "rejected"]
    latencies = [row["latency"] for row in admitted]
    summary = {
        "inferlets": len(rows),
        "aborted": sum(1 for row in rows.values() if row["aborted"]),
        "rejected": len(rows) - len(admitted),
        "latency": {
            "p50": percentile(latencies, 50.0),
            "p99": percentile(latencies, 99.0),
        },
        "buckets": {},
    }
    for name in ATTRIBUTION_BUCKETS:
        samples = [row["buckets"][name] for row in admitted]
        summary["buckets"][name] = {
            "total": sum(samples),
            "p50": percentile(samples, 50.0),
            "p99": percentile(samples, 99.0),
        }
    return {"inferlets": rows, "summary": summary}


def render_report(report: dict) -> str:
    """Human-readable table of the attribution report."""
    rows = report["inferlets"]
    summary = report["summary"]
    columns = ("latency",) + ATTRIBUTION_BUCKETS
    header = f"{'inferlet':<24} {'status':<10}" + "".join(
        f" {name:>10}" for name in columns
    )
    lines = [header, "-" * len(header)]
    for inferlet, row in rows.items():
        cells = [row["latency"]] + [row["buckets"][name] for name in ATTRIBUTION_BUCKETS]
        status = (row["status"] or "?") + ("*" if row["aborted"] else "")
        lines.append(
            f"{inferlet:<24} {status:<10}"
            + "".join(f" {cell * 1e3:>9.2f}m" for cell in cells)
        )
    lines.append("")
    lines.append(
        f"{summary['inferlets']} inferlets ({summary['aborted']} aborted, "
        f"{summary['rejected']} rejected), "
        f"latency p50 {summary['latency']['p50'] * 1e3:.2f} ms / "
        f"p99 {summary['latency']['p99'] * 1e3:.2f} ms"
    )
    for name in ATTRIBUTION_BUCKETS:
        bucket = summary["buckets"][name]
        if bucket["total"] <= 0.0:
            continue
        lines.append(
            f"  {name:<12} total {bucket['total'] * 1e3:9.2f} ms   "
            f"p50 {bucket['p50'] * 1e3:8.2f} ms   p99 {bucket['p99'] * 1e3:8.2f} ms"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_report",
        description="Per-inferlet stall attribution over a flight-recorder trace.",
    )
    parser.add_argument("trace", help="trace file (.jsonl event log or Perfetto .json)")
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of a table"
    )
    options = parser.parse_args(argv)
    report = build_report(load_events(options.trace))
    if options.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
