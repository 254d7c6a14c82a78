"""Stall attribution over flight-recorder traces.

Reads a trace exported by :class:`repro.core.trace.TraceRecorder` — either
the line-delimited JSONL event log or the Chrome/Perfetto ``trace_event``
JSON document — and reconstructs, per inferlet, where its launch-to-finish
latency went:

``swap``
    Faulted in from host memory (``swap_stall`` spans).
``transfer``
    KV-page streaming and disaggregation handoff stalls.
``relaunch``
    Dead time between a shard crash and the inferlet's re-materialization
    on a healthy shard (the failover sweep's rescue window).
``retry_backoff``
    Waiting out the retry policy's jittered backoff after an injected
    tool fault or a refused disaggregation handoff.
``prefill`` / ``decode`` / ``compute``
    Forward execution on a device (prompt rows, single-token rows, and
    everything else — embeds, KV maintenance commands).
``queue``
    Submitted commands waiting to be picked into a batch.
``admission``
    Launch handling plus time parked in the QoS admission queue.
``decode_gap``
    Time between forward executions covered by *no* recorded span: the
    inferlet existed, had started computing, but neither queued, computed,
    swapped nor streamed — inter-token think time, client round trips,
    and scheduler latency invisible to any single span.
``other``
    Uncovered time outside the execution window (e.g. between admission
    and the first queue span).

Overlapping spans are resolved by a fixed priority sweep (swap > transfer
> relaunch > retry_backoff > prefill > decode > compute > queue >
admission): each instant of an
inferlet's lifetime is attributed to exactly one bucket, so the buckets
sum to the launch-to-finish latency (within float rounding).

Usage::

    python -m repro.tools.trace_report trace.jsonl
    python -m repro.tools.trace_report trace.json --json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from repro.core.metrics import percentile

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "load_events",
    "attribute_stalls",
    "build_report",
    "render_report",
    "main",
]

#: Overlap-resolution priority, strongest claim first.  ``decode_gap`` and
#: ``other`` are derived from *uncovered* time and never compete.
CATEGORY_PRIORITY = (
    "swap",
    "transfer",
    "relaunch",
    "retry_backoff",
    "prefill",
    "decode",
    "compute",
    "queue",
    "admission",
)

#: Every bucket a report row contains, in presentation order.
ATTRIBUTION_BUCKETS = CATEGORY_PRIORITY + ("decode_gap", "other")


# -- loading ----------------------------------------------------------------


def load_events(path: str) -> List[dict]:
    """Load trace events from a JSONL log or a Perfetto JSON document.

    Returns events in the recorder's native shape (virtual-time seconds,
    ``shard`` / ``inferlet`` fields); Perfetto documents are converted
    back using their process/thread metadata.
    """
    if str(path).endswith(".jsonl"):
        events = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return events
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, list):  # bare trace_event array flavour
        trace_events = document
    else:
        trace_events = document.get("traceEvents", [])
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


def _bucket_of(event: dict) -> Optional[str]:
    cat = event.get("cat")
    if cat in ("swap", "transfer", "queue", "admission"):
        return cat
    if cat == "exec":
        name = event.get("name")
        if name in ("prefill", "decode"):
            return name
        return "compute"
    if cat == "fault":
        name = event.get("name")
        if name in ("relaunch", "retry_backoff"):
            return name
        return None  # fault instants (crashes, brownout edges) have no span
    return None  # lifecycle / sched / net / counter: not inferlet stall time


def attribute_stalls(events: List[dict]) -> Dict[str, dict]:
    """Per-inferlet latency attribution; keys are inferlet ids.

    Each row holds ``launch`` / ``finish`` / ``latency`` (seconds),
    ``status`` (from the lifecycle span; None if the trace holds none),
    ``aborted`` (lifecycle left open or ended terminated/failed), and
    ``buckets`` — a dict over :data:`ATTRIBUTION_BUCKETS` whose values sum
    to ``latency`` within rounding.
    """
    per: Dict[str, dict] = {}
    for event in events:
        inferlet = event.get("inferlet")
        if inferlet is None or event.get("ph") != "X":
            continue
        record = per.setdefault(inferlet, {"lifecycle": None, "spans": []})
        if event.get("cat") == "lifecycle":
            if record["lifecycle"] is None:
                record["lifecycle"] = event
        else:
            record["spans"].append(event)
    return {
        inferlet: _attribute_one(record) for inferlet, record in sorted(per.items())
    }


def _attribute_one(record: dict) -> dict:
    intervals = []  # (start, end, bucket)
    for event in record["spans"]:
        bucket = _bucket_of(event)
        if bucket is None:
            continue
        start = event["ts"]
        end = start + event.get("dur", 0.0)
        if end > start:
            intervals.append((start, end, bucket))

    lifecycle = record["lifecycle"]
    if lifecycle is not None:
        launch = lifecycle["ts"]
        finish = launch + lifecycle.get("dur", 0.0)
    elif intervals:  # synthetic/partial traces without lifecycle spans
        launch = min(start for start, _, _ in intervals)
        finish = max(end for _, end, _ in intervals)
    else:
        launch = finish = 0.0

    status = None
    aborted = False
    if lifecycle is not None:
        args = lifecycle.get("args") or {}
        status = args.get("status")
        aborted = bool(args.get("open")) or status in ("terminated", "failed")

    clipped = []
    for start, end, bucket in intervals:
        lo, hi = max(start, launch), min(end, finish)
        if hi > lo:
            clipped.append((lo, hi, bucket))

    # Elementary-interval sweep: between consecutive boundary points the
    # covering set is constant, so one midpoint probe decides the bucket.
    points = sorted(
        {launch, finish}
        | {start for start, _, _ in clipped}
        | {end for _, end, _ in clipped}
    )
    exec_spans = [
        (start, end)
        for start, end, bucket in clipped
        if bucket in ("prefill", "decode", "compute")
    ]
    first_exec_end = min((end for _, end in exec_spans), default=None)
    last_exec_start = max((start for start, _ in exec_spans), default=None)
    priority = {name: rank for rank, name in enumerate(CATEGORY_PRIORITY)}
    buckets = {name: 0.0 for name in ATTRIBUTION_BUCKETS}
    for left, right in zip(points, points[1:]):
        if right <= left:
            continue
        mid = (left + right) / 2.0
        covering = [b for start, end, b in clipped if start <= mid < end]
        if covering:
            buckets[min(covering, key=priority.__getitem__)] += right - left
        elif (
            first_exec_end is not None
            and left >= first_exec_end
            and right <= last_exec_start
        ):
            buckets["decode_gap"] += right - left
        else:
            buckets["other"] += right - left

    return {
        "launch": launch,
        "finish": finish,
        "latency": finish - launch,
        "status": status,
        "aborted": aborted,
        "buckets": buckets,
    }


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
