"""Render SLO monitor snapshots: alert timelines and budget tables.

Reads the snapshot document written by
:meth:`repro.core.server.PieServer.export_metrics` and renders what an
on-call would want first: which burn-rate alerts fired and when, and how
much of each tenant's error budget is left.

The document carries the full alert history (every fire/clear transition
with its burn rates), so the timeline has exact virtual timestamps; when
the chaos plane was on, the injected-fault record rides along and the
report interleaves each fault instant with the alerts it provoked.  The
budget table carries each tenant's server-side goodput — launches
``offered`` and those that finished ``good``, inside their SLO
(``pie_offered_total`` / ``pie_good_total``).

Usage::

    python -m repro.tools.slo_report snapshot.json
    python -m repro.tools.slo_report snapshot.json --json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Tuple

__all__ = [
    "load_snapshot",
    "build_report",
    "render_report",
    "main",
]


def load_snapshot(path: str) -> dict:
    """Load a snapshot document; ``ValueError`` if the file is not JSON or
    has no ``slo`` block."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "slo" not in document:
        raise ValueError("no 'slo' block")
    return document


def _scalar_samples(document: dict, family: str) -> List[dict]:
    block = document.get("metrics", {}).get(family)
    if not block:
        return []
    return block.get("samples", [])


def _alert_timeline(slo: dict) -> List[dict]:
    """Each fire, with the time it cleared (``None`` while still firing)."""
    timeline: List[dict] = []
    firing: Dict[Tuple[str, str, int], dict] = {}
    for event in slo["alerts"]:
        key = (event["tenant"], event["signal"], event["window"])
        if event["kind"] == "fire":
            firing[key] = row = dict(event, cleared_at=None, duration_s=None)
            timeline.append(row)
        elif key in firing:
            row = firing.pop(key)
            row["cleared_at"] = event["time"]
            row["duration_s"] = event["time"] - row["time"]
    return timeline


def build_report(document: dict) -> dict:
    """Distil a snapshot document into timeline + budget + active alerts."""
    slo = document["slo"]
    budgets = [
        dict(budget, tenant=tenant, signal=signal)
        for tenant, signals in sorted(slo["budgets"].items())
        for signal, budget in sorted(signals.items())
    ]
    # Server-side goodput per tenant, from the metrics block.
    for column, family in (("offered", "pie_offered_total"), ("good", "pie_good_total")):
        counts = {
            sample["labels"].get("tenant", ""): int(sample["value"])
            for sample in _scalar_samples(document, family)
        }
        for row in budgets:
            row[column] = counts.get(row["tenant"], 0)
    return {
        "now": document.get("now"),
        "scrapes": document.get("scrapes"),
        "alert_timeline": _alert_timeline(slo),
        "faults": list(document.get("faults", [])),
        "active_alerts": list(slo["active_alerts"]),
        "budgets": budgets,
    }


def _fmt(value, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.4g}".rjust(width)
    return str(value).rjust(width)


def render_report(report: dict) -> str:
    lines: List[str] = []
    if report.get("now") is not None:
        lines.append(
            f"snapshot at virtual t={report['now']:.3f}s "
            f"({report.get('scrapes', 0)} scrapes)"
        )
        lines.append("")
    lines.append("alert timeline:")
    timeline = report["alert_timeline"]
    faults = report.get("faults", [])
    if not timeline and not faults:
        lines.append("  (no alert transitions)")
    # Interleave injected-fault instants with alert fires by virtual time
    # so an on-call reads cause -> effect top to bottom.
    entries: List[Tuple[float, int, str]] = []
    for fault in faults:
        detail = ", ".join(str(field) for field in fault["entry"][2:])
        entries.append(
            (
                fault["time"],
                0,
                f"  t={fault['time']:.3f}s FAULT {fault['kind']}"
                + (f" ({detail})" if detail else ""),
            )
        )
    for row in timeline:
        cleared = (
            f"cleared at t={row['cleared_at']:.3f}s "
            f"(held {row['duration_s']:.3f}s)"
            if row["cleared_at"] is not None
            else "STILL FIRING"
        )
        entries.append(
            (
                row["time"],
                1,
                f"  t={row['time']:.3f}s FIRE {row['tenant']}/{row['signal']} "
                f"window {row['window']} ({row['long_s']:g}s/{row['short_s']:g}s "
                f"x{row['threshold']:g}) burn long={row['burn_long']:.2f} "
                f"short={row['burn_short']:.2f} -> {cleared}",
            )
        )
    for _, _, line in sorted(entries, key=lambda item: (item[0], item[1])):
        lines.append(line)
    active = report["active_alerts"]
    lines.append("")
    lines.append(f"active alerts: {len(active)}")
    for row in active:
        lines.append(f"  {row['tenant']}/{row['signal']} window {row['window']}")
    lines.append("")
    lines.append("error budgets:")
    header = ("tenant", "signal", "events", "bad", "attainment", "remaining", "offered", "good")
    lines.append("  " + "".join(h.rjust(12) for h in header))
    for row in report["budgets"]:
        lines.append(
            "  "
            + row["tenant"].rjust(12)
            + row["signal"].rjust(12)
            + _fmt(row.get("events"), 12)
            + _fmt(row.get("bad"), 12)
            + _fmt(row.get("attainment"), 12)
            + _fmt(row.get("budget_remaining"), 12)
            + _fmt(row.get("offered"), 12)
            + _fmt(row.get("good"), 12)
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slo_report",
        description="Render an SLO monitor snapshot document",
    )
    parser.add_argument("snapshot", help="snapshot document (JSON, from export_metrics)")
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    opts = parser.parse_args(argv)
    try:
        document = load_snapshot(opts.snapshot)
    except ValueError as exc:
        parser.error(f"{opts.snapshot} is not an SLO monitor snapshot document ({exc})")
    report = build_report(document)
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
