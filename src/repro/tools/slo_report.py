"""Render SLO monitor snapshots: alert timelines and budget tables.

Reads a snapshot exported by :meth:`repro.core.server.PieServer.export_metrics`
— either the JSON snapshot document or the Prometheus text exposition — and
renders what an on-call would want first: which burn-rate alerts fired and
when, and how much of each tenant's error budget is left.

The JSON document carries the full alert history (every fire/clear
transition with its burn rates), so its timeline has exact virtual
timestamps; when the chaos plane was on, the injected-fault record rides
along and the report interleaves each fault instant with the alerts it
provoked.  The Prometheus exposition is a point-in-time scrape; from it
the report reconstructs transition *totals* (``pie_slo_alerts_total``),
currently-firing rules (``pie_slo_alert_active``) and the budget table
(``pie_slo_events_total`` / ``pie_slo_budget_remaining``).  Either way the
budget table carries each tenant's server-side goodput — launches
``offered`` and those that finished ``good``, inside their SLO
(``pie_offered_total`` / ``pie_good_total``).

Usage::

    python -m repro.tools.slo_report snapshot.json
    python -m repro.tools.slo_report snapshot.prom
    python -m repro.tools.slo_report snapshot.json --json
"""

from __future__ import annotations

import argparse
import json
import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "load_snapshot",
    "parse_prometheus",
    "build_report",
    "render_report",
    "main",
]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse a text exposition back into the registry's ``to_dict`` shape.

    Histogram ``_bucket``/``_sum``/``_count`` rows are folded back into
    per-labelset samples with cumulative ``buckets``, ``count`` and
    ``sum``, matching :meth:`repro.core.registry.MetricRegistry.to_dict`.
    """
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], dict]] = {}

    def family_for(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                if types.get(base) == "histogram":
                    return base
        return name

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        labels = {
            key: _unescape(value)
            for key, value in _LABEL_RE.findall(match.group("labels") or "")
        }
        value = _parse_value(match.group("value"))
        family = family_for(name)
        le = labels.pop("le", None)
        key = tuple(sorted(labels.items()))
        record = samples.setdefault(family, {}).setdefault(
            key, {"labels": labels}
        )
        if types.get(family) == "histogram":
            if name.endswith("_bucket"):
                record.setdefault("buckets", {})[le] = int(value)
            elif name.endswith("_sum"):
                record["sum"] = value
            elif name.endswith("_count"):
                record["count"] = int(value)
        else:
            record["value"] = value

    metrics: Dict[str, dict] = {}
    for family in sorted(samples):
        metrics[family] = {
            "type": types.get(family, "untyped"),
            "help": helps.get(family, ""),
            "samples": list(samples[family].values()),
        }
    return metrics


def load_snapshot(path: str) -> dict:
    """Load a snapshot file into the JSON document shape.

    ``.prom``/``.txt`` files (or any file whose first character is ``#``)
    parse as Prometheus text exposition and yield a document with only a
    ``metrics`` block; everything else is the JSON snapshot document.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith((".prom", ".txt")) or text.lstrip().startswith("#"):
        return {"metrics": parse_prometheus(text)}
    return json.loads(text)


def _scalar_samples(document: dict, family: str) -> List[dict]:
    block = document.get("metrics", {}).get(family)
    if not block:
        return []
    return block.get("samples", [])


def _alert_timeline(document: dict) -> List[dict]:
    slo = document.get("slo")
    if slo and slo.get("alerts") is not None:
        timeline = []
        open_fires: Dict[Tuple[str, str, int], dict] = {}
        for event in slo["alerts"]:
            key = (event["tenant"], event["signal"], event["window"])
            if event["kind"] == "fire":
                open_fires[key] = event
                timeline.append(dict(event, cleared_at=None, duration_s=None))
            else:
                fired = open_fires.pop(key, None)
                for row in reversed(timeline):
                    if (
                        row["kind"] == "fire"
                        and (row["tenant"], row["signal"], row["window"]) == key
                        and row["cleared_at"] is None
                    ):
                        row["cleared_at"] = event["time"]
                        if fired is not None:
                            row["duration_s"] = event["time"] - fired["time"]
                        break
        return timeline
    # Prometheus fallback: transition totals only, no timestamps.
    timeline = []
    for sample in _scalar_samples(document, "pie_slo_alerts_total"):
        labels = sample["labels"]
        timeline.append(
            {
                "tenant": labels.get("tenant", ""),
                "signal": labels.get("signal", ""),
                "kind": labels.get("kind", ""),
                "count": int(sample["value"]),
            }
        )
    return timeline


def _budget_table(document: dict) -> List[dict]:
    slo = document.get("slo")
    if slo and slo.get("budgets") is not None:
        table = []
        for tenant, signals in sorted(slo["budgets"].items()):
            for signal, budget in sorted(signals.items()):
                table.append(dict(budget, tenant=tenant, signal=signal))
        return table
    # Prometheus fallback: rebuild from the SLO event counters.
    counts: Dict[Tuple[str, str], Dict[str, int]] = {}
    for sample in _scalar_samples(document, "pie_slo_events_total"):
        labels = sample["labels"]
        key = (labels.get("tenant", ""), labels.get("signal", ""))
        counts.setdefault(key, {})[labels.get("outcome", "")] = int(sample["value"])
    remaining: Dict[Tuple[str, str], float] = {}
    for sample in _scalar_samples(document, "pie_slo_budget_remaining"):
        labels = sample["labels"]
        remaining[(labels.get("tenant", ""), labels.get("signal", ""))] = sample[
            "value"
        ]
    table = []
    for (tenant, signal), outcomes in sorted(counts.items()):
        met = outcomes.get("met", 0)
        missed = outcomes.get("missed", 0)
        total = met + missed
        row = {
            "tenant": tenant,
            "signal": signal,
            "events": total,
            "bad": missed,
            "attainment": met / total if total else 1.0,
        }
        if (tenant, signal) in remaining:
            row["budget_remaining"] = remaining[(tenant, signal)]
        table.append(row)
    return table


def _active_alerts(document: dict) -> List[dict]:
    slo = document.get("slo")
    if slo and slo.get("active_alerts") is not None:
        return list(slo["active_alerts"])
    active = []
    for sample in _scalar_samples(document, "pie_slo_alert_active"):
        if sample["value"]:
            labels = sample["labels"]
            active.append(
                {
                    "tenant": labels.get("tenant", ""),
                    "signal": labels.get("signal", ""),
                    "window": labels.get("window", ""),
                }
            )
    return active


def build_report(document: dict) -> dict:
    """Distil a snapshot document into timeline + budget + active alerts."""
    budgets = _budget_table(document)
    # Server-side goodput per tenant; both formats carry the metrics block.
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
        "alert_timeline": _alert_timeline(document),
        "faults": list(document.get("faults", [])),
        "active_alerts": _active_alerts(document),
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
        if "count" in row:  # Prometheus totals, no timestamps
            lines.append(
                f"  {row['tenant']}/{row['signal']}: "
                f"{row['kind']} x{row['count']}"
            )
        elif row["kind"] == "fire":
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
        description="Render an SLO monitor snapshot (JSON or Prometheus text)",
    )
    parser.add_argument(
        "snapshot", help="snapshot file (.json document or .prom/.txt exposition)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    opts = parser.parse_args(argv)
    document = load_snapshot(opts.snapshot)
    report = build_report(document)
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
