"""Benchmark for the live SLO monitor (observability, beyond the paper).

Runs an open-loop overload burst (2x the load-sweep knee rate, then a
trickle), asserting the monitor's contracts — its burn-rate alerts fire
for the overloaded class and clear once the load drops, and its one export,
the JSON snapshot document, reads back through ``tools/slo_report``.  That
it changes nothing the simulation can observe is pinned in
``tests/test_determinism.py``.  The
deterministic headline (alert counts, scrapes) goes to the
tracked ``BENCH_slo_monitor.json``, which a re-run therefore rewrites
unchanged; what the monitor costs the host is a ``perf/`` question, not this
harness's.  The document itself is left at the repo root
(``slo_snapshot.json``) so CI can archive it next to the perf artifacts.
"""

from repro.bench.experiments import slo_monitor as experiment


def test_slo_monitor(run_experiment, write_artifact):
    result = run_experiment(experiment)
    (row,) = result.rows
    raw = result.raw

    # Contract 1: the golden alert sequence.  The overload burst drives the
    # interactive class's TPOT budget burn over threshold (alerts fire) and
    # the trickle phase lets it recover (every alert clears by end of run).
    timeline = raw["alert_timeline"]
    fires = [e for e in timeline if e["kind"] == "fire"]
    clears = [e for e in timeline if e["kind"] == "clear"]
    assert any(e["tenant"] == "interactive" for e in fires)
    assert len(clears) == len(fires)
    assert raw["active_alerts"] == []
    # Fire before clear, and the budget accounting saw real misses.
    first_fire = min(e["time"] for e in fires)
    last_clear = max(e["time"] for e in clears)
    assert first_fire < last_clear
    assert raw["budgets"]["interactive"]["tpot"]["bad"] > 0
    assert raw["scrapes"] > 0

    # Contract 2: the export is the live state, not a copy kept beside it —
    # every finished request is in both of its counts, and no time series
    # rides along (the document was 593 KB when one did).
    # 64 families: every per-tenant fact is read off the core's one record
    # per tenant and exported under one name — ``pie_tenant_{finished,
    # terminated, rejected}`` are ``pie_requests_total{status}`` and
    # ``pie_tenant_{ttft, tpot}_{met, missed}`` are ``pie_slo_events_total``
    # (89 -> 82) — the three ``pie_system_brownout_*`` counters went with
    # their plane (82 -> 79), and ``pie_system_qos_preemption_{swaps,
    # terminations}``, counted at the same reclamation as
    # ``reclamation_{swaps, terminations}``, went with QoS's victim order
    # (79 -> 77), and ``pie_system_qos_{admitted, queued, rejected}``, the
    # sums of the tenant records' counts, went with QoS's admission
    # (77 -> 74), and ``pie_tenant_{handoffs, dispatched_commands,
    # virtual_tokens}``, which only the QoS plane wrote, went with it
    # (74 -> 71), and ``pie_system_{shard_slowdowns, link_faults,
    # tool_faults, tool_retries, handoff_retries, retries_exhausted,
    # retry_backoff_seconds}``, which only the five test-only fault kinds
    # and the retry policy behind them wrote, went with them (71 -> 64),
    # and the four ``pie_slo_*`` families, which repeated the document's
    # own ``slo`` block for a text exposition nothing read, went with the
    # exposition (64 -> 60).
    # Server-side goodput agrees with the harness's own row.
    metrics = raw["snapshot"]["metrics"]
    assert len(metrics) == 60
    total = lambda name: sum(s["value"] for s in metrics[name]["samples"])  # noqa: E731
    assert total("pie_good_total") == row["goodput_count"]
    assert total("pie_offered_total") == row["n_requests"]
    assert metrics["pie_system_inferlets_finished"]["samples"][0]["value"] == sum(
        sample["value"]
        for sample in metrics["pie_requests_total"]["samples"]
        if sample["labels"]["status"] == "finished"
    )
    assert "series" not in raw["snapshot"]

    # Contract 3: the document reads back through the report tool.
    snapshot_json = write_artifact("slo_snapshot.json", raw["snapshot"])
    assert snapshot_json.stat().st_size < 100_000

    from repro.tools.slo_report import build_report, load_snapshot

    json_report = build_report(load_snapshot(str(snapshot_json)))
    assert len(json_report["alert_timeline"]) == len(fires)
    assert all(row["cleared_at"] is not None for row in json_report["alert_timeline"])
    budgets = {
        (row["tenant"], row["signal"]): row for row in json_report["budgets"]
    }
    assert budgets[("interactive", "tpot")]["bad"] > 0

    head = {
        key: raw[key]
        for key in ("alerts_fired", "alerts_cleared", "scrapes")
    }
    write_artifact("BENCH_slo_monitor.json", head)
