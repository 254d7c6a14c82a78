"""Metric definitions: every number the benchmark prints is computed here.

Virtual metrics are read from request outcomes stamped with ``sim.now``
and from the server's public counters, so they are a pure function of
``(code, seed)``.  Host metrics are measured by ``perf/worker.py``; names,
units and directions live in ``BENCHMARK.json`` and ``perf/spec.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.core.metrics import percentile

TAIL_CANDIDATES = (99, 95, 90)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank percentile ``p`` of ``n``."""
    return n - min(n, max(1, math.ceil(p / 100.0 * n))) if n else 0


def tail_percentile(n: int) -> Optional[int]:
    """The highest of p99/p95/p90 that has at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def ttft_ms(outcome) -> float:
    first = min(segment[0] for segment in outcome.segments if segment)
    return (first - outcome.t0) * 1e3


def itl_gaps_ms(outcome) -> List[float]:
    """Gaps between consecutive tokens of one stream; a gap across two
    segments spans a tool call or a fork/join and is left out."""
    return [
        (later - earlier) * 1e3
        for segment in outcome.segments
        for earlier, later in zip(segment, segment[1:])
    ]


def meets_limits(request, outcome) -> bool:
    """The goodput verdict: a failed, refused, terminated or
    oracle-mismatching request misses every limit."""
    if outcome.state != "succeeded":
        return False
    if ttft_ms(outcome) > request.ttft_limit_ms:
        return False
    gaps = itl_gaps_ms(outcome)
    return not gaps or sum(gaps) / len(gaps) <= request.itl_limit_ms


def end_to_end(workload, requests: Sequence, outcomes: Sequence, makespan: float) -> Dict:
    """Virtual end-to-end metrics plus the counts printed beside them."""
    done = [o for o in outcomes if o.state == "succeeded"]
    ttft = [ttft_ms(o) for o in done]
    gaps = [gap for o in done for gap in itl_gaps_ms(o)]
    latency = [(o.finished_at - o.t0) * 1e3 for o in done]
    good = sum(1 for r, o in zip(requests, outcomes) if meets_limits(r, o))
    sent = len(requests)
    counts = {
        "sent": sent,
        "succeeded": len(done),
        "failed": sum(1 for o in outcomes if o.state == "failed"),
        "refused": sum(1 for o in outcomes if o.state == "refused"),
        "good": good,
        "request_samples": len(done),
        "itl_samples": len(gaps),
        "request_tail": workload.request_tail,
        "itl_tail": workload.itl_tail,
        "request_tail_beyond": samples_beyond(len(done), workload.request_tail),
        "itl_tail_beyond": samples_beyond(len(gaps), workload.itl_tail),
        "output_tokens": sum(len(o.token_ids) for o in done),
        "makespan_s": makespan,
    }
    values = {
        "ttft_p50_ms": percentile(ttft, 50),
        "ttft_tail_ms": percentile(ttft, workload.request_tail),
        "itl_p50_ms": percentile(gaps, 50),
        "itl_tail_ms": percentile(gaps, workload.itl_tail),
        "latency_p50_ms": percentile(latency, 50),
        "latency_tail_ms": percentile(latency, workload.request_tail),
        "goodput_rps": good / makespan,
        "slo_attainment": good / sent,
        "output_tok_per_s": counts["output_tokens"] / makespan,
        "failed_share": (sent - len(done)) / sent,
    }
    return {"metrics": values, "counts": counts}


def layer_counters(sim, server, outcomes: Sequence, makespan: float) -> Dict[str, float]:
    """Exact per-layer counts from the server's public statistics."""
    system = server.metrics
    service = server.service()
    stats = server.cluster_stats().combined
    forward_batches = stats.batches_by_kind.get("forward", 0)
    placements = list(system.placements_by_device.values())
    probes = [o.prefix_local for o in outcomes if o.prefix_local is not None]
    lookups = system.prefix_cache_hits + system.prefix_cache_misses
    saved = system.prefix_cache_saved_tokens
    devices = [shard.device.stats for shard in service.shards]
    busy = sum(stat.busy_seconds for stat in devices)
    batches = sum(stat.batches_executed for stat in devices)
    calls = system.aggregate_calls_per_output_token()
    launch_waits = [o.launch_wait * 1e3 for o in outcomes if o.state == "succeeded"]
    sent = len(outcomes)
    return {
        "sim.events_per_request": sim.processed_events / sent,
        "sim.heap_size_end": sim.heap_size,
        "lifecycle.launch_wait_p50_ms": percentile(launch_waits, 50),
        "lifecycle.refused": sum(1 for o in outcomes if o.state == "refused"),
        "inferlet.calls_per_output_token": calls["control"] + calls["inference"],
        "controller.commands_dropped": system.commands_dropped,
        "router.placement_imbalance": (
            max(placements) * len(service.shards) / sum(placements) if placements else 0.0
        ),
        "router.prefix_local_share": sum(probes) / len(probes) if probes else 0.0,
        "scheduler.batch_rows_mean": (
            (stats.decode_rows_dispatched + stats.prefill_rows_dispatched) / forward_batches
            if forward_batches
            else 0.0
        ),
        "scheduler.batches_per_request": stats.batches_dispatched / sent,
        "resources.terminations": system.inferlets_terminated,
        "prefix_cache.hit_share": system.prefix_cache_hits / lookups if lookups else 0.0,
        "prefix_cache.saved_token_share": (
            saved / (saved + system.forward_input_tokens) if saved else 0.0
        ),
        "handlers.forward_input_tokens": system.forward_input_tokens,
        "device.utilization": busy / (makespan * len(devices)),
        "device.step_ms_mean": busy / batches * 1e3,
        "harness.gen_lag_ms_max": max(o.lag for o in outcomes) * 1e3,
    }


def stall_shares(events: List[dict]) -> Dict[str, float]:
    """Fleet-level virtual-latency decomposition: ``trace_report`` buckets
    summed over every inferlet, as shares of their summed latency."""
    from repro.tools.trace_report import attribute_stalls

    rows = attribute_stalls(events).values()
    total = sum(row["latency"] for row in rows)

    def share(bucket: str) -> float:
        return sum(row["buckets"][bucket] for row in rows) / total if total else 0.0

    return {
        "inferlet.think_gap_share": share("decode_gap"),
        "scheduler.queue_share": share("queue"),
        "device.prefill_share": share("prefill"),
        "device.decode_share": share("decode"),
        "device.compute_share": share("compute"),
    }
