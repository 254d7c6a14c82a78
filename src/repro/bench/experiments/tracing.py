"""Flight-recorder overhead and stall attribution (observability).

Runs the disaggregated-cluster workload of
:mod:`repro.bench.experiments.disaggregation` twice — tracing off, then
tracing on with a Perfetto export — and reports:

* **Non-perturbation**: virtual elapsed time, token outputs and throughput
  must be *identical* in both arms (the recorder only observes).
* **Recording overhead**: real wall-clock time of the simulation with
  tracing on vs off.  This is host-side Python cost only — virtual-time
  results are unchanged by construction — and is the number an operator
  cares about before leaving the recorder on.
* **Stall attribution**: the exported trace fed through
  :mod:`repro.tools.trace_report`, summarising where the fleet's
  launch-to-finish latency went (admission / queue / prefill / decode /
  swap / transfer / decode-gap).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from functools import partial
from typing import Dict, Optional

from repro.bench.compare import compare_arms
from repro.bench.experiments import disaggregation
from repro.bench.mixed_fleet import MixedFleet, run_mixed_fleet
from repro.bench.reporting import ExperimentResult


def run_fleet(fleet: MixedFleet, **overrides) -> Dict:
    """The disaggregated arm of the disaggregation experiment, with the
    wall-clock time of the whole run (trace export included) under ``wall_s``."""
    started = time.perf_counter()
    row, _ = run_mixed_fleet(
        fleet,
        **{**disaggregation.SETUP, **disaggregation.ARMS["disaggregated"], **overrides},
    )
    row["wall_s"] = time.perf_counter() - started
    return row


def run(quick: bool = True, trace_path: Optional[str] = None) -> ExperimentResult:
    fleet = replace(
        disaggregation.FLEET,
        n_summarizers=4 if quick else 8,
        n_chats=8 if quick else 16,
    )
    if trace_path is None:
        trace_path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-"), "trace.json")
    # ``trace_path`` switches the recorder on and is where the run exports to.
    arms = compare_arms(
        partial(run_fleet, fleet),
        {"tracing_off": {}, "tracing_on": dict(trace_path=trace_path)},
    )

    from repro.tools.trace_report import build_report, load_events

    summary = build_report(load_events(trace_path))["summary"]
    raw = {
        "overhead_ratio": arms.ratio("wall_s", "tracing_on", "tracing_off"),
        "wall_off_s": arms.raw["tracing_off"]["wall_s"],
        "wall_on_s": arms.raw["tracing_on"]["wall_s"],
        "identical_tokens": arms.identical(
            "tracing_off", "tracing_on", "summarizer_outputs", "chat_outputs"
        ),
        "identical_elapsed": arms.identical("tracing_off", "tracing_on", "elapsed"),
        "attribution_summary": summary,
        "trace_path": trace_path,
    }
    result = ExperimentResult(
        name="Flight recorder overhead",
        description=(
            "disaggregated cluster workload with the control-plane flight "
            "recorder off vs on (Perfetto export + stall attribution); "
            "tracing must not perturb the simulation"
        ),
        rows=arms.rows(
            lambda row: dict(
                wall_clock_s=row["wall_s"],
                virtual_elapsed_s=row["elapsed"],
                output_tokens=row["total_output_tokens"],
                goodput_tok_s=row["token_throughput"],
            )
        ),
        raw=raw,
    )
    buckets_ms = {
        name: bucket["total"] * 1e3
        for name, bucket in summary["buckets"].items()
        if bucket["total"] > 0
    }
    result.add_note(
        f"tracing on costs {raw['overhead_ratio']:.2f}x wall clock "
        f"({raw['wall_off_s']:.2f}s -> {raw['wall_on_s']:.2f}s) and changes "
        "nothing the simulation can observe: virtual elapsed "
        f"{'identical' if raw['identical_elapsed'] else 'DIVERGED'}, tokens "
        f"{'identical' if raw['identical_tokens'] else 'DIVERGED'}."
    )
    result.add_note(
        "stall attribution totals (ms): "
        + ", ".join(f"{k}={v:.1f}" for k, v in sorted(buckets_ms.items()))
        + f"; latency p50 {summary['latency']['p50'] * 1e3:.1f} ms / "
        + f"p99 {summary['latency']['p99'] * 1e3:.1f} ms over "
        + f"{summary['inferlets']} inferlets"
    )
    return result
