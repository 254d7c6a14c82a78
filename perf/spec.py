"""Metric names, units, directions and bounds, and which clock each is on.

``BENCHMARK.json`` lists the workloads and the metrics the driver reads,
with the bounds it gates *across seeds*.  ``failed_share`` and the bounds
for comparing two commits *on one seed* cannot live there (a gated metric
may never read 0; the file's keys are fixed), so they live here.
Imports nothing heavy: the parent process and ``compare.py`` use it.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Layer names are module names (see the table in perf/README.md).
LAYERS = (
    "sim", "lifecycle", "inferlet", "controller", "router", "scheduler",
    "resources", "prefix_cache", "handlers", "model", "device", "harness",
)  # fmt: skip

_HOST = {
    "setup_s", "host_cpu_s", "peak_rss_mb", "sim.events_per_host_s",
    "harness.trace_overhead_ratio", "harness.wall_s", "harness.spans_dropped",
    "harness.host_slowdown",
}  # fmt: skip

#: The thirteenth end-to-end metric.  It reads 0 on a healthy system, so the
#: driver sees it as ``failed`` / ``attempted`` of the result line instead.
FAILED_SHARE = {"name": "failed_share", "unit": "share", "better": "lower"}

#: How much worse a metric's median may get, as a share of the base's, when
#: both commits ran the same seeds (``perf/compare.py``).  Virtual metrics
#: are a pure function of (code, seed), so 1 % is a real change; the host
#: bounds are this box's run-to-run noise.
SAME_SEED_BOUNDS = {"setup_s": 0.15, "host_cpu_s": 0.10, "peak_rss_mb": 0.10}
VIRTUAL_SAME_SEED_BOUND = 0.01


def load_spec(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(spec: dict) -> list:
    """The thirteen end-to-end metrics: the driver's twelve and ``failed_share``."""
    return spec["end_to_end"] + [FAILED_SHARE]


def clock_of(metric: str) -> str:
    """``host`` metrics are noisy; ``virtual`` ones repeat bit-for-bit."""
    return "host" if metric in _HOST or metric.endswith(".host_self_s") else "virtual"


def same_seed_bound(metric: str) -> float:
    """``failed_share`` is absolute: any rise is a regression."""
    if metric == "failed_share":
        return 0.0
    return SAME_SEED_BOUNDS.get(metric, VIRTUAL_SAME_SEED_BOUND)
