"""Offline analysis tools for flight-recorder traces, plus the CI perf gate
(``perf_gate``), the SLO snapshot report (``slo_report``) and the untraced
host-time sampling profiler (``host_profile``).

``python -m repro.tools.trace_report trace.jsonl`` reads a trace exported
by :class:`repro.core.trace.TraceRecorder` and sums each inferlet's phase
spans — its timeline as the core kept it (``repro.core.timeline``) — into
its stall attribution: admission / queue / prefill / decode / compute /
swap / transfer / relaunch / decode-gap / other time.

This package intentionally avoids importing its submodules at import time
so that ``python -m repro.tools.trace_report`` runs without runpy's
re-import warning; import :mod:`repro.tools.trace_report` directly.
"""

__all__ = ["trace_report"]
