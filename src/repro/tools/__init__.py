"""Offline analysis tools for flight-recorder traces, plus the CI perf gate
(``perf_gate``), the SLO snapshot report (``slo_report``) and the untraced
host-time sampling profiler (``host_profile``).

``python -m repro.tools.trace_report trace.jsonl`` reconstructs
per-inferlet lifecycle timelines from a trace exported by
:class:`repro.core.trace.TraceRecorder` and attributes each inferlet's
end-to-end latency to admission / queue / prefill / decode / swap /
transfer / compute time.

This package intentionally avoids importing its submodules at import time
so that ``python -m repro.tools.trace_report`` runs without runpy's
re-import warning; import :mod:`repro.tools.trace_report` directly.
"""

__all__ = ["trace_report"]
