"""Live SLO monitor under overload: burn-rate alerts without perturbation.

Drives the open-loop load harness once with a two-phase arrival trace —
one bucket of 2x-knee overload followed by a trickle — and reads the
monitor every server carries (that it only observes is pinned in
``tests/test_determinism.py``).  Reports:

* **Burn-rate alerting**: during the overload phase the interactive
  class's TPOT error budget burns far above threshold, so its alert rules
  fire; once the load drops to the trickle the short window recovers and
  the alerts clear.  The full fire/clear timeline rides along.
* **Export**: the JSON snapshot document, read back through
  :mod:`repro.tools.slo_report`.
"""

from __future__ import annotations

from repro.bench.loadgen import run_open_loop
from repro.bench.reporting import ExperimentResult

#: Two-phase day shape: one full-rate overload bucket, then a trickle.
OVERLOAD_SHAPE = (1.0,) + (0.02,) * 11
#: Peak offered rate: 2x the measured knee of the PR-8 load sweep
#: (BENCH_load_sweep.json: knee_offered_rate=900 on 4 devices).
PEAK_RATE = 1800.0
SEED = 11


def run(quick: bool = True) -> ExperimentResult:
    n_requests = 700 if quick else 1100
    trace_period_s = 4.2 if quick else 6.0
    # What the monitor costs the host is a host-time question and goes
    # through ``perf/`` (ROADMAP item 6e); this harness reports virtual time
    # only.
    row = run_open_loop(
        n_requests=n_requests,
        offered_rate=PEAK_RATE,
        seed=SEED,
        mode="trace",
        trace_period_s=trace_period_s,
        trace_shape=OVERLOAD_SHAPE,
    )
    monitor = row["monitor"]
    alert_timeline = monitor["snapshot"]["slo"]["alerts"]
    result = ExperimentResult(
        name="Live SLO monitor",
        description=(
            "open-loop overload burst at 2x the knee rate; burn-rate alerts "
            "must fire during overload and clear after the load drops"
        ),
        # The monitor's own report (alert counts, budgets, scrapes, the
        # snapshot document) and its timeline.
        raw={**monitor, "alert_timeline": alert_timeline},
    )
    result.add_row(
        virtual_duration_s=row["duration_s"],
        n_requests=row["n_requests"],
        finished=row["finished"],
        goodput_count=row["goodput_count"],
        output_tokens=row["total_output_tokens"],
    )
    fired = {
        (event["tenant"], event["signal"])
        for event in alert_timeline
        if event["kind"] == "fire"
    }
    result.add_note(
        f"{monitor['alerts_fired']} burn-rate alerts fired during the overload "
        f"burst ({', '.join('/'.join(key) for key in sorted(fired))}), "
        f"{monitor['alerts_cleared']} cleared after the load dropped; "
        f"{len(monitor['active_alerts'])} still active at end of run."
    )
    return result
