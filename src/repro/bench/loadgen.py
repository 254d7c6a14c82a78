"""Open-loop load generation: offered-load arrival processes on the virtual clock.

Every experiment so far is *closed-loop*: a fixed fleet of inferlets is
launched and the next request waits for the previous one.  Closed loops
self-throttle — when the system slows down, the offered load drops with it,
which hides exactly the overload behaviour a serving system is judged on.
Real evaluations drive an *open-loop* arrival process (requests arrive on a
clock that does not care how the server is doing) and report goodput versus
offered load: the achieved rate of requests that finished *and* met their
latency SLOs (see *Towards Efficient Generative LLM Serving* in PAPERS.md).

This module provides that harness for the simulated Pie deployment:

* seeded **Poisson** arrivals at a configurable offered rate, plus a
  recorded **diurnal trace** mode (non-homogeneous Poisson by thinning
  against a 24-bucket day shape), both driven by a dedicated generator so
  the arrival schedule is independent of the simulator's own seed stream;
* a per-tenant-class **workload mix** (interactive / agent / batch by
  default) with per-class prompt and decode lengths; each class is a
  tenant, and one the caller did not configure is registered in the
  controller's tenant table with the class's TTFT/TPOT SLOs;
* **goodput** accounting, read off each request's own record
  (``InferletMetrics.good``): it counts only if it finished and its TTFT
  (and TPOT, when the stream carries a sample) met the SLO it was launched
  under; a launch admission control refused is *shed*, one refused a
  sandbox or a healthy shard *failed* — both reported, and still in every
  denominator;
* per-class p50/p99 TTFT and TPOT via the shared
  :func:`repro.core.metrics.percentile` helper;
* control-plane scaling counters — simulator events processed per request,
  event-heap occupancy at the end (the heap holds only live events), and
  dropped commands — which is what the CI perf gate regresses against;
* live-monitor integration: the result row carries the monitor's alert
  counts, error budgets and its snapshot document, and the chaos plane's
  failover counters.

The harness is how the scheduler/simulator index work is *kept* honest:
tens of thousands of mostly-idle command queues must not make dispatch,
owner lookups or pending totals scan the world.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.runners import Launch, launch_fleet, make_pie_setup, ratio
from repro.core import InferletProgram, TenantSpec
from repro.core.metrics import percentile
from repro.support import Context, SamplingParams

__all__ = [
    "WorkloadClass",
    "DEFAULT_MIX",
    "DIURNAL_TRACE",
    "Arrival",
    "poisson_schedule",
    "trace_schedule",
    "build_arrivals",
    "run_open_loop",
]


@dataclass(frozen=True)
class WorkloadClass:
    """One tenant class in the offered mix."""

    name: str
    #: Share of arrivals drawn from this class (weights are normalised).
    weight: float
    prompt_tokens: int
    decode_tokens: int
    #: Latency SLOs the class's tenant is registered with, unless the
    #: caller configured a tenant of this name.
    ttft_slo_ms: float
    tpot_slo_ms: float


#: Default three-class mix: latency-sensitive chat turns dominate, agents
#: issue medium prompts, and a batch tail prefills long documents under a
#: loose deadline.  Token counts are sized for the tiny simulated model so
#: tens of thousands of requests stay tractable in wall-clock time.
DEFAULT_MIX: Tuple[WorkloadClass, ...] = (
    WorkloadClass("interactive", 0.6, 16, 4, ttft_slo_ms=400.0, tpot_slo_ms=120.0),
    WorkloadClass("agent", 0.3, 48, 6, ttft_slo_ms=800.0, tpot_slo_ms=150.0),
    WorkloadClass("batch", 0.1, 96, 4, ttft_slo_ms=2500.0, tpot_slo_ms=400.0),
)

#: Recorded day shape (24 hourly buckets, normalised to peak = 1.0): a
#: quiet night, a morning ramp, a late-morning peak and an evening decay —
#: the classic diurnal curve production traces show.  ``trace_schedule``
#: replays it as a non-homogeneous Poisson process.
DIURNAL_TRACE: Tuple[float, ...] = (
    0.35, 0.30, 0.28, 0.30, 0.38, 0.50,
    0.65, 0.80, 0.92, 1.00, 0.97, 0.90,
    0.85, 0.88, 0.93, 0.95, 0.90, 0.82,
    0.75, 0.70, 0.62, 0.55, 0.48, 0.40,
)


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it arrives and what it asks for."""

    index: int
    time: float
    workload: WorkloadClass


def poisson_schedule(rate: float, n: int, rng: np.random.Generator) -> List[float]:
    """Arrival times of a homogeneous Poisson process (rate in req/s)."""
    if rate <= 0:
        raise ValueError(f"offered rate must be positive, got {rate}")
    gaps = rng.exponential(scale=1.0 / rate, size=n)
    return list(np.cumsum(gaps))


def trace_schedule(
    peak_rate: float,
    n: int,
    rng: np.random.Generator,
    trace: Sequence[float] = DIURNAL_TRACE,
    period_s: float = 60.0,
) -> List[float]:
    """Arrival times of a non-homogeneous Poisson process shaped by ``trace``.

    The recorded day is compressed so one full pass over ``trace`` spans
    ``period_s`` simulated seconds (a 24-hour shape replayed in a minute by
    default).  Implemented by thinning: candidates are drawn at the peak
    rate and accepted with probability equal to the bucket's multiplier, so
    the instantaneous offered rate is ``peak_rate * trace[bucket(t)]``.
    """
    if peak_rate <= 0:
        raise ValueError(f"peak rate must be positive, got {peak_rate}")
    bucket_s = period_s / len(trace)
    times: List[float] = []
    t = 0.0
    while len(times) < n:
        t += rng.exponential(scale=1.0 / peak_rate)
        bucket = int(t / bucket_s) % len(trace)
        if rng.random() < trace[bucket]:
            times.append(t)
    return times


def build_arrivals(
    n: int,
    rate: float,
    seed: int,
    mode: str = "poisson",
    mix: Sequence[WorkloadClass] = DEFAULT_MIX,
    trace: Sequence[float] = DIURNAL_TRACE,
    trace_period_s: float = 60.0,
) -> List[Arrival]:
    """Build a deterministic arrival schedule for ``n`` requests.

    The schedule is a pure function of ``(n, rate, seed, mode, mix)``: it
    uses its own ``np.random.default_rng(seed)``, never the simulator's
    generator, so the same seed yields the same arrival times and class
    draws regardless of what the server does with them.
    """
    if mode not in ("poisson", "trace"):
        raise ValueError(f"unknown arrival mode {mode!r}")
    if not mix:
        raise ValueError("workload mix must not be empty")
    rng = np.random.default_rng(seed)
    if mode == "poisson":
        times = poisson_schedule(rate, n, rng)
    else:
        times = trace_schedule(rate, n, rng, trace=trace, period_s=trace_period_s)
    weights = np.array([cls.weight for cls in mix], dtype=float)
    cumulative = list(np.cumsum(weights / weights.sum()))
    draws = rng.random(size=n)
    arrivals = []
    for index, (time, draw) in enumerate(zip(times, draws)):
        workload = mix[min(bisect.bisect_left(cumulative, draw), len(mix) - 1)]
        arrivals.append(Arrival(index=index, time=float(time), workload=workload))
    return arrivals


def _class_program(cls: WorkloadClass) -> InferletProgram:
    """One program per class; per-request shape arrives via launch args.

    The prompt is raw token ids varied by arrival index (no two requests
    share a prefix, so prefix caching can never collapse the offered work),
    and decode length is driven by ``generate_until`` so every output token
    lands at its own virtual timestamp — TTFT and TPOT are real samples.
    """

    async def main(ctx):
        args = ctx.get_arg()
        index, prompt_tokens, decode_tokens = (int(value) for value in args)
        context = Context(ctx, sampling=SamplingParams())
        await context.fill([(index * 11 + i) % 250 for i in range(prompt_tokens)])
        await context.generate_until(max_tokens=decode_tokens)
        tokens = list(context.generated_ids)
        context.free()
        return tokens

    return InferletProgram(
        name=f"load_{cls.name}",
        main=main,
        description=f"open-loop {cls.name} request (load harness)",
        requirements=("R1",),
    )


def _latency_summary(samples: List[float]) -> Dict[str, float]:
    return {
        "p50_ms": percentile(samples, 50) * 1e3,
        "p99_ms": percentile(samples, 99) * 1e3,
        "samples": len(samples),
    }


def run_open_loop(
    n_requests: int,
    offered_rate: float,
    seed: int = 0,
    mode: str = "poisson",
    mix: Sequence[WorkloadClass] = DEFAULT_MIX,
    num_devices: int = 4,
    trace_period_s: float = 60.0,
    trace_shape: Sequence[float] = DIURNAL_TRACE,
    collect_outputs: bool = False,
    **setup_kwargs,
) -> Dict:
    """Drive one open-loop run and return its load-curve row.

    ``offered_rate`` is the arrival rate in requests per second (the peak
    rate in ``mode='trace'``).  Requests are launched at their scheduled
    virtual times whether or not the server is keeping up — that is the
    point of an open loop.  Returns goodput, per-class latency percentiles
    and the control-plane scaling counters; ``collect_outputs=True`` also
    returns every request's generated token ids in arrival order (the
    determinism suite compares them across seeds).  ``trace_shape``
    replaces the diurnal day shape in ``mode='trace'`` (e.g. a two-phase
    overload-then-trickle shape for burn-rate alert scenarios).  A launch
    refused by admission control is counted under ``shed`` (total and per
    class), one that failed — its program raised, or its launch found no
    Wasm sandbox or no healthy shard — under ``failed``; both stay in the
    goodput / attainment denominators.
    """
    arrivals = build_arrivals(
        n_requests, offered_rate, seed, mode=mode, mix=mix,
        trace=trace_shape, trace_period_s=trace_period_s,
    )
    sim, server = make_pie_setup(
        seed=seed, with_tools=False, num_devices=num_devices, **setup_kwargs
    )
    # Each class is a tenant.  The caller's own contract for it stands; the
    # mix only fills in the tenants nobody configured.
    tenants = server.controller.tenants
    for cls in mix:
        if cls.name not in tenants:
            tenants.register(
                TenantSpec(name=cls.name, ttft_slo_ms=cls.ttft_slo_ms, tpot_slo_ms=cls.tpot_slo_ms)
            )
    programs = {cls.name: _class_program(cls) for cls in mix}
    fleet = [
        Launch(
            programs[arrival.workload.name],
            arrival.time,
            {
                "args": [
                    str(arrival.index),
                    str(arrival.workload.prompt_tokens),
                    str(arrival.workload.decode_tokens),
                ],
                "tenant": arrival.workload.name,
            },
        )
        for arrival in arrivals
    ]
    run = launch_fleet(server, fleet)
    results = run.results
    duration = run.elapsed
    metrics = server.metrics
    monitor = server.monitor

    per_class = {
        cls.name: {"requests": 0, "good": 0, "shed": 0, "failed": 0, "ttft": [], "tpot": []}
        for cls in mix
    }
    for arrival, result in zip(arrivals, results):
        tally = per_class[arrival.workload.name]
        tally["requests"] += 1
        if result.status == "rejected":
            tally["shed"] += 1
        elif result.status == "failed":
            tally["failed"] += 1
        if result.status != "finished":
            continue
        record = metrics.per_inferlet[result.instance_id]
        if record.ttft is not None:
            tally["ttft"].append(record.ttft)
        if record.tpot is not None:
            tally["tpot"].append(record.tpot)
        if record.good:
            tally["good"] += 1
    goodput_count = sum(tally["good"] for tally in per_class.values())

    row = {
        "mode": mode,
        "n_requests": n_requests,
        "offered_rate": offered_rate,
        "num_devices": num_devices,
        "duration_s": duration,
        "finished": run.finished,
        "shed": sum(tally["shed"] for tally in per_class.values()),
        "failed": sum(tally["failed"] for tally in per_class.values()),
        "goodput_count": goodput_count,
        "goodput_rate": ratio(goodput_count, duration),
        "slo_attainment": ratio(goodput_count, n_requests),
        "total_output_tokens": metrics.total_output_tokens,
        "commands_dropped": metrics.commands_dropped,
        # Control-plane scaling counters: the CI perf gate regresses on
        # events per request; the heap holds only live events, so its size
        # at the end is what the run left pending.
        "processed_events": sim.processed_events,
        "events_per_request": ratio(sim.processed_events, n_requests),
        "heap_size_end": sim.heap_size,
        "per_class": {
            name: {
                **tally,
                "ttft": _latency_summary(tally["ttft"]),
                "tpot": _latency_summary(tally["tpot"]),
                "ttft_slo_ms": tenants[name].ttft_slo_s * 1e3,
                "tpot_slo_ms": tenants[name].tpot_slo_s * 1e3,
            }
            for name, tally in per_class.items()
        },
    }
    row["monitor"] = {
        "scrapes": monitor.scrapes_taken,
        "alerts_fired": sum(1 for event in monitor.slo.alerts if event.kind == "fire"),
        "alerts_cleared": sum(1 for event in monitor.slo.alerts if event.kind == "clear"),
        "active_alerts": monitor.slo.active_alerts(),
        "budgets": monitor.slo.budgets(),
        "snapshot": server.export_metrics(),
    }
    row["chaos"] = {
        "faults_injected": metrics.faults_injected,
        "shard_crashes": metrics.shard_crashes,
        "failover_relaunches": metrics.failover_relaunches,
        "failover_terminations": metrics.failover_terminations,
        "shard_states": dict(sorted(server.controller.health.states.items())),
    }
    if collect_outputs:
        row["arrival_times"] = [arrival.time for arrival in arrivals]
        row["arrival_classes"] = [arrival.workload.name for arrival in arrivals]
        row["outputs"] = [
            list(result.result) if isinstance(result.result, list) else None
            for result in results
        ]
    return row
