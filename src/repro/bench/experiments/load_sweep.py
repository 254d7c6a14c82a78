"""Open-loop load sweep: goodput vs offered load and control-plane scaling.

Serving systems are evaluated open-loop: requests arrive on their own clock
and the figure of merit is *goodput* — the achieved rate of requests that
finished within their latency SLOs — as a function of offered load.  A
healthy system tracks the offered rate up to a knee, then degrades
gracefully; a congestion-collapsing one sheds goodput past the knee as
queueing pushes every request over its SLO (see *Towards Efficient
Generative LLM Serving* in PAPERS.md).

This experiment drives :mod:`repro.bench.loadgen` over a rate sweep plus a
diurnal-trace replay, locates the knee, and then runs the scaling probe the
CI perf gate regresses against: the same keeping-up offered rate at 1k and
10k requests must process a *flat* number of simulator events per request
(±20%).  Before the scheduler's owner/readiness/pending indexes, every
submit scanned all queues, and an event heap that kept dead events would
hold them too — both show up here as events-per-request growing with fleet
size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.loadgen import run_open_loop
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import ratio

#: Offered rates swept in quick mode (req/s): spans keeping-up, the knee
#: (~900 on the 4-device reference deployment) and deep overload.
QUICK_RATES: Tuple[float, ...] = (150.0, 300.0, 600.0, 900.0, 1200.0, 1800.0)
#: Requests per sweep point below/at-or-above the expected knee region —
#: overload points need longer runs for the backlog to reach steady state.
QUICK_N_LOW = 400
QUICK_N_HIGH = 800
#: Keeping-up rate used by the 1k/10k events-per-request flatness probe.
FLATNESS_RATE = 250.0
SEED = 11


def sweep(
    rates: Sequence[float],
    n_low: int,
    n_high: int,
    seed: int = SEED,
    mode: str = "poisson",
    knee_region_rate: float = 900.0,
) -> List[Dict]:
    """Run one open-loop row per offered rate; returns the raw rows."""
    rows = []
    for rate in rates:
        n = n_high if rate >= knee_region_rate else n_low
        rows.append(run_open_loop(n, rate, seed=seed, mode=mode))
    return rows


def knee_point(rows: Sequence[Dict]) -> Dict:
    """The sweep row with the highest goodput (the curve's knee).

    Open-loop goodput rises with offered load until queueing pushes
    requests past their SLOs; the maximum is where the curve bends.
    """
    return max(rows, key=lambda row: row["goodput_rate"])


def run(quick: bool = True, flatness_n: Optional[Tuple[int, int]] = None) -> ExperimentResult:
    rates = QUICK_RATES if quick else QUICK_RATES + (2400.0,)
    n_low = QUICK_N_LOW if quick else QUICK_N_LOW * 2
    n_high = QUICK_N_HIGH if quick else QUICK_N_HIGH * 2
    probe_small, probe_large = flatness_n or (1000, 10000)

    result = ExperimentResult(
        name="Open-loop load sweep",
        description=(
            f"Seeded Poisson arrivals over a 3-class mix on 4 devices: goodput "
            f"vs offered load across {len(rates)} rates, a diurnal-trace "
            f"replay, and the {probe_small // 1000}k->{probe_large // 1000}k "
            f"events-per-request scaling probe"
        ),
    )

    rows = sweep(rates, n_low, n_high)
    for row in rows:
        interactive = row["per_class"]["interactive"]
        result.add_row(
            offered_rate=row["offered_rate"],
            n_requests=row["n_requests"],
            goodput_rate=row["goodput_rate"],
            slo_attainment=row["slo_attainment"],
            interactive_ttft_p99_ms=interactive["ttft"]["p99_ms"],
            interactive_tpot_p99_ms=interactive["tpot"]["p99_ms"],
            events_per_request=row["events_per_request"],
            commands_dropped=row["commands_dropped"],
        )
    knee = knee_point(rows)

    # Diurnal replay: the same request budget arrives shaped by a recorded
    # 24-bucket day compressed to one minute, with the peak at the knee
    # rate — attainment holds because troughs drain what peaks queue.
    trace_row = run_open_loop(
        n_low, knee["offered_rate"], seed=SEED, mode="trace"
    )
    result.add_row(
        offered_rate=trace_row["offered_rate"],
        n_requests=trace_row["n_requests"],
        goodput_rate=trace_row["goodput_rate"],
        slo_attainment=trace_row["slo_attainment"],
        interactive_ttft_p99_ms=trace_row["per_class"]["interactive"]["ttft"]["p99_ms"],
        interactive_tpot_p99_ms=trace_row["per_class"]["interactive"]["tpot"]["p99_ms"],
        events_per_request=trace_row["events_per_request"],
        commands_dropped=trace_row["commands_dropped"],
    )

    # Scaling probe: a keeping-up rate at 1k and 10k requests.  Flat
    # events-per-request is the sub-quadratic control-plane claim — any
    # reintroduced O(all-queues) scan or heap leak bends it upward.
    small = run_open_loop(probe_small, FLATNESS_RATE, seed=SEED)
    large = run_open_loop(probe_large, FLATNESS_RATE, seed=SEED)

    head = headline(rows, knee, trace_row, small, large)
    result.raw = {
        "sweep": rows,
        "knee": knee,
        "trace": trace_row,
        "flatness_small": small,
        "flatness_large": large,
        "headline": head,
    }
    result.add_note(
        f"Goodput peaks at {head['max_goodput_rate']:.0f} good req/s at an "
        f"offered {head['knee_offered_rate']:.0f} req/s, then sheds under "
        f"overload — an open-loop knee a closed-loop harness cannot see.  "
        f"Events per request {head['events_per_request_1k']:.1f} at "
        f"{probe_small} requests vs {head['events_per_request_10k']:.1f} at "
        f"{probe_large} ({head['events_per_request_ratio']:.3f}x): the "
        "indexed scheduler and a heap of live events keep per-request work flat "
        "as the fleet grows 10x."
    )
    return result


def headline(
    rows: Sequence[Dict], knee: Dict, trace_row: Dict, small: Dict, large: Dict
) -> Dict:
    """The numbers the benchmark asserts on (and exports as an artifact)."""
    epr_small = small["events_per_request"]
    epr_large = large["events_per_request"]
    goodput = {row["offered_rate"]: row["goodput_rate"] for row in rows}
    return {
        "offered_rates": [row["offered_rate"] for row in rows],
        "goodput_rates": [row["goodput_rate"] for row in rows],
        "slo_attainments": [row["slo_attainment"] for row in rows],
        "knee_offered_rate": knee["offered_rate"],
        "max_goodput_rate": knee["goodput_rate"],
        # Past the knee (1.33x and 2x its 900 req/s): the rows a congestion
        # collapse would pull down.
        "goodput_rate_1_33x": goodput[1200.0],
        "goodput_rate_2x": goodput[1800.0],
        "slo_attainment_at_knee": knee["slo_attainment"],
        "trace_goodput_rate": trace_row["goodput_rate"],
        "trace_slo_attainment": trace_row["slo_attainment"],
        "events_per_request_1k": epr_small,
        "events_per_request_10k": epr_large,
        "events_per_request_ratio": ratio(epr_large, epr_small),
        "heap_size_end_10k": large["heap_size_end"],
        "commands_dropped_10k": large["commands_dropped"],
        "interactive_ttft_p99_ms_at_knee": knee["per_class"]["interactive"]["ttft"]["p99_ms"],
        "interactive_tpot_p99_ms_at_knee": knee["per_class"]["interactive"]["tpot"]["p99_ms"],
    }
