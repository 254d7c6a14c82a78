"""Tiered KV memory: host-memory swapping vs. FCFS termination (beyond the paper).

The paper's motivating agent workloads hold KV pages while blocked on
external tool calls.  On a device whose HBM cannot hold every live
context, the stock contention policy (FCFS termination) destroys computed
state; the tiered memory subsystem (:mod:`repro.core.swap` over
:class:`repro.gpu.host_pool.HostMemoryPool`) stages the KV of blocked
inferlets to host DRAM over PCIe and restores it before they resume.

The experiment offers a fleet of I/O-heavy research agents — short
reasoning bursts punctuated by slow (300 ms) tool calls, Poisson-like
staggered arrivals — to a deployment whose device KV pool holds only a
fraction of the fleet's total working set, and compares:

* ``host_kv_pages = 0``      — the swap-disabled baseline (seed behaviour);
* ``host_kv_pages > 0``      — proactive suspend/resume swapping;
* ``swap_policy=on_demand``  — swap-first *reclamation* only (pages move
  just when an allocation would otherwise terminate a victim).

Expected outcome: with the host tier, strictly fewer inferlet
terminations (ideally zero) and at-least-equal finished-agent throughput,
at the price of PCIe traffic and swap-in stall time — both reported.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.bench.compare import compare_arms
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import Launch, launch_fleet, make_pie_setup, ratio
from repro.core.inferlet import InferletProgram
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams

#: The slow external dependency the agents block on (a CRM/database-style
#: endpoint, far slower than the paper's 20-60 ms web tools).
SLOW_TOOL_URL = "http://tools/slow-crm"
SLOW_TOOL_LATENCY_S = 0.3

#: Device KV pool small enough that the fleet's total working set
#: overcommits it ~2.5x, while the *runnable* subset (most agents are
#: parked on the slow tool at any instant) still fits.
DEVICE_KV_PAGES = 48
HOST_KV_PAGES = 192

SYSTEM_PROMPT = "You are a research agent. "
#: Staggered arrivals (seconds between launches) and tool calls per agent.
STAGGER_S = 0.06
N_INTERACTIONS = 4


def _make_io_agent(index: int, n_interactions: int) -> InferletProgram:
    """A ReACT-style agent dominated by slow external calls."""
    max_tokens = 3 + (index % 3)

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(SYSTEM_PROMPT)
        for step in range(n_interactions):
            await context.generate_until(max_tokens=max_tokens)
            observation = await ctx.http_get(SLOW_TOOL_URL)
            await context.fill(f"o{step}:{observation} ")
        answer = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return answer

    return InferletProgram(
        name=f"io_agent_{index}",
        main=main,
        description="I/O-heavy research agent (tiered-memory experiment)",
        requirements=("R1", "R2", "R3"),
    )


def arms(host_pages: int = HOST_KV_PAGES) -> Dict[str, Dict]:
    """Server overrides of the three arms."""
    return {
        "fcfs_baseline": dict(host_kv_pages=0),
        "swap_proactive": dict(host_kv_pages=host_pages, swap_policy="proactive"),
        "swap_on_demand": dict(host_kv_pages=host_pages, swap_policy="on_demand"),
    }


def run_fleet(n_agents: int = 16, **overrides) -> dict:
    """Run the agent fleet under KV pressure; returns summary counters.

    ``overrides`` are server configuration shorthands: an arm of :func:`arms`.
    """
    _, server = make_pie_setup(seed=1, num_kv_pages=DEVICE_KV_PAGES, **overrides)
    server.register_external(
        SLOW_TOOL_URL, lambda payload: "rows", ConstantLatency(SLOW_TOOL_LATENCY_S)
    )
    run = launch_fleet(
        server,
        [Launch(_make_io_agent(i, N_INTERACTIONS), i * STAGGER_S) for i in range(n_agents)],
    )
    metrics = server.metrics
    return {
        "host_kv_pages": server.config.gpu.host_kv_pages,
        "finished": run.finished,
        "terminated": metrics.inferlets_terminated,
        "reclamation_terminations": metrics.reclamation_terminations,
        "reclamation_swaps": metrics.reclamation_swaps,
        "swap_outs": metrics.swap_outs,
        "swap_ins": metrics.swap_ins,
        "pages_swapped_out": metrics.kv_pages_swapped_out,
        "bytes_swapped_out": metrics.bytes_swapped_out,
        "swap_stall_s": metrics.swap_stall_seconds,
        "elapsed": run.elapsed,
        "throughput": ratio(run.finished, run.elapsed),
    }


def run(quick: bool = True) -> ExperimentResult:
    n_agents = 16 if quick else 32
    host_pages = HOST_KV_PAGES if quick else 2 * HOST_KV_PAGES
    compared = compare_arms(partial(run_fleet, n_agents), arms(host_pages))
    result = ExperimentResult(
        name="Tiered KV memory",
        description=(
            f"I/O-heavy agent fleet ({n_agents} agents, {SLOW_TOOL_LATENCY_S*1e3:.0f} ms "
            f"tool calls) on a {DEVICE_KV_PAGES}-page device: FCFS termination vs "
            f"host-memory suspend/resume swapping"
        ),
        rows=compared.rows(
            lambda row: dict(
                host_kv_pages=row["host_kv_pages"],
                finished=row["finished"],
                terminated=row["terminated"],
                reclamation_swaps=row["reclamation_swaps"],
                swap_outs=row["swap_outs"],
                swap_ins=row["swap_ins"],
                pages_swapped=row["pages_swapped_out"],
                swap_stall_s=row["swap_stall_s"],
                throughput_agents_per_s=row["throughput"],
                elapsed_s=row["elapsed"],
            )
        ),
        raw=compared.raw,
    )
    result.add_note(
        "Beyond the paper: the host tier turns destructive FCFS reclamation "
        "into suspend/resume.  Proactive staging swaps every blocked agent; "
        "on_demand moves pages only when an allocation would otherwise kill "
        "a victim.  Stall time is the virtual time agents waited on PCIe "
        "swap-ins after their tool call returned."
    )
    return result
