"""Multi-tenant QoS: SLO-aware serving vs undifferentiated FCFS (beyond the paper).

Two tenants share one overcommitted device: a *batch* tenant running a
fleet of I/O-heavy mining agents (long contexts, slow tool calls — the
pattern from :mod:`repro.bench.experiments.tiered_memory`) and an
*interactive* tenant sending short chat turns throughout the run.  Served
as one undifferentiated FCFS pool, the chat turns rot behind the miners'
batched prefills and lose the reclamation lottery under memory pressure.

With the QoS subsystem on (:mod:`repro.core.qos`), the same traffic is
shaped by the full control plane:

* the batch tenant's launches pass admission control (concurrency cap),
* candidate batches are scored by class-weighted slack-to-deadline, so
  chat forwards dispatch ahead of miner backlog (and survive batch-row
  truncation via the per-class merge stride),
* the tenants' classes order the core's preemption victims
  (``Controller.victim_key``: lowest class, then most slack), so the miners
  absorb the memory pressure,
* an aging bound keeps the miners from starving outright.

Expected outcome: interactive p99 TTFT improves >= 2x at <= 10% cost in
total finished-token throughput, with zero interactive-class reclamation
terminations.  The ``qos=off`` row must be bit-identical run-to-run (it
takes the exact pre-QoS code path).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.bench.compare import compare_arms
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import Launch, launch_fleet, make_pie_setup
from repro.core import InferletProgram, TenantSpec
from repro.core.metrics import met, percentile
from repro.core.qos import CLASS_TTFT_SLO_MS
from repro.sim.latency import ConstantLatency
from repro.support import Context, SamplingParams
from repro.support.forkjoin import fork_join

#: The slow external dependency the batch miners block on.
SLOW_TOOL_URL = "http://tools/slow-warehouse"
SLOW_TOOL_LATENCY_S = 0.25

#: Device KV pool small enough that the miner fleet's branch exploration
#: overcommits it at peak, while the host tier can absorb blocked miners.
DEVICE_KV_PAGES = 160
HOST_KV_PAGES = 256
#: Small batch-row budget: miner backlog must be truncated across several
#: rounds, which is exactly where merge priority decides who waits.
MAX_BATCH_ROWS = 8

INTERACTIVE_TENANT = "chat"
BATCH_TENANT = "miner"
#: Launch schedule (seconds): the miners ramp up from t=0, the chat turns
#: keep arriving throughout the run.
MINER_STAGGER_S = 0.03
CHAT_START_S = 0.12
CHAT_STAGGER_S = 0.09

MINER_PROMPT = (
    "System: you are a data-mining agent; plan queries against the "
    "warehouse, read the rows back, and keep a running summary. "
)
CHAT_PROMPT = "User: quick question — "


def _make_miner(
    index: int, n_interactions: int, n_branches: int = 4, branch_tokens: int = 4
) -> InferletProgram:
    """An I/O-heavy batch agent exploring parallel branches between tool calls.

    Each interaction forks the context into ``n_branches`` concurrent
    decode branches (Tree-of-Thought style, §6.3) — the deep per-agent
    command pipeline this produces is what makes undifferentiated FCFS
    dispatch hurt interactive co-tenants.
    """
    max_tokens = branch_tokens + (index % 3)

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(MINER_PROMPT + f"Shard {index}. ")

        async def branch(child: Context, _i: int):
            return await child.generate_until(max_tokens=max_tokens)

        for step in range(n_interactions):
            thoughts = await fork_join(ctx, context, branch, n_branches)
            rows = await ctx.http_get(SLOW_TOOL_URL)
            await context.fill(f"rows{step}:{rows}:{len(thoughts)} ")
        answer = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return answer

    return InferletProgram(
        name=f"{BATCH_TENANT}_{index}",
        main=main,
        description="batch-tenant mining agent (QoS experiment)",
        requirements=("R1", "R2", "R3"),
    )


def _make_chat(index: int) -> InferletProgram:
    """A short interactive turn: tiny prefill, few output tokens."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(CHAT_PROMPT + f"item {index}? ")
        answer = await context.generate_until(max_tokens=4)
        context.free()
        return answer

    return InferletProgram(
        name=f"{INTERACTIVE_TENANT}_{index}",
        main=main,
        description="interactive-tenant chat turn (QoS experiment)",
        requirements=("R1",),
    )


def tenant_specs(n_miners: int) -> List[TenantSpec]:
    """The serving contracts for the two tenants of the experiment."""
    # Mild admission backpressure: the last couple of miner launches park
    # in the admission queue (deep enough that none are rejected) until a
    # slot frees.  Tightening the cap trades miner completion time for even
    # better interactive latency.
    return [
        TenantSpec(name=INTERACTIVE_TENANT, priority_class="interactive"),
        TenantSpec(
            name=BATCH_TENANT,
            priority_class="batch",
            max_concurrent=max(2, n_miners - 2),
            max_queued=4 * n_miners,
        ),
    ]


def arms(n_miners: int = 16) -> Dict[str, Dict]:
    """Server overrides of the two arms (``tenants`` switches ``qos`` on)."""
    return {"qos_off": {}, "qos_on": dict(tenants=tenant_specs(n_miners))}


def run_fleet(
    n_miners: int = 16,
    n_chats: int = 12,
    device_kv_pages: int = DEVICE_KV_PAGES,
    **overrides,
) -> Dict:
    """Run the mixed-tenant workload; returns per-tenant summary counters.

    ``overrides`` are server configuration shorthands: an arm of :func:`arms`.
    """
    _, server = make_pie_setup(
        seed=1,
        with_tools=False,
        num_kv_pages=device_kv_pages,
        host_kv_pages=HOST_KV_PAGES,
        max_batch_rows=MAX_BATCH_ROWS,
        **overrides,
    )
    server.register_external(
        SLOW_TOOL_URL, lambda payload: "rows", ConstantLatency(SLOW_TOOL_LATENCY_S)
    )
    miners = [_make_miner(i, n_interactions=3) for i in range(n_miners)]
    chats = [_make_chat(i) for i in range(n_chats)]
    # Miners are listed — so launched and seeded — before chats.
    run = launch_fleet(
        server,
        [
            Launch(p, i * MINER_STAGGER_S, {"tenant": BATCH_TENANT})
            for i, p in enumerate(miners)
        ]
        + [
            Launch(p, CHAT_START_S + i * CHAT_STAGGER_S, {"tenant": INTERACTIVE_TENANT})
            for i, p in enumerate(chats)
        ],
    )
    metrics = server.metrics

    chat_rows = run.records_of(chats)
    chat_ttfts = [m.ttft for m in chat_rows if m.ttft is not None]
    chat_tpots = [m.tpot for m in chat_rows if m.tpot is not None]
    # SLO attainment against the interactive-class TTFT target, counting
    # requests that never produced a first token (terminated) as misses —
    # computed identically for the qos=off and qos=on runs (the qos=off
    # chats were launched under the default class, so not off their record).
    ttft_slo_s = CLASS_TTFT_SLO_MS["interactive"] / 1e3
    slo_attainment = (
        sum(1 for t in chat_ttfts if met(t, ttft_slo_s)) / len(chat_rows)
        if chat_rows
        else 1.0
    )
    return {
        **run.readings(),
        "interactive_ttft_p50": percentile(chat_ttfts, 50),
        "interactive_ttft_p99": percentile(chat_ttfts, 99),
        "interactive_tpot_p99": percentile(chat_tpots, 99),
        "interactive_slo_attainment": slo_attainment,
        "interactive_first_tokens": len(chat_ttfts),
        "interactive_terminated": sum(
            1 for m in chat_rows if m.status == "terminated"
        ),
        "batch_terminated": sum(
            1 for m in run.records_of(miners) if m.status == "terminated"
        ),
        "reclamation_terminations": metrics.reclamation_terminations,
        "reclamation_swaps": metrics.reclamation_swaps,
        "qos_admitted": metrics.qos_admitted,
        "qos_queued": metrics.qos_queued,
        "qos_rejected": metrics.qos_rejected,
        "tenant_metrics": {
            name: record for name, record in metrics.tenants.items()
        },
    }


def run(quick: bool = True) -> ExperimentResult:
    n_miners = 16 if quick else 24
    n_chats = 12 if quick else 18
    device_kv_pages = DEVICE_KV_PAGES if quick else DEVICE_KV_PAGES * 3 // 2
    compared = compare_arms(
        partial(run_fleet, n_miners, n_chats, device_kv_pages), arms(n_miners)
    )
    result = ExperimentResult(
        name="Multi-tenant QoS",
        description=(
            f"{n_miners} batch miners (fork-join agents) + {n_chats} interactive "
            f"chat turns on a {device_kv_pages}-page device ({MAX_BATCH_ROWS}-row "
            "batches): undifferentiated FCFS vs SLO-aware admission/dispatch/preemption"
        ),
        rows=compared.rows(
            lambda row: dict(
                finished=row["finished"],
                interactive_ttft_p50_ms=row["interactive_ttft_p50"] * 1e3,
                interactive_ttft_p99_ms=row["interactive_ttft_p99"] * 1e3,
                interactive_slo=row["interactive_slo_attainment"],
                interactive_terminated=row["interactive_terminated"],
                batch_terminated=row["batch_terminated"],
                token_throughput_per_s=row["token_throughput"],
                queued=row["qos_queued"],
                # Every reclamation termination is a preemption the victim
                # order picked, with QoS or without.
                preempt_terms=row["reclamation_terminations"],
                elapsed_s=row["elapsed"],
            )
        ),
        raw=compared.raw,
    )
    result.add_note(
        "Beyond the paper: the QoS layer admits, schedules and preempts by "
        "tenant class.  TTFT is measured from the launch request, so "
        "admission queueing counts against the batch tenant's own SLO; "
        "interactive turns jump the miner backlog via slack scoring and "
        "class merge priority, and memory pressure lands on the miners."
    )
    return result
