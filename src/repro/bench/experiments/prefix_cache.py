"""Automatic prefix caching: token-addressed KV reuse (beyond the paper).

The paper's agent fleets share long system prompts, but Pie as published
only reuses KV across inferlets when the *application* orchestrates it
(``export_kvpage`` / ``import_kvpage``).  The control layer's automatic
prefix cache (:mod:`repro.core.prefix_cache`) registers committed KV pages
under their token chain and transparently rewrites later ``forward`` calls
whose prompts share a page-aligned prefix, skipping the prefill compute —
the optimisation monolithic engines ship as hash-chained block reuse
(vLLM) or RadixAttention (SGLang), both reproduced in ``repro.baselines``.

The experiment launches a staggered fleet of agents that share one long
system prompt (each with a unique task suffix) and compares:

* ``cache_off``     — the stock system (``prefix_cache=False``, the exact
  pre-cache serving path);
* ``cache_on``      — one device with the prefix cache enabled;
* ``cache_cluster`` — two devices under ``cache_affinity`` placement with
  per-program prompt-prefix hints, so the router sends every fleet member
  to the shard whose index already holds the prompt.  The router places
  by load first and by cached prefix second; the 0.2 s stagger lets each
  agent finish before the next launches, so every placement is a tie on
  occupancy and the cached prefix decides it.  (An agent placed beside a
  busy holder would copy the prompt's pages from the holder's cache, not
  re-prefill them; none is here, so the row equals ``cache_on``.)

Because cached pages hold exactly the KV the importer would have computed,
generation is bit-identical with the cache on; the run is simply cheaper.
Headline quantities: prefill tokens saved (the benchmark asserts >= 25 %
of the baseline's forward tokens) and the exact compute account
``on.forward_tokens + on.saved_tokens == off.forward_tokens``.
"""

from __future__ import annotations

from functools import partial

from repro.bench.compare import compare_arms
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import Launch, launch_fleet, make_pie_setup, ratio
from repro.core.inferlet import InferletProgram
from repro.support import Context, SamplingParams

#: The shared system prompt: long enough to span several 16-token pages
#: (byte-level tokenizer: one token per character).
SYSTEM_PROMPT = (
    "You are a meticulous research assistant serving a large fleet. "
    "Follow the house style guide, cite primary sources, think step by "
    "step, and keep every answer short, factual and reproducible. "
)


def _make_fleet_agent(index: int, prefix_hint: bool) -> InferletProgram:
    """One fleet member: shared system prompt + a unique task suffix."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(SYSTEM_PROMPT + f"Task {index}: summarize source {index}. ")
        answer = await context.generate_until(max_tokens=4)
        context.free()
        return answer

    return InferletProgram(
        name=f"fleet_agent_{index}",
        main=main,
        description="shared-system-prompt fleet agent (prefix-cache experiment)",
        requirements=("R1", "R3"),
        prefix_hint=SYSTEM_PROMPT if prefix_hint else None,
    )


#: Server overrides of the three arms.
ARMS = {
    "cache_off": dict(prefix_cache=False),
    "cache_on": dict(prefix_cache=True),
    "cache_cluster": dict(prefix_cache=True, num_devices=2, placement_policy="cache_affinity"),
}


def run_fleet(n_agents: int = 12, stagger_s: float = 0.2, **overrides) -> dict:
    """Run the shared-prompt fleet; returns summary counters.

    ``overrides`` are server configuration shorthands: an arm of ``ARMS``.
    """
    _, server = make_pie_setup(seed=1, with_tools=False, **overrides)
    control = server.config.control
    hinted = control.prefix_cache and control.placement_policy == "cache_affinity"
    run = launch_fleet(
        server,
        [
            Launch(_make_fleet_agent(i, prefix_hint=hinted), i * stagger_s)
            for i in range(n_agents)
        ],
    )
    metrics = server.metrics
    return {
        "finished": run.finished,
        "forward_tokens": metrics.forward_input_tokens,
        "saved_tokens": metrics.prefix_cache_saved_tokens,
        "hits": metrics.prefix_cache_hits,
        "misses": metrics.prefix_cache_misses,
        "inserted_pages": metrics.prefix_cache_inserted_pages,
        "output_tokens": metrics.total_output_tokens,
        "terminated": metrics.inferlets_terminated,
        "placements": dict(metrics.placements_by_device),
        "results": tuple(r.result for r in run.results),
        "elapsed": run.elapsed,
        "throughput": ratio(run.finished, run.elapsed),
    }


def run(quick: bool = True) -> ExperimentResult:
    n_agents = 12 if quick else 24
    compared = compare_arms(partial(run_fleet, n_agents), ARMS)
    baseline_tokens = compared.raw["cache_off"]["forward_tokens"]
    result = ExperimentResult(
        name="Automatic prefix cache",
        description=(
            f"Staggered fleet of {n_agents} agents sharing a "
            f"{len(SYSTEM_PROMPT)}-token system prompt: prefill compute with "
            "the control layer's token-addressed prefix cache off vs on"
        ),
        rows=compared.rows(
            lambda row: dict(
                finished=row["finished"],
                forward_tokens=row["forward_tokens"],
                saved_tokens=row["saved_tokens"],
                saved_frac=round(row["saved_tokens"] / max(1, baseline_tokens), 3),
                hits=row["hits"],
                misses=row["misses"],
                inserted_pages=row["inserted_pages"],
                output_tokens=row["output_tokens"],
                elapsed_s=row["elapsed"],
                throughput_agents_per_s=row["throughput"],
            )
        ),
        raw=compared.raw,
    )
    result.add_note(
        "Beyond the paper: automatic (system-wide) prefix reuse inside the "
        "Pie control layer.  Saved tokens never reach a forward command; "
        "generation is bit-identical because cached pages hold exactly the "
        "KV the importer would have computed.  The cluster row routes the "
        "whole fleet to the shard holding the prompt via cache_affinity + "
        "prefix hints: cache_affinity places by load first, and the stagger "
        "leaves every launch a tie on occupancy, which the cached prefix "
        "breaks.  A launch that found the holder busy would go to the other "
        "shard and copy the prompt's pages from the holder's cache over the "
        "pair's link instead of re-prefilling them; with this stagger none "
        "does, so the row equals cache_on."
    )
    return result
