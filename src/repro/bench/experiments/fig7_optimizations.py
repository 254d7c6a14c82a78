"""Figure 7: stacked application-specific optimizations on a function-calling
agent (throughput vs number of concurrent agents).

Variants: vLLM client-side baseline, Pie baseline (no optimizations), then
cumulatively +Cache (#1 export/import of API docs), +Call (#2 concurrent
fire-and-forget calls), +Mask (#3 dropping single-use API specs).
"""

from __future__ import annotations

from typing import List

from repro.baselines import BaselineClient, SamplingConfig, VllmLikeServer
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import (
    make_pie_setup,
    ratio,
    run_concurrent_coros,
    run_pie_concurrent,
)
from repro.core.messaging import ExternalServices
from repro.inferlets import make_function_call_agent
from repro.sim import Simulator
from repro.workloads import PromptGenerator, ToolEnvironment

N_CALLS = 4
TOKENS_PER_CALL = 8


def _api_docs() -> List[str]:
    generator = PromptGenerator(seed=3)
    return [f"api_{i}(args): {generator.prompt(200)}" for i in range(4)]


def _pie_variant(n_agents: int, use_cache: bool, concurrent: bool, mask: bool) -> float:
    sim, server = make_pie_setup(seed=4)
    docs = _api_docs()
    programs = [
        make_function_call_agent(
            docs,
            n_calls=N_CALLS,
            tokens_per_call=TOKENS_PER_CALL,
            use_doc_cache=use_cache,
            concurrent_calls=concurrent,
            mask_used_specs=mask,
            name=f"funccall_{use_cache}_{concurrent}_{mask}_{index}",
        )
        for index in range(n_agents)
    ]
    _, elapsed = run_pie_concurrent(server, programs)
    return ratio(n_agents, elapsed)


def _vllm_baseline(n_agents: int) -> float:
    sim = Simulator(seed=4)
    external = ExternalServices(sim)
    ToolEnvironment(sim, external)
    server = VllmLikeServer(sim, enable_prefix_caching=True)
    docs = "\n".join(_api_docs()) + "\n"

    def agent(index: int):
        client = BaselineClient(sim, server, external=external, rtt_ms=25.0)
        return client.run_agent_loop(
            docs + f"(agent {index})",
            "http://tools/web-api",
            N_CALLS,
            tokens_per_turn=TOKENS_PER_CALL,
            sampling=SamplingConfig(max_tokens=TOKENS_PER_CALL),
        )

    _, elapsed = run_concurrent_coros(sim, [agent(i) for i in range(n_agents)])
    return ratio(n_agents, elapsed)


VARIANTS = (
    ("vllm (baseline)", None),
    ("pie (baseline)", (False, False, False)),
    ("+ cache (#1)", (True, False, False)),
    ("+ call (#2)", (True, True, False)),
    ("+ mask (#3)", (True, True, True)),
)


def run(quick: bool = True) -> ExperimentResult:
    agent_counts = (1, 4, 8) if quick else (1, 16, 32, 64, 128)
    result = ExperimentResult(
        name="Figure 7",
        description="Throughput (agents/s) of the function-calling agent with stacked optimizations",
    )
    for n_agents in agent_counts:
        for label, flags in VARIANTS:
            if flags is None:
                value = _vllm_baseline(n_agents)
            else:
                value = _pie_variant(n_agents, *flags)
            result.add_row(agents=n_agents, variant=label, throughput_agents_per_s=value)
    result.add_note(
        "Paper: stacked optimizations reach ~3.5x the vLLM baseline throughput at 128 agents."
    )
    return result
