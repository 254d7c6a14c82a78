"""Figure 6: latency and throughput of agentic workflows.

Pie hosts the agents as inferlets (tool calls in-runtime, KV cache retained
across interactions); vLLM and SGLang host them as client-side loops that
pay a network round trip per interaction and re-prefill the conversation
history (mitigated by their prefix caches).
"""

from __future__ import annotations

from repro.baselines import BaselineClient, SamplingConfig, SglangLikeServer, VllmLikeServer
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import (
    make_pie_setup,
    normalize,
    ratio,
    run_concurrent_coros,
    run_pie_concurrent,
    run_pie_single,
)
from repro.core.messaging import ExternalServices
from repro.inferlets import make_codeact_agent, make_react_agent, make_swarm_agent
from repro.sim import Simulator
from repro.workloads import AGENT_WORKLOADS, PromptGenerator, ToolEnvironment

AGENTS = ("react", "codeact", "swarm")


def _pie_agent_program(agent: str, index: int = 0):
    workload = AGENT_WORKLOADS[agent]
    prompt = PromptGenerator(seed=index).system_prompt(
        n_tools=3, doc_tokens=workload.system_prompt_tokens // 3
    )
    if agent == "react":
        return make_react_agent(workload, prompt, name=f"agent_react_{index}")
    if agent == "codeact":
        return make_codeact_agent(workload, prompt, name=f"agent_codeact_{index}")
    return make_swarm_agent(workload, prompt, topic=f"swarm-{index}", name=f"agent_swarm_{index}")


def _run_pie(agent: str, n_agents: int):
    sim, server = make_pie_setup(seed=1)
    single = run_pie_single(server, _pie_agent_program(agent, index=1000))
    programs = [_pie_agent_program(agent, index=i) for i in range(n_agents)]
    _, elapsed = run_pie_concurrent(server, programs)
    return single.latency, ratio(n_agents, elapsed)


def _run_baseline(agent: str, n_agents: int, system: str):
    workload = AGENT_WORKLOADS[agent]
    sim = Simulator(seed=2)
    external = ExternalServices(sim)
    ToolEnvironment(sim, external)
    if system == "vllm":
        server = VllmLikeServer(sim, enable_prefix_caching=True)
    else:
        server = SglangLikeServer(sim)
    prompt = PromptGenerator(seed=0).system_prompt(
        n_tools=3, doc_tokens=workload.system_prompt_tokens // 3
    )

    def agent_coro(index: int):
        client = BaselineClient(sim, server, external=external, rtt_ms=40.0)
        return client.run_agent_loop(
            prompt + f" (agent {index})",
            workload.tool_url,
            workload.n_interactions,
            tokens_per_turn=workload.tokens_per_turn,
            sampling=SamplingConfig(max_tokens=workload.tokens_per_turn),
        )

    # Single-agent latency.
    start = sim.now
    sim.run_until_complete(agent_coro(10_000))
    latency = sim.now - start
    # Concurrent throughput.
    _, elapsed = run_concurrent_coros(sim, [agent_coro(i) for i in range(n_agents)])
    return latency, ratio(n_agents, elapsed)


def run(quick: bool = True) -> ExperimentResult:
    n_agents = 3 if quick else 16
    result = ExperimentResult(
        name="Figure 6",
        description="Agentic workflow latency (s) and throughput (agents/s), Pie vs vLLM vs SGLang",
    )
    for agent in AGENTS:
        latencies = {}
        throughputs = {}
        latencies["pie"], throughputs["pie"] = _run_pie(agent, n_agents)
        latencies["vllm"], throughputs["vllm"] = _run_baseline(agent, n_agents, "vllm")
        latencies["sglang"], throughputs["sglang"] = _run_baseline(agent, n_agents, "sglang")
        norm_latency = normalize(latencies, "latency")
        norm_throughput = normalize(throughputs, "throughput")
        for system in ("pie", "vllm", "sglang"):
            result.add_row(
                workload=agent,
                system=system,
                latency_s=latencies[system],
                throughput_agents_per_s=throughputs[system],
                norm_latency=norm_latency[system],
                norm_throughput=norm_throughput[system],
            )
    result.add_note(
        "Paper: Pie latencies 4.27/3.18/6.14 s and throughputs 29.94/40.18/5.21 agents/s "
        "(ReACT/CodeACT/Swarm) on an L4 GPU; shapes (Pie fastest, gap grows with I/O count) "
        "are the reproduction target."
    )
    return result
