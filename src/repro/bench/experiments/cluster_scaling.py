"""Cluster scaling: aggregate agent throughput from 1 to N simulated GPUs.

The paper evaluates Pie on a single L4; this experiment is the repo's
extension toward production-scale serving (ROADMAP north star): the same
Figure-6 agent workloads are offered to deployments with 1, 2, 4 and 8
simulated devices behind the adaptive scheduler, with the cluster router
(:mod:`repro.core.router`) spreading the inferlets across the devices.
Because each device runs its own work-conserving batch scheduler over its
own KV memory, aggregate throughput should scale (sub-linearly — launch
handling and per-call control-layer overheads remain centralised, and
smaller per-device batches lose a little batching efficiency, exactly the
data-parallel trade-off described in parallel-serving work such as
HydraServe/ParaServe).
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.reporting import ExperimentResult
from repro.bench.runners import make_pie_setup, ratio, run_pie_concurrent
from repro.inferlets import make_codeact_agent, make_react_agent
from repro.workloads import AGENT_WORKLOADS, PromptGenerator

DEVICE_COUNTS = (1, 2, 4, 8)


def _agent_program(agent: str, index: int):
    workload = AGENT_WORKLOADS[agent]
    prompt = PromptGenerator(seed=index).system_prompt(
        n_tools=3, doc_tokens=workload.system_prompt_tokens // 3
    )
    if agent == "codeact":
        return make_codeact_agent(workload, prompt, name=f"cluster_codeact_{index}")
    return make_react_agent(workload, prompt, name=f"cluster_react_{index}")


def _run_cluster(
    agent: str, n_agents: int, num_devices: int, placement_policy: str
) -> dict:
    sim, server = make_pie_setup(
        seed=1, num_devices=num_devices, placement_policy=placement_policy
    )
    programs = [_agent_program(agent, index=i) for i in range(n_agents)]
    results, elapsed = run_pie_concurrent(server, programs)
    stats = server.cluster_stats()
    return {
        "finished": sum(1 for r in results if r.status == "finished"),
        "elapsed": elapsed,
        "throughput": ratio(n_agents, elapsed),
        "batches": stats.combined.batches_dispatched,
        "mean_batch_size": stats.combined.mean_batch_size,
        "utilization": server.service().pool.utilization(),
    }


def run(
    quick: bool = True,
    device_counts: Sequence[int] = DEVICE_COUNTS,
    placement_policy: str = "round_robin",
) -> ExperimentResult:
    agents = ("react",) if quick else ("react", "codeact")
    n_agents = 16 if quick else 32
    result = ExperimentResult(
        name="Cluster scaling",
        description=(
            f"Aggregate agent throughput vs. simulated device count "
            f"({n_agents} concurrent agents, policy={placement_policy})"
        ),
    )
    for agent in agents:
        base_throughput = None
        for num_devices in device_counts:
            row = _run_cluster(agent, n_agents, num_devices, placement_policy)
            if base_throughput is None:
                base_throughput = row["throughput"]
            result.add_row(
                workload=agent,
                num_devices=num_devices,
                throughput_agents_per_s=row["throughput"],
                speedup_vs_1dev=(
                    row["throughput"] / base_throughput if base_throughput else None
                ),
                elapsed_s=row["elapsed"],
                batches=row["batches"],
                mean_batch_size=row["mean_batch_size"],
                device_utilization=row["utilization"],
                finished=row["finished"],
            )
    result.add_note(
        "Extension beyond the paper's single-L4 setup: data-parallel device "
        "shards behind per-device adaptive schedulers; expect monotonically "
        "non-decreasing throughput with diminishing returns once the offered "
        "load no longer saturates the cluster."
    )
    return result
