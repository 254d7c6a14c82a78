"""Benchmark regenerating Figure 6: agentic workflow latency and throughput."""

from repro.bench.experiments import fig6_agents


def test_fig6_agents(run_experiment):
    result = run_experiment(fig6_agents)
    # Shape checks mirroring the paper's claims: Pie's throughput is at
    # least competitive on every agent and its advantage is largest on the
    # I/O-heaviest workload (Swarm).
    swarm_rows = {r["system"]: r for r in result.rows if r["workload"] == "swarm"}
    assert swarm_rows["pie"]["throughput_agents_per_s"] >= swarm_rows["sglang"]["throughput_agents_per_s"]
    assert swarm_rows["pie"]["latency_s"] <= swarm_rows["vllm"]["latency_s"] * 1.05
