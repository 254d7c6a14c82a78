"""External tool environments and the agentic workload definitions (§7.1).

The paper evaluates three representative agents with fixed numbers of
external interactions per agent: ReACT (web API calls, 8 I/Os), CodeACT
(code execution, 8 I/Os) and Swarm (inter-agent communication, 32 I/Os).
:class:`ToolEnvironment` registers the simulated endpoints those agents
call; :class:`AgentWorkload` captures the per-agent parameters so Pie and
the baselines run exactly the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messaging import ExternalServices
from repro.sim.latency import ConstantLatency, milliseconds
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class AgentWorkload:
    """Parameters of one agentic workload."""

    name: str
    n_interactions: int
    tool_url: str
    tool_latency_ms: float
    tokens_per_turn: int
    system_prompt_tokens: int


#: The three agents of Figure 6, with the paper's I/O counts.
AGENT_WORKLOADS = {
    "react": AgentWorkload(
        name="react",
        n_interactions=8,
        tool_url="http://tools/web-api",
        tool_latency_ms=60.0,
        tokens_per_turn=12,
        system_prompt_tokens=96,
    ),
    "codeact": AgentWorkload(
        name="codeact",
        n_interactions=8,
        tool_url="http://tools/code-exec",
        tool_latency_ms=40.0,
        tokens_per_turn=10,
        system_prompt_tokens=96,
    ),
    "swarm": AgentWorkload(
        name="swarm",
        n_interactions=32,
        tool_url="http://tools/peer-agent",
        tool_latency_ms=20.0,
        tokens_per_turn=6,
        system_prompt_tokens=64,
    ),
}


class ToolEnvironment:
    """Registers the simulated external tools the agents call."""

    def __init__(self, sim: Simulator, external: ExternalServices = None) -> None:
        self.sim = sim
        self.external = external or ExternalServices(sim)
        self._install()

    def _install(self) -> None:
        def web_api(payload):
            return f"web-result({str(payload)[:24]})"

        def code_exec(payload):
            return f"stdout: ok ({len(str(payload))} bytes)"

        def peer_agent(payload):
            return f"peer-reply({str(payload)[:16]})"

        def search(payload):
            return f"search-hits({str(payload)[:16]})"

        self.external.register(
            "http://tools/web-api", web_api, ConstantLatency(milliseconds(60.0))
        )
        self.external.register(
            "http://tools/code-exec", code_exec, ConstantLatency(milliseconds(40.0))
        )
        self.external.register(
            "http://tools/peer-agent", peer_agent, ConstantLatency(milliseconds(20.0))
        )
        self.external.register(
            "http://tools/search", search, ConstantLatency(milliseconds(50.0))
        )
