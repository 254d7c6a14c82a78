"""Remote client for the baseline serving systems.

The client models the paper's baseline deployment (Figure 5, left): the
application logic lives in the client, which pays a network round trip for
every generation request and must itself call external tools between
requests.  The continuation after a tool call is submitted as a *new*
request carrying the full interaction history — the re-prefill the paper
identifies as the second cost of the monolithic architecture (prefix
caching can recover part of it).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.baselines.request import RequestOutput, SamplingConfig
from repro.core.messaging import ExternalServices
from repro.sim.latency import ConstantLatency, milliseconds
from repro.sim.network import NetworkLink
from repro.sim.simulator import Simulator


class BaselineClient:
    """Client-side application driver for a baseline server."""

    def __init__(
        self,
        sim: Simulator,
        server,
        external: Optional[ExternalServices] = None,
        rtt_ms: float = 25.0,
    ) -> None:
        self.sim = sim
        self.server = server
        self.external = external
        self.link = NetworkLink(
            sim, ConstantLatency(milliseconds(rtt_ms / 2.0)), name="baseline-client"
        )
        self.generation_requests = 0
        self.tool_calls = 0

    # -- plain generation --------------------------------------------------------

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        """One generation request including the network round trip."""
        self.generation_requests += 1
        await self.link.send(prompt, size_bytes=len(prompt))
        output = await self.server.generate(prompt, sampling)
        await self.link.send(output.text, size_bytes=len(output.text))
        return output

    # -- tool use ------------------------------------------------------------------

    async def call_tool(self, url: str, payload: Any = None) -> Any:
        """Call an external tool from the client side."""
        if self.external is None:
            raise RuntimeError("this client has no external-services registry")
        self.tool_calls += 1
        return await self.external.request(url, payload)

    # -- agentic loop ------------------------------------------------------------------

    async def run_agent_loop(
        self,
        system_prompt: str,
        tool_url: str,
        n_interactions: int,
        tokens_per_turn: int = 16,
        sampling: Optional[SamplingConfig] = None,
    ) -> List[RequestOutput]:
        """The baseline implementation of an agentic workflow (Figure 5, left).

        Every interaction is: generate (round trip + possible re-prefill of
        the whole history) -> client-side tool call -> append the
        observation to the context -> repeat.
        """
        sampling = sampling or SamplingConfig(max_tokens=tokens_per_turn)
        history = system_prompt
        outputs: List[RequestOutput] = []
        for step in range(n_interactions):
            output = await self.generate(history, sampling)
            outputs.append(output)
            observation = await self.call_tool(tool_url, output.text)
            history = f"{history}{output.text}\nObservation {step}: {observation}\n"
        final = await self.generate(history, sampling)
        outputs.append(final)
        return outputs
