"""LMQL-like baseline: constrained generation orchestrated outside the engine.

LMQL evaluates its query constraints in the host language between decoding
steps, so every token pays an orchestration overhead on top of the engine's
step time.  It supports text completion, structured (EBNF-style) output and
beam search, which is exactly the column the paper's Figure 8 shows for it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.request import RequestOutput, SamplingConfig
from repro.baselines.vllm_like import BeamResult, VllmLikeServer
from repro.sim.simulator import Simulator

#: Host time the query's constraints take between two steps, read when an
#: :class:`LmqlLikeServer` is built.
PER_STEP_ORCHESTRATION_MS = 6.0


class LmqlLikeServer:
    """An LMQL-flavoured baseline (engine + heavy per-step orchestration)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._inner = VllmLikeServer(sim, enable_prefix_caching=False, name="lmql")
        self.per_step_orchestration_ms = PER_STEP_ORCHESTRATION_MS

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        self._inner.engine.per_step_overhead_ms = self.per_step_orchestration_ms
        return await self._inner.engine.generate(prompt, sampling or SamplingConfig())

    async def generate_beam(
        self, prompt: str, beam_width: int = 3, max_tokens: int = 16
    ) -> BeamResult:
        self._inner.engine.per_step_overhead_ms = self.per_step_orchestration_ms
        return await self._inner.generate_beam(prompt, beam_width=beam_width, max_tokens=max_tokens)

    @property
    def stats(self):
        return self._inner.stats
