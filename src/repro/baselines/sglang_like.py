"""SGLang-like serving system: monolithic engine + RadixAttention prefix reuse.

SGLang's programming primitives (fork/join/gen) are driven from the client
side; the serving gain over vLLM comes from the radix tree reusing shared
prefixes across the requests those primitives issue.  Structured (EBNF)
generation carries a smaller per-step overhead than vLLM's because the
grammar mask is compiled, which is how the paper's Figure 8 ends up with
Pie ≈ SGLang > vLLM > LMQL on that workload.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.engine import MonolithicEngine
from repro.baselines.request import RequestOutput, SamplingConfig
from repro.gpu.config import GpuConfig
from repro.sim.simulator import Simulator


class SglangLikeServer:
    """An SGLang-flavoured baseline server."""

    def __init__(
        self,
        sim: Simulator,
        model_name: str = "llama-sim-1b",
        gpu_config: Optional[GpuConfig] = None,
        constrained_step_overhead_ms: float = 0.3,
        name: str = "sglang",
    ) -> None:
        self.sim = sim
        self.name = name
        self.engine = MonolithicEngine(
            sim,
            model_name=model_name,
            gpu_config=gpu_config,
            use_radix=True,
            name=name,
        )
        self.constrained_step_overhead_ms = constrained_step_overhead_ms

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        sampling = sampling or SamplingConfig()
        if sampling.allowed_bytes_fn is not None:
            self.engine.per_step_overhead_ms = self.constrained_step_overhead_ms
        else:
            self.engine.per_step_overhead_ms = 0.0
        return await self.engine.generate(prompt, sampling)

    async def fork_generate(
        self,
        prompt: str,
        continuations: List[str],
        sampling: Optional[SamplingConfig] = None,
    ) -> List[RequestOutput]:
        """SGLang's fork primitive: one shared prefix, several continuations.

        Each branch is a separate engine request; the radix tree makes the
        shared prompt prefix hit the cache for every branch after the first.
        The first branch runs ahead so its prefix is resident in the tree
        before the siblings are admitted (SGLang shares in-flight prefixes;
        here the same effect is achieved by staggering the first branch).
        """
        sampling = sampling or SamplingConfig()
        if not continuations:
            return []
        first = await self.generate(prompt + continuations[0], sampling)
        rest = [
            self.sim.create_task(self.generate(prompt + continuation, sampling))
            for continuation in continuations[1:]
        ]
        return [first] + await self.sim.gather(rest)

    @property
    def stats(self):
        return self.engine.stats
