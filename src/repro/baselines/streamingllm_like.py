"""StreamingLLM-like baseline: a specialised attention-sink implementation.

The original StreamingLLM is a single-sequence research implementation (no
paged KV, no batching, unoptimised kernels); the paper reports Pie's
inferlet version achieving 1.5x lower latency and >30x higher throughput.
This baseline reproduces those structural handicaps: it serves one request
at a time and its kernels carry a constant penalty relative to the shared
FlashInfer-like cost model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.baselines.engine import MonolithicEngine
from repro.baselines.request import GenerationRequest, RequestOutput, SamplingConfig
from repro.gpu.config import GpuConfig
from repro.sim.futures import SimFuture
from repro.sim.simulator import Simulator

#: The unoptimised kernels' cost relative to the shared cost model, read
#: when a :class:`StreamingLlmServer` is built.
KERNEL_PENALTY = 1.5


class StreamingLlmServer:
    """Single-stream attention-sink serving (no batching across requests)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.engine = MonolithicEngine(
            sim,
            gpu_config=GpuConfig(max_batch_rows=1),
            kernel_penalty=KERNEL_PENALTY,
            name="streamingllm",
        )
        self._queue: Deque[Tuple[GenerationRequest, SimFuture]] = deque()
        self._busy = False

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        """Serve one streaming-generation request (strictly one at a time)."""
        request = GenerationRequest(prompt=prompt, sampling=sampling or SamplingConfig())
        future = self.sim.create_future(name=f"streamingllm:req{request.request_id}")
        self._queue.append((request, future))
        self._pump()
        return await future

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        request, future = self._queue.popleft()
        self.sim.create_task(self._serve(request, future), name="streamingllm-serve")

    async def _serve(self, request: GenerationRequest, future: SimFuture) -> None:
        try:
            output = await self.engine.generate(request.prompt, request.sampling)
            future.set_result(output)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            future.set_exception(exc)
        finally:
            self._busy = False
            self._pump()

    @property
    def stats(self):
        return self.engine.stats
