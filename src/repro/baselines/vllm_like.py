"""vLLM-like serving system: monolithic engine + automatic prefix caching.

Optionally enables the n-gram prompt-lookup speculative decoding that the
paper's Figure 8 compares against, and provides server-side beam search
(the feature whose complexity nearly got it removed from vLLM, §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.engine import MonolithicEngine
from repro.baselines.request import RequestOutput, SamplingConfig
from repro.gpu.kernels import ForwardRow
from repro.model.sampling import top_k_dist
from repro.sim.simulator import Simulator

#: Host time per step of a constrained request (Outlines-style masks in
#: Python), read when a :class:`VllmLikeServer` is built.
CONSTRAINED_STEP_OVERHEAD_MS = 2.0


@dataclass
class BeamResult:
    """Output of server-side beam search."""

    text: str
    token_ids: List[int]
    logprob: float
    latency: float
    steps: int


class VllmLikeServer:
    """A vLLM-flavoured baseline server."""

    def __init__(
        self,
        sim: Simulator,
        model_name: str = "llama-sim-1b",
        enable_prefix_caching: bool = True,
        enable_ngram_speculation: bool = False,
        name: str = "vllm",
    ) -> None:
        self.sim = sim
        self.name = name
        self.engine = MonolithicEngine(
            sim,
            model_name=model_name,
            enable_prefix_caching=enable_prefix_caching,
            enable_ngram_speculation=enable_ngram_speculation,
            name=name,
        )
        self.constrained_step_overhead_ms = CONSTRAINED_STEP_OVERHEAD_MS

    # -- plain and constrained generation ------------------------------------------

    async def generate(self, prompt: str, sampling: Optional[SamplingConfig] = None) -> RequestOutput:
        sampling = sampling or SamplingConfig()
        if sampling.allowed_bytes_fn is not None:
            # Outlines-style constrained decoding: the mask is evaluated in
            # Python every step, which shows up as per-step overhead.
            self.engine.per_step_overhead_ms = self.constrained_step_overhead_ms
        else:
            self.engine.per_step_overhead_ms = 0.0
        return await self.engine.generate(prompt, sampling)

    # -- server-side beam search ------------------------------------------------------

    async def generate_beam(
        self, prompt: str, beam_width: int = 3, max_tokens: int = 16
    ) -> BeamResult:
        """Beam search executed inside the engine (system-wide feature).

        The implementation recomputes attention over explicit per-beam token
        histories; each step is one batched forward of ``beam_width`` rows
        plus the bookkeeping the monolithic memory manager needs to fork KV
        state (modelled as one page-copy per surviving beam).
        """
        started = self.sim.now
        entry = self.engine.entry
        transformer = entry.transformer
        tokenizer = entry.tokenizer
        prompt_tokens = tokenizer.encode(prompt)

        def full_forward(tokens: List[int]) -> np.ndarray:
            positions = list(range(len(tokens)))
            embeds = transformer.embed_tokens(tokens, positions)
            return transformer.forward_row(embeds, positions, n_outputs=1).hidden[-1]

        # Prefill once for the shared prompt.
        prefill_cost = self.engine.cost_model.forward_batch_cost(
            [ForwardRow(n_input_tokens=len(prompt_tokens))]
        )
        hidden = None

        def run_prefill():
            nonlocal hidden
            hidden = full_forward(prompt_tokens)

        await self.engine.device.submit("beam_prefill", run_prefill, prefill_cost)

        beams: List[dict] = [{"tokens": [], "logprob": 0.0, "hidden": hidden}]
        steps = 0
        for _ in range(max_tokens):
            steps += 1
            rows = [
                ForwardRow(n_input_tokens=1, context_tokens=len(prompt_tokens) + len(b["tokens"]))
                for b in beams
            ]
            cost = self.engine.cost_model.forward_batch_cost(rows)
            # KV fork bookkeeping for surviving beams.
            cost += self.engine.cost_model.copy_batch_cost(max(1, len(beams)))
            candidates: List[dict] = []

            def expand():
                for beam in beams:
                    dist = top_k_dist(transformer.logits(beam["hidden"])[0], k=beam_width * 4)
                    for token, prob in dist.top(beam_width):
                        candidates.append(
                            {
                                "tokens": beam["tokens"] + [token],
                                "logprob": beam["logprob"] + float(np.log(max(prob, 1e-12))),
                            }
                        )

            await self.engine.device.submit("beam_step", expand, cost, size=len(beams))
            candidates.sort(key=lambda c: -c["logprob"])
            survivors = candidates[:beam_width]
            recompute_rows = [
                ForwardRow(n_input_tokens=1, context_tokens=len(prompt_tokens) + len(c["tokens"]))
                for c in survivors
            ]
            recompute_cost = self.engine.cost_model.forward_batch_cost(recompute_rows)

            def recompute():
                for candidate in survivors:
                    candidate["hidden"] = full_forward(prompt_tokens + candidate["tokens"])

            await self.engine.device.submit("beam_rescore", recompute, recompute_cost, size=len(survivors))
            beams = survivors

        best = max(beams, key=lambda b: b["logprob"])
        return BeamResult(
            text=tokenizer.decode(best["tokens"]),
            token_ids=list(best["tokens"]),
            logprob=best["logprob"],
            latency=self.sim.now - started,
            steps=steps,
        )

    # -- stats ----------------------------------------------------------------------------

    @property
    def stats(self):
        return self.engine.stats
