"""Custom decoding-process inferlets (R2): beam search, speculative decoding,
Jacobi (parallel) decoding.

These are the techniques the paper highlights as hard to fit into a
monolithic loop because they produce a variable number of tokens per step;
as inferlets they are ordinary application code.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.inferlet import InferletProgram
from repro.support import Context
from repro.support.forkjoin import run_parallel


def make_beam_search(
    prompt: str,
    beam_width: int = 3,
    max_tokens: int = 8,
    name: str = "beam_search",
) -> InferletProgram:
    """Beam search over forked contexts.

    Each beam is a forked :class:`Context` sharing the prompt's KV pages;
    when a parent beam survives into several children the extra children
    fork it again.  Only the winning beam's tokens are reported as output
    (matching the paper's Figure-11 accounting).
    """

    async def main(ctx):
        root = Context(ctx)
        await root.fill(prompt)
        beams = [{"context": root, "tokens": [], "logprob": 0.0}]

        for _ in range(max_tokens):
            dists = await run_parallel(
                ctx, [beam["context"].next_dist() for beam in beams]
            )
            candidates = []
            for beam, dist in zip(beams, dists):
                for token, prob in dist.top(beam_width):
                    candidates.append(
                        {
                            "parent": beam,
                            "token": token,
                            "logprob": beam["logprob"] + math.log(max(prob, 1e-12)),
                        }
                    )
            candidates.sort(key=lambda c: -c["logprob"])
            survivors = candidates[:beam_width]

            used_parents = set()
            new_beams = []
            for candidate in survivors:
                parent = candidate["parent"]
                context = parent["context"]
                if id(parent) in used_parents:
                    context = context.fork()
                used_parents.add(id(parent))
                new_beams.append(
                    {
                        "context": context,
                        "tokens": parent["tokens"] + [candidate["token"]],
                        "logprob": candidate["logprob"],
                    }
                )
            # Every extra child forked before any survivor appends, so no
            # beam's cache holds a sibling's token.
            for beam in new_beams:
                await beam["context"].append_token(beam["tokens"][-1])
            beams = new_beams

        best = max(beams, key=lambda beam: beam["logprob"])
        ctx.record_output_tokens(len(best["tokens"]))
        text = ctx.detokenize(best["context"].queue, best["tokens"])
        ctx.send(text)
        for beam in beams:
            beam["context"].free()
        return {"text": text, "logprob": best["logprob"]}

    return InferletProgram(
        name=name,
        main=main,
        description="beam search over forked KV contexts",
        source_loc=98,
        binary_size=142 * 1024,
        requirements=("R2",),
    )


def make_speculative_decoding(
    prompt: str,
    max_tokens: int = 24,
    lookahead: int = 3,
    name: str = "speculative_decoding",
) -> InferletProgram:
    """n-gram prompt-lookup speculative decoding (vLLM's method) as an inferlet.

    Proposals are drawn from the token history, verified in a single
    multi-token forward whose K/V land in a scratch page, and only the
    accepted tokens' K/V are copied into the main cache (``copy_kvpage``).
    """

    def propose(history: List[int]) -> List[int]:
        if len(history) < 2:
            return []
        bigram = tuple(history[-2:])
        for start in range(len(history) - 3, -1, -1):
            if tuple(history[start : start + 2]) == bigram:
                return list(history[start + 2 : start + 2 + lookahead])
        return []

    async def main(ctx):
        queue = ctx.create_queue()
        page_size = ctx.kv_page_size()
        prompt_tokens = ctx.tokenize(queue, prompt)
        capacity = len(prompt_tokens) + max_tokens + lookahead + 1
        pages = ctx.alloc_kvpage(queue, (capacity + page_size - 1) // page_size)
        scratch = ctx.alloc_kvpage(queue, 1)[0]

        prompt_embeds = ctx.alloc_emb(queue, len(prompt_tokens))
        last_out = ctx.alloc_emb(queue, 1)[0]
        ctx.embed_txt(queue, prompt_tokens, list(range(len(prompt_tokens))), prompt_embeds)
        ctx.forward(queue, [], prompt_embeds, pages, [last_out])
        ctx.dealloc_emb(queue, prompt_embeds)

        dist = await ctx.get_next_dist(queue, last_out)
        pending = dist.max_index()
        history = list(prompt_tokens)
        generated: List[int] = []
        cached = len(prompt_tokens)
        steps = 0

        while len(generated) < max_tokens:
            steps += 1
            generated.append(pending)
            history.append(pending)
            ctx.record_output_tokens(1)
            proposals = propose(history)[: max(0, max_tokens - len(generated))]
            block = [pending] + proposals
            positions = list(range(cached, cached + len(block)))
            block_embeds = ctx.alloc_emb(queue, len(block))
            block_out = ctx.alloc_emb(queue, len(block))
            ctx.embed_txt(queue, block, positions, block_embeds)
            ctx.forward(queue, pages, block_embeds, [scratch], block_out, okv_offset=0)
            dists = await ctx.get_dists(queue, block_out)

            accepted = 0
            for index, proposal in enumerate(proposals):
                if dists[index].max_index() != proposal or len(generated) >= max_tokens:
                    break
                generated.append(proposal)
                history.append(proposal)
                ctx.record_output_tokens(1)
                accepted += 1
            # Persist K/V of the verified tokens ([pending] + accepted proposals).
            keep = 1 + accepted
            for offset in range(keep):
                global_slot = cached + offset
                ctx.copy_kvpage(
                    queue,
                    scratch,
                    pages[global_slot // page_size],
                    src_slots=[offset],
                    dst_slots=[global_slot % page_size],
                )
            ctx.clear_kvpage(queue, scratch)
            cached += keep
            pending = dists[accepted].max_index()
            ctx.dealloc_emb(queue, block_embeds)
            ctx.dealloc_emb(queue, block_out)

        text = ctx.detokenize(queue, generated[:max_tokens])
        ctx.send(text)
        ctx.dealloc_kvpage(queue, pages + [scratch])
        ctx.dealloc_emb(queue, [last_out])
        return {"text": text, "steps": steps, "tokens": len(generated[:max_tokens])}

    return InferletProgram(
        name=name,
        main=main,
        description="n-gram prompt-lookup speculative decoding",
        source_loc=255,
        binary_size=152 * 1024,
        requirements=("R2",),
    )


def make_jacobi_decoding(
    prompt: str,
    block_size: int = 4,
    n_blocks: int = 4,
    max_iterations: int = 4,
    name: str = "jacobi_decoding",
) -> InferletProgram:
    """Jacobi / parallel decoding: iterate a whole block to a fixed point."""

    async def main(ctx):
        context = Context(ctx)
        await context.fill(prompt)
        queue = context.queue
        generated: List[int] = []
        iterations_used = 0

        for _ in range(n_blocks):
            # Initial guesses: repeat the most recent token.
            guesses = [context.token_ids[-1]] * block_size
            base = context.num_tokens
            for _ in range(max_iterations):
                iterations_used += 1
                positions = list(range(base, base + block_size))
                block_embeds = ctx.alloc_emb(queue, block_size)
                block_out = ctx.alloc_emb(queue, block_size)
                ctx.embed_txt(queue, guesses, positions, block_embeds)
                ctx.forward(queue, context.pages, block_embeds, [], block_out)
                dists = await ctx.get_dists(queue, block_out)
                first = await context.next_dist()
                new_guesses = [first.max_index()] + [
                    dists[i].max_index() for i in range(block_size - 1)
                ]
                ctx.dealloc_emb(queue, block_embeds)
                ctx.dealloc_emb(queue, block_out)
                converged = new_guesses == guesses
                guesses = new_guesses
                if converged:
                    break
            for token in guesses:
                await context.append_token(token)
                context.generated_ids.append(token)
                ctx.record_output_tokens(1)
            generated.extend(guesses)

        text = ctx.detokenize(queue, generated)
        ctx.send(text)
        context.free()
        return {"text": text, "iterations": iterations_used, "tokens": len(generated)}

    return InferletProgram(
        name=name,
        main=main,
        description="Jacobi parallel decoding",
        source_loc=88,
        binary_size=96 * 1024,
        requirements=("R2",),
    )
