"""Attention-level technique inferlets (R1): attention sink, windowed
attention, hierarchical attention.

All three are built from ``mask_kvpage`` (token-level cache masking) — no
serving-system modification required, which is the point the paper makes
when comparing against the specialised StreamingLLM implementation.
"""

from __future__ import annotations

from repro.core.inferlet import InferletProgram
from repro.support import Context


def make_attention_sink(
    prompt: str,
    max_tokens: int = 48,
    sink_tokens: int = 4,
    window_tokens: int = 32,
    name: str = "attention_sink",
) -> InferletProgram:
    """StreamingLLM-style generation: keep the sink tokens plus a sliding window."""

    async def main(ctx):
        context = Context(ctx)
        await context.fill(prompt)
        masked_upto = sink_tokens
        for _ in range(max_tokens):
            await context.generate_once()
            window_start = max(sink_tokens, context.num_tokens - window_tokens)
            if window_start > masked_upto:
                await context.mask_token_range(masked_upto, window_start)
                masked_upto = window_start
        text = context.generated_text
        ctx.send(text)
        context.free()
        return {"text": text, "masked_tokens": masked_upto - sink_tokens}

    return InferletProgram(
        name=name,
        main=main,
        description="attention sink (StreamingLLM) generation",
        source_loc=60,
        binary_size=133 * 1024,
        requirements=("R1",),
    )


def make_windowed_attention(
    prompt: str,
    max_tokens: int = 32,
    window_tokens: int = 24,
    name: str = "windowed_attention",
) -> InferletProgram:
    """Longformer-style sliding-window attention (no sink tokens)."""

    async def main(ctx):
        context = Context(ctx)
        await context.fill(prompt)
        masked_upto = 0
        for _ in range(max_tokens):
            await context.generate_once()
            window_start = max(0, context.num_tokens - window_tokens)
            if window_start > masked_upto:
                await context.mask_token_range(masked_upto, window_start)
                masked_upto = window_start
        text = context.generated_text
        ctx.send(text)
        context.free()
        return {"text": text, "masked_tokens": masked_upto}

    return InferletProgram(
        name=name,
        main=main,
        description="sliding-window attention generation",
        source_loc=60,
        binary_size=133 * 1024,
        requirements=("R1",),
    )


def make_hierarchical_attention(
    sections,
    question: str,
    keep_per_section: int = 8,
    max_tokens: int = 24,
    name: str = "hierarchical_attention",
) -> InferletProgram:
    """Hierarchical attention: keep only each section's trailing tokens.

    After prefill, all but the last ``keep_per_section`` tokens of every
    section are masked out, so generation attends to a two-level structure:
    section landmarks plus the question.
    """
    sections = list(sections)

    async def main(ctx):
        context = Context(ctx)
        boundaries = []
        for section in sections:
            start = context.num_tokens
            await context.fill(section)
            boundaries.append((start, context.num_tokens))
        question_start = context.num_tokens
        await context.fill(question)
        masked = 0
        for start, end in boundaries:
            cut = max(start, end - keep_per_section)
            if cut > start:
                await context.mask_token_range(start, cut)
                masked += cut - start
        await context.refresh_hidden()
        answer = await context.generate_until(max_tokens=max_tokens)
        ctx.send(answer)
        context.free()
        return {"answer": answer, "masked_tokens": masked, "question_start": question_start}

    return InferletProgram(
        name=name,
        main=main,
        description="hierarchical (landmark) attention",
        source_loc=42,
        binary_size=130 * 1024,
        requirements=("R1",),
    )
