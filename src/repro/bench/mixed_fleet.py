"""The mixed prefill/decode fleet: summarizers arriving over chat streams.

Two populations share the deployment: *summarizer* agents that keep
arriving with multi-thousand-token documents, and *interactive chat*
inferlets streaming tokens in a closed decode loop while measuring their
own inter-token gaps with ``ctx.now()``.  It is the interference workload
of the chunked-prefill experiment (one device), the disaggregation
experiment (an 8-device cluster) and the flight-recorder experiment (the
disaggregated cluster, traced); each of them owns its sizes and its server
configuration, this module owns the programs, the launch schedule and the
readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.bench.runners import Launch, launch_fleet, make_pie_setup
from repro.core import InferletProgram, PieServer
from repro.core.metrics import percentile
from repro.support import Context, SamplingParams


@dataclass(frozen=True)
class MixedFleet:
    """Sizes and launch schedule of one mixed fleet."""

    n_summarizers: int
    n_chats: int
    #: Long-document prompt length (tokens per summarizer).
    prompt_tokens: int
    #: Interactive decode stream length (tokens per chat inferlet).
    chat_tokens: int
    #: ``(first arrival, stagger)`` in seconds.  Summarizer arrivals are
    #: staggered so a long prefill is in flight for most of the chats'
    #: steady state.
    summarizer_arrivals: Tuple[float, float]
    chat_arrivals: Tuple[float, float]
    #: Per-agent multiplier of the summarizer prompt's token-id pattern.
    id_stride: int
    #: Sample each chat's first token *before* its gap clock starts.  For a
    #: disaggregated run that token carries the one-off handoff stall (a
    #: TTFT component); the metric under test there is the inter-token gap
    #: of the established decode stream.
    skip_first_gap: bool


def make_summarizer(index: int, prompt_tokens: int, id_stride: int) -> InferletProgram:
    """A long-prompt agent: prefill a document, emit a short summary.

    The prompt is passed as raw token ids (documents this long would
    otherwise dominate wall-clock tokenization time); the id pattern is
    varied per agent so prefix caching could never collapse the work.
    """

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill([(index * id_stride + i) % 250 for i in range(prompt_tokens)])
        await context.generate_until(max_tokens=4)
        summary = list(context.generated_ids)
        context.free()
        return summary

    return InferletProgram(
        name=f"summarizer_{index}",
        main=main,
        description="long-document summarizer (mixed fleet)",
        requirements=("R1",),
    )


def make_chat(index: int, n_tokens: int, skip_first_gap: bool) -> InferletProgram:
    """An interactive chat turn that measures its own inter-token gaps."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"User: quick question number {index}? ")
        if skip_first_gap:
            await context.generate_once()
        gaps: List[float] = []
        last = ctx.now()
        for _ in range(n_tokens - 1 if skip_first_gap else n_tokens):
            await context.generate_once()
            now = ctx.now()
            gaps.append(now - last)
            last = now
        tokens = list(context.generated_ids)
        context.free()
        return {"gaps": gaps, "tokens": tokens}

    return InferletProgram(
        name=f"chat_{index}",
        main=main,
        description="interactive chat stream (mixed fleet)",
        requirements=("R1",),
    )


def run_mixed_fleet(fleet: MixedFleet, **setup: Any) -> Tuple[Dict[str, Any], PieServer]:
    """Run the fleet on a fresh server; returns the common readings and the
    server (for the caller's plane-specific counters).

    ``setup`` is what :func:`~repro.bench.runners.make_pie_setup` takes:
    the seed plus server configuration shorthands.  With a ``trace_path``
    among them the flight-recorder trace is exported there after the run.
    Summarizers are listed — so launched and seeded — before chats.  A
    chat that failed or was reclaimed stays among the chats, with no gaps
    and ``None`` for its tokens.
    """
    _, server = make_pie_setup(with_tools=False, **setup)
    summarizers = [
        make_summarizer(i, fleet.prompt_tokens, fleet.id_stride)
        for i in range(fleet.n_summarizers)
    ]
    chats = [
        make_chat(i, fleet.chat_tokens, fleet.skip_first_gap) for i in range(fleet.n_chats)
    ]

    def arrivals(programs: List[InferletProgram], start: float, stagger: float) -> List[Launch]:
        return [Launch(program, start + i * stagger) for i, program in enumerate(programs)]

    run = launch_fleet(
        server,
        arrivals(summarizers, *fleet.summarizer_arrivals) + arrivals(chats, *fleet.chat_arrivals),
    )
    if server.config.control.trace_path:
        server.export_trace()

    chat_outputs = [r.result for r in run.results_of(chats)]
    decode_gaps = [gap for output in chat_outputs if output for gap in output["gaps"]]
    chat_ttfts = [m.ttft for m in run.records_of(chats) if m.ttft is not None]
    return {
        **run.readings(),
        "decode_gap_p50": percentile(decode_gaps, 50),
        "decode_gap_p99": percentile(decode_gaps, 99),
        "chat_ttft_p50": percentile(chat_ttfts, 50),
        "chat_ttft_p99": percentile(chat_ttfts, 99),
        # Generated tokens, for the timing-only (bit-identical output) checks.
        "summarizer_outputs": [r.result for r in run.results_of(summarizers)],
        "chat_outputs": [output["tokens"] if output else None for output in chat_outputs],
    }, server
