"""Chunked prefill: stall-free mixed prefill/decode dispatch (beyond the paper).

One device serves two populations at once: *summarizer* agents that arrive
throughout the run and prefill multi-thousand-token documents, and
*interactive chat* inferlets streaming tokens in a closed decode loop.
With monolithic prefill, every summarizer prompt occupies the serial
device for ``prefill_ms_per_token x tokens`` — decode rows merged into that
batch, and every batch behind it, wait out the whole prompt.  That
head-of-line blocking is the classic prefill/decode interference
iteration-level scheduling and chunked prefill ("stall-free batching") were
invented to remove (see *Towards Efficient Generative LLM Serving* in
PAPERS.md).

Batch formation (:mod:`repro.core.batching`) holds every forward batch to
a token budget: it carries the pending decode rows plus at most one partial
prefill slice per queue, bounded by ``prefill_chunk_tokens``.  The residual
prefill stays at its queue head and drains one slice per mixed batch.
Chunking is a modeled *cost* in total device time (every slice re-pays the
weight-bound floor unless decode rows share the batch, and re-reads the
accumulated context), so the experiment must show the latency win survives
honest accounting:

* decode-side p99 inter-token gap (measured inside the chat inferlets with
  ``ctx.now()``) improves >= 2x,
* interactive TTFT p99 improves alongside (chats arriving mid-prefill no
  longer wait out whole prompts),
* total token throughput stays >= 0.95x of the unchunked run,
* generated tokens are *identical* on vs off — chunking changes timing
  only (the transformer's KV-cache math guarantees slice-equals-monolith).

The monolithic arm is the same formation under a budget the fleet cannot
reach (:func:`fleet_arms`): two identical seeded runs must agree
bit-for-bit and leave every chunk counter at zero.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict

from repro.bench.compare import compare_arms
from repro.bench.mixed_fleet import MixedFleet, run_mixed_fleet
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import ratio
from repro.core.config import ControlLayerConfig

#: Interactive decode stream length (tokens per chat inferlet).
CHAT_TURN_TOKENS = 72
#: Long-document prompt length (tokens per summarizer).
SUMMARIZER_PROMPT_TOKENS = 3584
#: Per-batch token budget of the chunked runs (slices are the default
#: ``ControlLayerConfig.prefill_chunk_tokens``).
MAX_BATCH_TOKENS = 320

#: The quick-mode fleet.  Every generated token counts toward the gaps: on
#: one device there is no handoff stall to keep out of them.
FLEET = MixedFleet(
    n_summarizers=4,
    n_chats=12,
    prompt_tokens=SUMMARIZER_PROMPT_TOKENS,
    chat_tokens=CHAT_TURN_TOKENS,
    summarizer_arrivals=(0.15, 0.5),
    chat_arrivals=(0.01, 0.06),
    id_stride=7,
    skip_first_gap=False,
)
#: What both arms share: the seed and the budget the chunked arm slices under.
SETUP = dict(seed=3, max_batch_tokens=MAX_BATCH_TOKENS)


def fleet_arms(fleet: MixedFleet) -> Dict[str, Dict]:
    """The two arms on ``fleet``.  Monolithic prefill sets the batch budget
    and the slice bound to the fleet's largest concurrent prompt tokens —
    every inferlet at once with a summarizer's whole prompt — so neither
    binds and every prompt runs whole; the chunked arm keeps ``SETUP``'s
    budget and the default slices."""
    whole = (fleet.n_summarizers + fleet.n_chats) * fleet.prompt_tokens
    return {
        "chunked_off": dict(max_batch_tokens=whole, prefill_chunk_tokens=whole),
        "chunked_on": {},
    }


def run_fleet(fleet: MixedFleet = FLEET, **overrides) -> Dict:
    """Run the mixed prefill/decode workload; returns summary counters.

    Under the monolithic arm each summarizer arrival stalls every decode
    stream for the whole prompt; under the chunked arm the prompt drains one
    slice per mixed batch.  ``overrides`` are server configuration shorthands
    on top of ``SETUP`` (an arm of :func:`fleet_arms`; ``tracing=True``
    records a flight-recorder trace, which is non-perturbing).
    """
    row, server = run_mixed_fleet(fleet, **{**SETUP, **overrides})
    metrics = server.metrics
    row.update(
        prefill_chunks_dispatched=metrics.prefill_chunks_dispatched,
        decode_rows_co_batched=metrics.decode_rows_co_batched,
        chunk_stall_saved_seconds=metrics.chunk_stall_saved_seconds,
    )
    return row


def headline(off: Dict, on: Dict) -> Dict:
    """The numbers the benchmark asserts on (and exports as an artifact)."""
    return {
        "decode_p99_off_ms": off["decode_gap_p99"] * 1e3,
        "decode_p99_on_ms": on["decode_gap_p99"] * 1e3,
        "decode_p99_speedup": ratio(off["decode_gap_p99"], on["decode_gap_p99"]),
        "ttft_p99_off_ms": off["chat_ttft_p99"] * 1e3,
        "ttft_p99_on_ms": on["chat_ttft_p99"] * 1e3,
        "ttft_p99_speedup": ratio(off["chat_ttft_p99"], on["chat_ttft_p99"]),
        "throughput_off_tok_s": off["token_throughput"],
        "throughput_on_tok_s": on["token_throughput"],
        "throughput_ratio": ratio(on["token_throughput"], off["token_throughput"]),
        "prefill_chunks_dispatched": on["prefill_chunks_dispatched"],
        "decode_rows_co_batched": on["decode_rows_co_batched"],
        "chunk_stall_saved_seconds": on["chunk_stall_saved_seconds"],
    }


def run(quick: bool = True) -> ExperimentResult:
    fleet = FLEET if quick else replace(
        FLEET, n_summarizers=6, chat_tokens=96, summarizer_arrivals=(0.15, 0.55)
    )
    arms = compare_arms(partial(run_fleet, fleet), fleet_arms(fleet))
    result = ExperimentResult(
        name="Chunked prefill",
        description=(
            f"{fleet.n_summarizers} summarizers ({fleet.prompt_tokens}-token prompts) "
            f"arriving over a fleet of {fleet.n_chats} interactive chats "
            f"({fleet.chat_tokens} tokens each) on one device: monolithic prefill vs "
            f"{ControlLayerConfig.prefill_chunk_tokens}-token slices under a "
            f"{MAX_BATCH_TOKENS}-token batch budget"
        ),
        rows=arms.rows(
            lambda row: dict(
                decode_gap_p50_ms=row["decode_gap_p50"] * 1e3,
                decode_gap_p99_ms=row["decode_gap_p99"] * 1e3,
                chat_ttft_p99_ms=row["chat_ttft_p99"] * 1e3,
                token_throughput_per_s=row["token_throughput"],
                chunks=row["prefill_chunks_dispatched"],
                co_batched_decodes=row["decode_rows_co_batched"],
                stall_saved_s=row["chunk_stall_saved_seconds"],
                elapsed_s=row["elapsed"],
            )
        ),
        raw=arms.raw,
    )
    head = headline(arms.raw["chunked_off"], arms.raw["chunked_on"])
    result.add_note(
        "Beyond the paper: token-budget batch formation slices long prefills "
        "so decode rows ride every batch instead of stalling behind whole "
        f"prompts — decode p99 gap {head['decode_p99_off_ms']:.1f} -> "
        f"{head['decode_p99_on_ms']:.1f} ms ({head['decode_p99_speedup']:.2f}x), "
        f"chat TTFT p99 {head['ttft_p99_off_ms']:.1f} -> "
        f"{head['ttft_p99_on_ms']:.1f} ms, at {head['throughput_ratio']:.3f}x "
        "token throughput.  Generated tokens are identical on vs off: "
        "chunking changes timing, never results."
    )
    return result
