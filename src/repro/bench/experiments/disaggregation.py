"""Prefill/decode disaggregation at cluster scale (beyond the paper).

An 8-device cluster serves two populations at once: *summarizer* agents
that keep arriving with multi-thousand-token documents, and *interactive
chat* inferlets streaming tokens in a closed decode loop.  The baseline is
the strongest co-located configuration this repo has — ``least_loaded``
placement with chunked prefill on every shard — so decode rows already
never stall behind whole prompts.  They still share every mixed batch with
a prefill slice: each co-batched chunk adds its token time to the batch,
and at the paper's chunk sizes that interference is the dominant term in
the decode-side inter-token gap.

With ``disaggregation`` on (:mod:`repro.core.transfer`), the cluster
splits into prefill and decode roles.  New inferlets land on a prefill
shard, chew their prompt there (still chunked), stream committed KV pages
to a decode shard over a modeled NVLink-class link *while the prefill tail
runs*, and migrate at their first sampled token.  Decode shards therefore
run pure-decode batches: no chunk ever shares a batch with a chat's
decode row.

The headline gate:

* decode-side p99 inter-token gap strictly better than the
  chunked-prefill baseline (measured inside the chat inferlets with
  ``ctx.now()``, *excluding* each stream's first generated token — the
  handoff stall is TTFT-domain, the steady-state cadence is what decode
  shards exist to protect),
* cluster goodput (total output tokens / elapsed) >= 0.95x the baseline,
* generated tokens identical in both arms (migration copies KV and embed
  state content-exactly; sampling uses the per-instance rng).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict

from repro.bench.compare import compare_arms
from repro.bench.mixed_fleet import MixedFleet, run_mixed_fleet
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import ratio

#: Cluster size and role split used by the disaggregated arm.
NUM_DEVICES = 8
PREFILL_SHARDS = 2
#: Interactive decode stream length (tokens per chat inferlet).
CHAT_TURN_TOKENS = 48
#: Long-document prompt length (tokens per summarizer).
SUMMARIZER_PROMPT_TOKENS = 2048
#: Both arms slice prefills (default slices) under this batch budget.
MAX_BATCH_TOKENS = 320

#: The quick-mode fleet.  Each chat's first generated token is sampled
#: before its gap clock starts (see ``MixedFleet.skip_first_gap``).
FLEET = MixedFleet(
    n_summarizers=8,
    n_chats=16,
    prompt_tokens=SUMMARIZER_PROMPT_TOKENS,
    chat_tokens=CHAT_TURN_TOKENS,
    summarizer_arrivals=(0.05, 0.25),
    chat_arrivals=(0.01, 0.05),
    id_stride=11,
    skip_first_gap=True,
)
#: What both arms share: the seed, the cluster and the batch budget.
SETUP = dict(seed=3, num_devices=NUM_DEVICES, max_batch_tokens=MAX_BATCH_TOKENS)
#: The only difference: co-located ``least_loaded`` placement vs dedicated
#: shard roles with KV-page streaming.
ARMS = {
    "colocated": dict(placement_policy="least_loaded"),
    "disaggregated": dict(
        placement_policy="disaggregated", prefill_shards=PREFILL_SHARDS
    ),
}


def run_fleet(fleet: MixedFleet = FLEET, **overrides) -> Dict:
    """Run the mixed cluster workload; returns summary counters.

    ``overrides`` are server configuration shorthands on top of ``SETUP``:
    an arm of ``ARMS``, plus ``tracing=True`` to turn the flight recorder
    on (guaranteed non-perturbing) or ``trace_path=...`` to also export
    the trace there after the run (:func:`run_mixed_fleet`).
    """
    row, server = run_mixed_fleet(fleet, **{**SETUP, **overrides})
    metrics = server.metrics
    prefill_decode_rows = 0
    decode_decode_rows = 0
    for shard in server.service().shards:
        if shard.role == "prefill":
            prefill_decode_rows += shard.scheduler.stats.decode_rows_dispatched
        else:
            decode_decode_rows += shard.scheduler.stats.decode_rows_dispatched
    row.update(
        handoffs=metrics.disagg_handoffs,
        handoff_failures=metrics.disagg_handoff_failures,
        pages_streamed=metrics.disagg_pages_streamed,
        pages_tail=metrics.disagg_pages_tail,
        bytes_streamed=metrics.disagg_bytes_streamed,
        handoff_stall_seconds=metrics.disagg_handoff_stall_seconds,
        prefill_shard_decode_rows=prefill_decode_rows,
        decode_shard_decode_rows=decode_decode_rows,
    )
    return row


def headline(baseline: Dict, disagg: Dict) -> Dict:
    """The numbers the benchmark asserts on (and exports as an artifact)."""
    return {
        "decode_p99_baseline_ms": baseline["decode_gap_p99"] * 1e3,
        "decode_p99_disagg_ms": disagg["decode_gap_p99"] * 1e3,
        "decode_p99_speedup": ratio(baseline["decode_gap_p99"], disagg["decode_gap_p99"]),
        "decode_p50_baseline_ms": baseline["decode_gap_p50"] * 1e3,
        "decode_p50_disagg_ms": disagg["decode_gap_p50"] * 1e3,
        "goodput_baseline_tok_s": baseline["token_throughput"],
        "goodput_disagg_tok_s": disagg["token_throughput"],
        "goodput_ratio": ratio(disagg["token_throughput"], baseline["token_throughput"]),
        "handoffs": disagg["handoffs"],
        "pages_streamed": disagg["pages_streamed"],
        "pages_tail": disagg["pages_tail"],
        "handoff_stall_ms_total": disagg["handoff_stall_seconds"] * 1e3,
    }


def run(quick: bool = True) -> ExperimentResult:
    fleet = FLEET if quick else replace(FLEET, n_summarizers=12, n_chats=24)
    arms = compare_arms(partial(run_fleet, fleet), ARMS)
    result = ExperimentResult(
        name="Prefill/decode disaggregation",
        description=(
            f"{NUM_DEVICES} devices, {fleet.n_summarizers} summarizers "
            f"({fleet.prompt_tokens}-token prompts) over {fleet.n_chats} "
            f"interactive chats: least_loaded + chunked prefill everywhere vs "
            f"{PREFILL_SHARDS} prefill / {NUM_DEVICES - PREFILL_SHARDS} decode "
            f"shard roles with overlapped KV-page streaming"
        ),
        rows=arms.rows(
            lambda row: dict(
                decode_gap_p50_ms=row["decode_gap_p50"] * 1e3,
                decode_gap_p99_ms=row["decode_gap_p99"] * 1e3,
                goodput_tok_s=row["token_throughput"],
                handoffs=row["handoffs"],
                pages_streamed=row["pages_streamed"],
                pages_tail=row["pages_tail"],
                stall_s=row["handoff_stall_seconds"],
                elapsed_s=row["elapsed"],
            )
        ),
        raw=arms.raw,
    )
    head = headline(arms.raw["colocated"], arms.raw["disaggregated"])
    result.add_note(
        "Beyond the paper: dedicated shard roles take prefill interference "
        "out of the decode path entirely — steady-state decode p99 gap "
        f"{head['decode_p99_baseline_ms']:.2f} -> "
        f"{head['decode_p99_disagg_ms']:.2f} ms "
        f"({head['decode_p99_speedup']:.2f}x) at {head['goodput_ratio']:.3f}x "
        f"cluster goodput; {head['handoffs']} live migrations streamed "
        f"{head['pages_streamed']} KV pages ahead of their handoff "
        f"({head['pages_tail']} left for the synchronous tail).  Tokens are "
        "identical in both arms: migration changes placement and timing, "
        "never results."
    )
    return result
