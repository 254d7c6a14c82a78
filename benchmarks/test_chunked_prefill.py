"""Benchmark for chunked prefill / token-budget batching (beyond the paper).

Long-document summarizers arrive throughout a fleet of interactive chat
streams on one device.  With monolithic prefill every arrival head-of-line
blocks the decode rows for the whole prompt; with ``chunked_prefill`` on,
batch formation slices prompts under a token budget so decodes ride every
batch.  The headline gate: >= 2x better decode-side p99 inter-token gap at
>= 0.95x token throughput, with identical generated tokens (chunking may
change timing, never results); the bit-identical, counter-free
``chunked_prefill=off`` path is a case of ``test_same_seed_same_run.py``.

The headline numbers are also written to ``BENCH_chunked_prefill.json`` at
the repo root so CI can archive the perf trajectory across commits.
"""

from repro.bench.experiments import chunked_prefill as experiment


def test_chunked_prefill(run_experiment, write_artifact):
    result = run_experiment(experiment)
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"chunked_off", "chunked_on"}

    off = result.raw["chunked_off"]
    on = result.raw["chunked_on"]
    head = experiment.headline(off, on)

    # The interference scenario is real: without chunking, decode streams
    # stall for whole prompts (p99 gap is prefill-sized, several times the
    # steady-state decode cadence).
    assert off["decode_gap_p99"] >= 3.0 * off["decode_gap_p50"]

    # Headline: decode p99 inter-token gap at least 2x better with slices...
    assert head["decode_p99_speedup"] >= 2.0, head
    # ...interactive TTFT improves alongside (chats arriving mid-prefill)...
    assert head["ttft_p99_speedup"] >= 1.5, head
    # ...at no more than 5% token-throughput cost (chunking pays honest
    # floors and attention re-reads; riding decode batches amortizes them).
    assert head["throughput_ratio"] >= 0.95, head

    # Chunking changes timing only: every generated token is identical.
    assert on["summarizer_outputs"] == off["summarizer_outputs"]
    assert on["chat_outputs"] == off["chat_outputs"]
    # Identical prompt work reached the device (no token double-counted
    # or dropped by slicing).
    assert on["forward_input_tokens"] == off["forward_input_tokens"]

    # The machinery actually engaged.
    assert on["prefill_chunks_dispatched"] > 0
    assert on["decode_rows_co_batched"] > 0
    assert on["chunk_stall_saved_seconds"] > 0

    write_artifact("BENCH_chunked_prefill.json", head)
