"""Benchmark for prefill/decode disaggregation (beyond the paper).

An 8-device cluster serves long-document summarizers arriving over a fleet
of interactive chat streams.  The baseline co-locates everything under
``least_loaded`` placement with chunked prefill — the strongest mixed
configuration in this repo — so decode rows already never stall behind
whole prompts, only behind the chunk sharing their batch.  The
disaggregated arm splits the cluster into prefill and decode shard roles
with overlapped KV-page streaming and live handoff
(:mod:`repro.core.transfer`), so decode shards run pure-decode batches.

Headline gate: strictly better steady-state decode p99 inter-token gap
(first generated token excluded — handoff stall is TTFT-domain) at
>= 0.95x cluster goodput, with identical generated tokens in both arms.

The headline numbers are also written to ``BENCH_disaggregation.json`` at
the repo root so CI can archive the perf trajectory across commits.
"""

from repro.bench.experiments import disaggregation as experiment


def test_disaggregation(run_experiment, write_artifact):
    result = run_experiment(experiment)
    rows = {r["config"]: r for r in result.rows}
    assert set(rows) == {"colocated", "disaggregated"}

    baseline = result.raw["colocated"]
    disagg = result.raw["disaggregated"]
    head = experiment.headline(baseline, disagg)

    # Headline: the steady-state decode cadence is strictly better once
    # no prefill chunk ever shares a batch with a decode row...
    assert head["decode_p99_speedup"] > 1.0, head
    # ...at no more than 5% cluster-goodput cost for giving up the
    # prefill shards' decode capacity.
    assert head["goodput_ratio"] >= 0.95, head

    # The machinery actually engaged: every finished inferlet migrated
    # once, and streaming genuinely overlapped the prefill tail (pages
    # crossed the wire ahead of the handoff, not only in the tail copy).
    total = len(disagg["chat_outputs"]) + len(disagg["summarizer_outputs"])
    assert disagg["handoffs"] == total
    assert disagg["pages_streamed"] > 0
    assert disagg["bytes_streamed"] > 0

    # Role separation held for the whole run: decode work only ever ran
    # on decode shards (the baseline has no roles; its counter sums over
    # every shard).
    assert disagg["prefill_shard_decode_rows"] == 0
    assert disagg["decode_shard_decode_rows"] > 0

    # Migration changes placement and timing, never results: tokens are
    # identical in both arms, and the same prompt work reached a device.
    assert disagg["chat_outputs"] == baseline["chat_outputs"]
    assert disagg["summarizer_outputs"] == baseline["summarizer_outputs"]
    assert disagg["forward_input_tokens"] == baseline["forward_input_tokens"]

    # The baseline arm never touches the transfer machinery.
    assert baseline["handoffs"] == 0
    assert baseline["pages_streamed"] == 0

    write_artifact("BENCH_disaggregation.json", head)
