"""Invariant suite for prefill/decode disaggregation (repro.core.transfer).

The KV transfer scheduler moves live inferlets between shards mid-flight:
it pre-copies committed KV pages to a decode shard while the prefill tail
is still running, then migrates the whole resource space (pages, embed
slots, swapped host slots, queues, router placement) in one synchronous
handoff.  These tests hammer that machinery with seeded random fleets —
200 distinct interleavings across the two fleet tests — and check the
properties that must hold in *every* schedule:

* **KV-page conservation** — after a fleet drains, every shard's KV and
  embed pools are back at full capacity and the host tier is empty; the
  transfer scheduler holds no streams and no forward tracks.  Staged
  destination pages are pinned only by the transfer, so this catches any
  handoff path that forgets to adopt or unpin them.
* **Role separation** — in any schedule where no handoff was refused, a
  prefill shard never dispatches a single decode row (the handoff fires
  before the program can submit its first decode command).  A *refused*
  handoff (non-quiescent owner) deliberately strands the owner on the
  prefill shard until the retry: the decode rows it issues in that window
  are bounded and asserted exactly in the mid-chunk test below.
* **Abort safety** — terminating inferlets at random points (including
  mid-stream, with pages staged on a decode shard they will never reach)
  leaks nothing.
* **Residual-chunk ordering** — a sample retiring while another queue of
  the same inferlet still has chunked-prefill slices in flight must
  *refuse* the handoff (non-quiescent owner) and retry later; the
  deferred migration preserves chunk order, so the tokens match a
  non-disaggregated run bit-for-bit.

Style mirrors ``tests/test_resource_invariants.py``: seeded randomness
only, invariants checked against the real pools, teardown asserts full
conservation.
"""

import random

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.support import Context, SamplingParams

# Two fleet tests x their seed ranges = 200 seeded interleavings.
CONSERVATION_SEEDS = range(0, 120)
ABORT_SEEDS = range(200, 280)


def build_server(
    sim,
    devices=3,
    prefill_shards=1,
    prefix_cache=True,
    kv_pages=72,
    host_kv_pages=32,
    chunk_tokens=8,
    batch_tokens=16,
):
    """A disaggregated cluster small enough that streams and handoffs
    actually contend: chunked prefill on, tiny chunk/batch budgets so
    prompts slice, a host tier so swap can interleave with migration."""
    config = PieConfig(
        gpu=GpuConfig(
            num_kv_pages=kv_pages,
            num_devices=devices,
            host_kv_pages=host_kv_pages,
            max_batch_tokens=batch_tokens,
        ),
        control=ControlLayerConfig(
            prefix_cache=prefix_cache,
            placement_policy="disaggregated",
            prefill_shards=prefill_shards,
            chunked_prefill=True,
            prefill_chunk_tokens=chunk_tokens,
        ),
    )
    return PieServer(sim, config=config)


def check_invariants(server):
    """Post-drain conservation: nothing staged, nothing leaked, no decode
    work ever ran on a prefill shard."""
    service = server.service()
    transfer = service.transfer
    assert transfer is not None
    assert transfer.active_streams == 0
    assert not transfer._forwards, "forward tracks must die with their owners"
    for shard in service.shards:
        # The cache legitimately retains pages (that is its job); release
        # them so the pool check below is exact.
        if shard.prefix_cache is not None:
            shard.prefix_cache.drop_all()
        kv = shard.memory.kv_pages
        emb = shard.memory.embeds
        assert kv.num_free == kv.capacity, (
            f"shard {shard.index} ({shard.role}) leaked "
            f"{kv.capacity - kv.num_free} KV pages"
        )
        assert emb.num_free == emb.capacity, (
            f"shard {shard.index} ({shard.role}) leaked "
            f"{emb.capacity - emb.num_free} embed slots"
        )
        if shard.role == "prefill" and server.metrics.disagg_handoff_failures == 0:
            # Strict role separation: only a refused handoff may strand
            # decode work on a prefill shard (owner keeps decoding there
            # until the retry succeeds).
            assert shard.scheduler.stats.decode_rows_dispatched == 0, (
                f"prefill shard {shard.index} dispatched decode rows"
            )
    assert service.host_pool.num_used == 0, "host KV tier not drained"


def make_agent(name, prompt_len, max_tokens):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("tok " * prompt_len + f"[{name}] ")
        out = await context.generate_until(max_tokens=max_tokens)
        context.free()
        return out

    return InferletProgram(name=name, main=main)


def run_fleet(seed, n_agents=5, devices=3, kill_fraction=0.0):
    """One seeded fleet: staggered launches, random prompt/output lengths,
    optionally a random subset of instances aborted at random times."""
    sim = Simulator(seed=seed)
    server = build_server(sim, devices=devices)
    rng = random.Random(seed)
    specs = []
    for i in range(n_agents):
        specs.append(
            {
                "name": f"inv{i}",
                "prompt_len": rng.randint(4, 56),
                "max_tokens": rng.randint(1, 4),
                "delay": rng.uniform(0.0, 0.5),
                "kill_at": (
                    rng.uniform(0.001, 0.8) if rng.random() < kill_fraction else None
                ),
            }
        )
    for spec in specs:
        server.register_program(
            make_agent(spec["name"], spec["prompt_len"], spec["max_tokens"])
        )

    async def killer(instance, delay):
        await sim.sleep(delay)
        if not instance.finished:
            server.lifecycle.abort(instance, "invariant-fleet chaos kill")

    async def one(spec):
        await sim.sleep(spec["delay"])
        instance, ready = server.lifecycle.launch(spec["name"])
        await ready
        if spec["kill_at"] is not None:
            sim.create_task(killer(instance, spec["kill_at"]))
        await server.lifecycle.wait_for_completion(instance)
        return instance

    async def run_all():
        return await sim.gather([sim.create_task(one(spec)) for spec in specs])

    instances = sim.run_until_complete(run_all())
    check_invariants(server)
    return server, instances


@pytest.mark.parametrize("seed", CONSERVATION_SEEDS)
def test_randomized_fleet_conserves_resources(seed):
    """No-kill fleets: every inferlet finishes, every finisher was handed
    off exactly once, and the pools come back whole (checked in
    ``check_invariants`` inside the runner)."""
    server, instances = run_fleet(seed)
    assert all(inst.status == "finished" for inst in instances)
    # Every agent samples at least one token, so every agent either
    # migrates or has each refusal (destination capacity) accounted.
    metrics = server.metrics
    assert metrics.disagg_handoffs + metrics.disagg_handoff_failures >= len(instances)
    if metrics.disagg_handoff_failures == 0:
        assert metrics.disagg_handoffs == len(instances)


@pytest.mark.parametrize("seed", ABORT_SEEDS)
def test_randomized_fleet_with_aborts_leaks_nothing(seed):
    """Chaos fleets: roughly half the instances are terminated at random
    points — before placement, mid-chunked-prefill with pages staged on a
    decode shard, or after the handoff.  Conservation must hold anyway."""
    server, instances = run_fleet(seed, kill_fraction=0.55)
    statuses = {inst.status for inst in instances}
    assert statuses <= {"finished", "terminated"}
    survivors = sum(1 for inst in instances if inst.status == "finished")
    assert server.metrics.disagg_handoffs >= survivors


def test_abort_mid_stream_frees_staged_pages():
    """Terminate one long-prompt inferlet at the exact moment its first
    KV pages have been streamed to the decode shard but the handoff has
    not happened: the staged destination pages (pinned only by the
    transfer scheduler) must all return to the free pool."""
    sim = Simulator(seed=11)
    server = build_server(sim, devices=2)
    server.register_program(make_agent("longp", prompt_len=80, max_tokens=2))

    async def scenario():
        instance, ready = server.lifecycle.launch("longp")
        await ready
        while server.metrics.disagg_pages_streamed == 0:
            assert sim.now < 60.0, "prefill never streamed a page"
            await sim.sleep(0.002)
        assert server.metrics.disagg_handoffs == 0
        assert server.service().transfer.staged_pages(instance.instance_id) > 0
        server.lifecycle.abort(instance, "mid-stream abort")
        await server.lifecycle.wait_for_completion(instance)
        return instance

    instance = sim.run_until_complete(scenario())
    assert instance.status == "terminated"
    assert server.metrics.disagg_pages_streamed > 0
    assert server.metrics.disagg_handoffs == 0
    check_invariants(server)


def run_onto_full_decode_shard(kv_pages):
    """One inferlet is handed off and keeps decoding on the only decode
    shard; a second one's whole-prompt forward (no chunking) then commits
    15 pages to stream there while only ``kv_pages - 16`` are free."""
    sim = Simulator(seed=0)
    server = PieServer(
        sim,
        num_devices=2,
        placement_policy="disaggregated",
        prefill_shards=1,
        num_kv_pages=kv_pages,
    )
    server.register_program(make_agent("first", prompt_len=60, max_tokens=40))
    server.register_program(make_agent("second", prompt_len=60, max_tokens=4))

    async def scenario():
        first, ready = server.lifecycle.launch("first")
        await ready
        while server.metrics.disagg_handoffs == 0:
            await sim.sleep(0.001)
        second, ready = server.lifecycle.launch("second")
        await ready
        for instance in (first, second):
            await server.lifecycle.wait_for_completion(instance)
        return first, second

    instances = sim.run_until_complete(scenario())
    sim.run()
    return server, instances


@pytest.mark.parametrize("kv_pages", [16, 20, 24])
def test_streaming_onto_a_full_decode_shard_stages_only_free_pages(kv_pages):
    """Staging takes free pages only; the pages that do not fit cross in
    the handoff tail, which reclaims room like any allocation, so the run
    ends with every inferlet finished or terminated for a stated reason
    (it used to raise ``OutOfResourcesError`` out of the forward's
    completion callback)."""
    server, instances = run_onto_full_decode_shard(kv_pages)
    for instance in instances:
        assert instance.status == "finished" or (
            instance.status == "terminated" and instance.terminated_reason
        )
    assert server.metrics.disagg_handoffs == 2
    # What the second stream could not stage went through the tail.
    assert 0 < server.metrics.disagg_pages_tail
    check_invariants(server)


def _two_queue_program(prompt_b_len):
    """Context A samples while context B's chunked prefill is still in
    flight — the raw-api fill on B is issued but deliberately not awaited
    before A's first sample, so the sample retires mid-chunk."""

    async def main(ctx):
        a = Context(ctx, sampling=SamplingParams())
        await a.fill("context a warms up first. ")
        b = Context(ctx, sampling=SamplingParams())
        tokens = ctx.tokenize(b.queue, "tok " * prompt_b_len + "context b. ")
        positions = list(range(len(tokens)))
        b._ensure_capacity(len(tokens))
        prompt_embeds = ctx.alloc_emb(b.queue, len(tokens))
        ctx.embed_txt(b.queue, tokens, positions, prompt_embeds)
        ctx.forward(
            b.queue,
            ikv=b._pages,
            iemb=prompt_embeds,
            okv=b._writable_pages(),
            oemb=[b._gen_emb],
        )
        ctx.dealloc_emb(b.queue, prompt_embeds)
        # B's forward is now slicing through the chunked-prefill path.
        # This sample completes while B still has residual chunks queued:
        # the handoff must be refused, not taken mid-prefill.
        first = await a.generate_once()
        await ctx.synchronize(b.queue)
        b.token_ids.extend(tokens)
        b._visible.extend([True] * len(tokens))
        b._record_written(len(tokens))
        b._has_hidden = True
        second = await a.generate_once()
        third = await b.generate_once()
        a.free()
        b.free()
        return [first, second, third]

    return InferletProgram(name="midchunk", main=main)


def _run_mid_chunk(disagg):
    sim = Simulator(seed=5)
    if disagg:
        server = build_server(sim, devices=2)
    else:
        config = PieConfig(
            gpu=GpuConfig(
                num_kv_pages=72, num_devices=2, host_kv_pages=32, max_batch_tokens=16
            ),
            control=ControlLayerConfig(
                prefix_cache=True, chunked_prefill=True, prefill_chunk_tokens=8
            ),
        )
        server = PieServer(sim, config=config)
    server.register_program(_two_queue_program(prompt_b_len=60))
    result = sim.run_until_complete(server.run_inferlet("midchunk"))
    return server, result


def test_mid_chunk_sample_defers_handoff_and_preserves_order():
    """A sample retiring while another queue of the same inferlet still
    has prefill chunks in flight is NOT a safe handoff point: the
    transfer must refuse (counted as a failure), let the residual chunks
    retire in order on the source shard, and migrate at the next sample.
    The deferred handoff preserves residual-chunk ordering, so the tokens
    — including the one sampled from context B *after* migration — are
    bit-identical to a run without disaggregation."""
    server, result = _run_mid_chunk(disagg=True)
    assert result.status == "finished"
    metrics = server.metrics
    assert metrics.disagg_handoff_failures >= 1, "mid-chunk handoff was not refused"
    assert metrics.disagg_handoffs == 1
    assert metrics.prefill_chunks_dispatched > 0
    # Exactly one decode row ran on the prefill shard: the append of the
    # first sampled token, issued in the refused-handoff window.  The
    # second sample retires quiescent, migrates, and everything after —
    # including context B's decode — runs on the decode shard.
    prefill_rows = [
        shard.scheduler.stats.decode_rows_dispatched
        for shard in server.service().shards
        if shard.role == "prefill"
    ]
    assert sum(prefill_rows) == 1
    check_invariants(server)

    baseline_server, baseline = _run_mid_chunk(disagg=False)
    assert baseline.status == "finished"
    assert result.result == baseline.result
    assert baseline_server.metrics.disagg_handoffs == 0
