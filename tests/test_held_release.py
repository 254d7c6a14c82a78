"""A deallocation is no device work: its queue holds it at the issue watermark.

``dealloc_kvpage`` / ``dealloc_emb`` are charged and delivered like any
inference call, then wait in their ``CommandQueue`` as a ``synchronize``
barrier does (``CommandQueue.hold(settle)``, one future per call): the
free runs a loop step after every command pushed before it has retired,
after those commands' completion callbacks, and resolves the call's
future.  No batch, no candidate, no ``device.submit``.

* a release never runs before an earlier command on its queue that reads
  what it frees has retired: a chunked prefill's residual still reading its
  input slots, and the sample of an owner whose pages sit in the host tier
  (held back by the dispatch guard until they come home);
* no ``dealloc_*`` kind ever reaches the device, on a fleet that frees
  prompts, forks and contexts;
* a release waiting for the sample that hands its owner to a decode shard
  frees where the owner lives after the handoff;
* a freed page can be allocated by another inferlet in the instant its last
  reader retires (at the parent the free was a batch of its own, a
  formation window and a dispatch later);
* a double free fails the second call's future, and a queue torn down while
  a release waits drops it — nothing is freed;
* a prefill freed right behind its forward is still registered in the
  prefix cache (the finish hook runs before the free).

Hand-made mutants: *a release that does not wait* (``_hold`` resolves at
once) is killed by the residual and swap tests.  *A command retired before
its future resolves* (the parent's order) is killed in
``tests/test_swap_subsystem.py``: the finish-hook test and
``test_prefix_cached_pages_are_never_suspended``.  *A free run inside the
retirement* (``Controller.dealloc``'s ``settle`` calling ``release``
directly) is killed by the prefix-cache test.
"""

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.scheduler import BatchScheduler
from repro.errors import ResourceError
from repro.gpu.device import SimDevice
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from tests.test_disaggregation_invariants import build_server
from tests.test_swap_subsystem import SLOW_URL, make_server

PROMPT = list(range(3, 43))  # 40 tokens: three pages of 16


def _log_frees_and_retirements(monkeypatch, server):
    """Log, in the order they happen, every retired batch (kind and rows)
    and every free of a page or slot set."""
    log = []
    resources = server.service().shards[0].resources
    for name in ("dealloc_kv_pages", "dealloc_embeds"):
        free = getattr(resources, name)

        def logged(owner, handles, free=free, name=name):
            log.append(("free", name, len(handles)))
            free(owner, handles)

        monkeypatch.setattr(resources, name, logged)
    done = BatchScheduler._on_batch_done

    def on_batch_done(self, batch, future, dispatched):
        log.append(("retired", batch.kind, len(batch.commands)))
        done(self, batch, future, dispatched)

    monkeypatch.setattr(BatchScheduler, "_on_batch_done", on_batch_done)
    return log


def _run(server, main, name="main"):
    server.register_program(InferletProgram(name=name, main=main))
    result = server.sim.run_until_complete(server.run_inferlet(name))
    server.sim.run()
    return result


def test_a_release_waits_for_a_chunked_prefills_residual(monkeypatch):
    """The prompt's slots are freed right after the forward is issued; the
    forward's first slice dispatches, its residual still reads the rest of
    the slots, and the free waits for the residual to retire."""
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1, prefill_chunk_tokens=16)
    log = _log_frees_and_retirements(monkeypatch, server)

    async def main(ctx):
        queue = ctx.create_queue()
        pages = ctx.alloc_kvpage(queue, 3)
        embeds = ctx.alloc_emb(queue, len(PROMPT))
        ctx.embed_txt(queue, PROMPT, list(range(len(PROMPT))), embeds)
        forward = ctx.forward(queue, pages, embeds, pages, embeds[-1:])
        freed = ctx.dealloc_emb(queue, embeds[:-1])
        result = await forward
        assert await freed is None
        dist = await ctx.get_next_dist(queue, embeds[-1])
        return result, len(dist.token_ids)

    result = _run(server, main)
    assert result.status == "finished"
    # The forward's result counts the residual's inputs: the last piece.
    assert result.result == (len(PROMPT) - 32, 256)
    forwards = [entry for entry in log if entry[:2] == ("retired", "forward")]
    assert len(forwards) == 3  # two slices and the residual
    assert log.index(("free", "dealloc_embeds", len(PROMPT) - 1)) > log.index(forwards[-1])


def test_a_release_waits_for_a_swapped_owners_held_back_sample(monkeypatch):
    """An owner staged out to the host tier while its tool call is in
    flight samples its last hidden state and frees every slot and page: the
    sample reads no page, so nothing faults the owner back in, and the
    dispatch guard holds it until the resume path restores the pages.  The
    frees wait for it."""
    sim = Simulator(seed=0)
    server = make_server(sim, kv_pages=48, host_pages=48)
    log = _log_frees_and_retirements(monkeypatch, server)
    home = server.service().shards[0]

    async def main(ctx):
        queue = ctx.create_queue()
        pages = ctx.alloc_kvpage(queue, 3)
        embeds = ctx.alloc_emb(queue, len(PROMPT))
        ctx.embed_txt(queue, PROMPT, list(range(len(PROMPT))), embeds)
        await ctx.forward(queue, pages, embeds, pages, embeds[-1:])
        call = ctx.http_get(SLOW_URL)  # fire and forget: staged out now
        await ctx.sleep(0.01)
        staged = home.resources.is_swapped(ctx.instance_id)
        dist = ctx.get_next_dist(queue, embeds[-1])
        freed = [ctx.dealloc_emb(queue, embeds), ctx.dealloc_kvpage(queue, pages)]
        await call
        return staged, len((await dist).token_ids), [await f for f in freed]

    result = _run(server, main)
    assert result.status == "finished"
    assert result.result == (True, 256, [None, None])
    sample = log.index(("retired", "sample", 1))
    assert log.index(("free", "dealloc_embeds", len(PROMPT))) > sample
    assert log.index(("free", "dealloc_kv_pages", 3)) > sample


def test_a_release_follows_its_owner_through_a_handoff():
    """Disaggregation hands an owner to a decode shard when its sample
    retires — the sample a scratch slot's free waits for.  The free runs
    after the handoff and frees the slot where the owner's space now lives
    (a release bound to the shard of its issue found no space there and
    freed nothing)."""
    sim = Simulator(seed=0)
    server = build_server(sim, devices=2, prefix_cache=False)
    seen = {}

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        scratch = ctx.alloc_emb(context.queue, 1)
        await context.fill("a prompt for the prefill shard. ")
        prefill = ctx._instance.placements[context.queue.model]
        dist = ctx.get_next_dist(context.queue, context._gen_emb)
        freed = ctx.dealloc_emb(context.queue, scratch)
        await dist
        await freed
        decode = ctx._instance.placements[context.queue.model]
        seen["moved"] = decode is not prefill
        seen["mapped"] = scratch[0].vid in decode.resources.emb_mapping(ctx.instance_id)
        context.free()

    assert _run(server, main).status == "finished"
    assert seen == {"moved": True, "mapped": False}


def test_no_deallocation_reaches_the_device(monkeypatch):
    """A fleet that frees prompts, forks and contexts dispatches every kind
    it issues except the deallocations, and conserves every page and slot."""
    kinds = []
    submit = SimDevice.submit

    def spy(self, *, kind, **rest):
        kinds.append(kind)
        return submit(self, kind=kind, **rest)

    monkeypatch.setattr(SimDevice, "submit", spy)
    sim = Simulator(seed=3)
    server = PieServer(sim, num_devices=1)

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill("A prompt that is forked into two branches. ")
        children = [root.fork() for _ in range(2)]
        outs = [await child.generate_until(max_tokens=3) for child in children]
        for child in children:
            child.free()
        root.free()
        return outs

    server.register_program(InferletProgram(name="forker", main=main))

    async def fleet():
        return await sim.gather([sim.create_task(server.run_inferlet("forker")) for _ in range(4)])

    results = sim.run_until_complete(fleet())
    sim.run()
    assert [result.status for result in results] == ["finished"] * 4
    assert {"embed_text", "forward", "sample", "copy_kv", "copy_emb"} <= set(kinds)
    assert not [kind for kind in kinds if kind.startswith("dealloc")]
    stats = server.service().shards[0].scheduler.stats
    assert not [kind for kind in stats.batches_by_kind if kind.startswith("dealloc")]
    memory = server.service().shards[0].memory
    assert memory.kv_pages.num_allocated == memory.embeds.num_allocated == 0


def test_a_freed_page_is_allocatable_the_instant_its_last_reader_retires():
    """Four pages on the device.  ``holder`` writes its prompt into all four
    and frees them right after; ``taker`` waits for that free and then takes
    all four — in the instant the holder's forward retired, with nobody
    reclaimed.  At the parent the free was a batch of its own, a formation
    window and a dispatch after the forward."""
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1, num_kv_pages=4)
    marks = {}
    waiting = sim.create_future(name="taker-waiting")
    freed = sim.create_future(name="holder-freed")

    async def holder(ctx):
        await waiting
        queue = ctx.create_queue()
        pages = ctx.alloc_kvpage(queue, 4)
        embeds = ctx.alloc_emb(queue, len(PROMPT))
        ctx.embed_txt(queue, PROMPT, list(range(len(PROMPT))), embeds)
        forward = ctx.forward(queue, pages, embeds, pages)
        forward.add_done_callback(lambda _f: marks.setdefault("retired", sim.now))
        free = ctx.dealloc_kvpage(queue, pages)
        free.add_done_callback(lambda _f: freed.set_result(None))
        await free

    async def taker(ctx):
        waiting.set_result(None)
        await freed
        pages = ctx.alloc_kvpage(ctx.create_queue(), 4)
        marks["allocated"] = sim.now
        return len(pages)

    for main in (holder, taker):
        server.register_program(InferletProgram(name=main.__name__, main=main))

    async def fleet():
        return await sim.gather(
            [sim.create_task(server.run_inferlet(name)) for name in ("holder", "taker")]
        )

    results = sim.run_until_complete(fleet())
    sim.run()
    assert [result.status for result in results] == ["finished", "finished"]
    assert results[1].result == 4
    assert marks["allocated"] == marks["retired"]
    assert server.metrics.inferlets_terminated == 0


def test_a_double_free_fails_the_second_calls_future():
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1)

    async def main(ctx):
        queue = ctx.create_queue()
        pages = ctx.alloc_kvpage(queue, 1)
        first, second = ctx.dealloc_kvpage(queue, pages), ctx.dealloc_kvpage(queue, pages)
        assert await first is None
        with pytest.raises(ResourceError, match="double free"):
            await second
        return "ok"

    assert _run(server, main).result == "ok"


def test_a_queue_torn_down_drops_its_held_releases():
    """The release waits behind an in-flight prefill; the program destroys
    the queue first.  The release is dropped — its future resolves, nothing
    is freed — and the slots go back only with the address space."""
    sim = Simulator(seed=0)
    server = PieServer(sim, num_devices=1)
    resources = server.service().shards[0].resources

    async def main(ctx):
        queue = ctx.create_queue()
        pages = ctx.alloc_kvpage(queue, 3)
        embeds = ctx.alloc_emb(queue, len(PROMPT))
        ctx.embed_txt(queue, PROMPT, list(range(len(PROMPT))), embeds)
        ctx.forward(queue, pages, embeds, pages)
        freed = ctx.dealloc_emb(queue, embeds)
        await ctx.sleep(0.001)  # delivered: the release waits for the prefill
        free_before = resources.embeds_free
        ctx.destroy_queue(queue)
        assert await freed is None
        return resources.embeds_free - free_before

    assert _run(server, main).result == 0


def test_a_prefill_freed_behind_its_forward_is_still_cached():
    """The free runs a loop step after its watermark, so it follows the
    completion callbacks of the forward it waited for: the prefix cache's
    finish hook registers the prefill's pages before the owner's free drops
    its reference.  A free run inside the retirement (before those
    callbacks) leaves the cache empty."""
    sim = Simulator(seed=0)
    server = PieServer(sim, prefix_cache=True)
    shard = server.service().shards[0]

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("x" * 200)
        context.free()
        await ctx.sleep(0.5)  # alive, so the queued prefill is not dropped
        return "ok"

    assert _run(server, main).result == "ok"
    assert shard.prefix_cache.cached_pages() == shard.memory.kv_pages.num_allocated == 12
