"""A prefix-cache miss served from a peer shard's cache.

With ``prefix_cache`` on a cluster, a forward whose local radix walk stops
short of the pages it could reuse looks its chain up in the caches of the
other live shards (``PrefixCacheService._copy_from_peer``).  The peer
holding the most device-resident pages has them copied into the caller's
fresh pages (``KvMover.copy``), the pair's link and the landing charged to
the caller's device (``KvMover.land``), and the pages registered as pinned
local nodes, which ``_adopt`` then reuses.  This file holds:

* the two-shard scenario (the first of a family lingers on shard 0, the
  second lands on shard 1): its tokens equal a solo run, the copied pages
  equal their sources byte for byte, KV pools and refcounts are conserved
  after the copy and after both caches reclaim, and the prefill dispatches
  no earlier than its landing ends;
* nothing is copied from a shard killed by ``shard_crash``, nor from a
  demoted node;
* a copy lands only in the caller's fresh pages;
* four mutants of the copy, each killed.
"""

import inspect

import numpy as np
import pytest

import repro.core.prefix_cache as prefix_cache_module
from repro.core import InferletProgram, PieServer
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.mover import LINK_GBYTES_PER_S, LINK_LATENCY_MS
from repro.core.prefix_cache import PrefixCacheService
from repro.gpu.config import GpuConfig
from repro.sim import Simulator
from repro.sim.latency import milliseconds
from repro.support import Context, SamplingParams

#: 116 tokens under the byte tokenizer: seven full pages and four tokens.
PROMPT = (
    "System: you are a careful assistant; follow the fleet style guide and "
    "answer each task precisely and briefly. task. "
)
MAX_TOKENS = 6
LINGER_S = 0.5


def member(name):
    """Fill the family prompt, decode, give the pages back, then stay live
    for ``LINGER_S`` so that the next launch is placed on the other shard."""

    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(PROMPT)
        await context.generate_until(max_tokens=MAX_TOKENS)
        tokens = list(context.token_ids)
        context.free()
        await ctx.sleep(LINGER_S)
        return tokens

    return InferletProgram(name=name, main=main, prefix_hint=PROMPT)


def solo_tokens():
    """The oracle: one member alone on one device, no prefix cache."""
    sim = Simulator(seed=10)
    server = PieServer(sim)
    server.register_program(member("solo"))
    return sim.run_until_complete(server.run_inferlet("solo")).result


def record_copies(mover, copies):
    """Log each copy with what its destination pages were just before."""
    copy = mover.copy

    def record(src, dst, src_pids, dst_pids):
        copies.append(
            {
                "src": src,
                "src_pids": list(src_pids),
                "dst_pids": list(dst_pids),
                "dst_refcounts": [dst.resources.kv_refcount(pid) for pid in dst_pids],
                "dst_valid": dst.memory.kv_pages.valid_counts(list(dst_pids)),
            }
        )
        copy(src, dst, src_pids, dst_pids)

    mover.copy = record


def record_batches(sim, device, batches):
    """Log each batch ``device`` runs: its kind, cost and end time."""
    submit = device.submit

    def record(kind, run, cost_seconds, size=1):
        future = submit(kind=kind, run=run, cost_seconds=cost_seconds, size=size)
        entry = {"kind": kind, "cost": cost_seconds}
        future.add_done_callback(lambda _: entry.update(end=sim.now))
        batches.append(entry)
        return future

    device.submit = record


def run_pair(host_pages=0, fault_plan=(), between=None, second=None):
    """``first`` on shard 0; at 0.2 s ``between(server)`` runs, then
    ``second`` (a member unless given) launches and is placed on shard 1."""
    sim = Simulator(seed=10)
    config = PieConfig(
        gpu=GpuConfig(num_devices=2, host_kv_pages=host_pages),
        control=ControlLayerConfig(
            prefix_cache=True,
            placement_policy="cache_affinity",
            fault_plan=fault_plan,
        ),
    )
    server = PieServer(sim, config=config)
    service = server.service()
    copies, batches = [], []
    record_copies(service.mover, copies)
    record_batches(sim, service.shards[1].device, batches)
    server.register_program(member("first"))
    server.register_program(second or member("second"))

    async def scenario():
        head = sim.create_task(server.run_inferlet("first"))
        await sim.sleep(0.2)
        if between is not None:
            between(server)
        tail = await server.run_inferlet("second")
        return await head, tail

    first, tail = sim.run_until_complete(scenario())
    sim.run()
    assert server.metrics.placements_by_device == {shard.name: 1 for shard in service.shards}
    return server, first, tail, copies, batches


def cached_pids(shard):
    return sorted(shard.prefix_cache._by_pid)


def held_pids(server, shard):
    """The pages of ``shard``'s cache along the prompt (None: demoted)."""
    prompt = server.service().entry.tokenizer.encode(PROMPT)
    return [node.pid for node in shard.prefix_cache._match_path(prompt)]


# -- the two-shard scenario ------------------------------------------------------------


def test_a_miss_copies_the_peers_pages_and_keeps_the_tokens():
    server, first, second, copies, _ = run_pair()
    shards = server.service().shards
    size = shards[0].prefix_cache.page_size
    full = (len(server.service().entry.tokenizer.encode(PROMPT)) - 1) // size
    assert full == 7
    assert first.status == second.status == "finished"
    assert second.result == first.result == solo_tokens()
    # One hit, all of it through one peer copy of the prompt's full pages.
    m = server.metrics
    assert (m.prefix_cache_hits, m.prefix_cache_faultins) == (1, full)
    assert m.prefix_cache_saved_tokens == full * size
    assert len(copies) == 1
    [copy] = copies
    assert copy["src"] is shards[0]
    assert copy["src_pids"] == held_pids(server, shards[0])[:full]
    # ... landing in fresh pages of the second's own, now local nodes.
    assert copy["dst_refcounts"] == [1] * full
    assert copy["dst_valid"] == [0] * full
    assert set(copy["dst_pids"]) <= set(cached_pids(shards[1]))


def test_copied_pages_are_byte_equal_to_their_sources():
    server, _, _, [copy], _ = run_pair()
    src_store, dst_store = (shard.memory.kv_pages for shard in server.service().shards)
    for src_pid, dst_pid in zip(copy["src_pids"], copy["dst_pids"]):
        src, dst = src_store.page(src_pid), dst_store.page(dst_pid)
        for field in ("keys", "values", "positions", "valid", "visible"):
            assert np.array_equal(getattr(src, field), getattr(dst, field)), field


def test_pools_and_refcounts_are_conserved_after_copies_and_reclaim():
    server, _, _, [copy], _ = run_pair()
    service = server.service()
    for shard in service.shards:
        store = shard.memory.kv_pages
        # Every live page is a cache page held by the cache's pin alone.
        assert store.num_allocated == shard.prefix_cache.cached_pages() > 0
        assert all(shard.resources.kv_refcount(pid) == 1 for pid in cached_pids(shard))
        assert store.num_allocated + store.num_free == store.capacity
    assert set(copy["dst_pids"]) <= set(cached_pids(service.shards[1]))
    for shard in service.shards:
        while service.swap.reclaim_by_cache(shard):
            pass
        store = shard.memory.kv_pages
        assert shard.prefix_cache.cached_pages() == 0
        assert store.num_allocated == 0 and store.num_free == store.capacity


def test_the_prefill_dispatches_no_earlier_than_its_landing_ends():
    server, _, _, [copy], batches = run_pair()
    service = server.service()
    n = len(copy["dst_pids"])
    landings = [batch for batch in batches if batch["kind"] == "cache_fault_in"]
    assert len(landings) == 1
    [landing] = landings
    # The idle pair's wire, its latency and the landing copy.
    wire = n * service.mover.page_bytes / (LINK_GBYTES_PER_S * 1e9)
    expected = wire + milliseconds(LINK_LATENCY_MS) + service.cost_model.copy_batch_cost(n)
    assert landing["cost"] == pytest.approx(expected, rel=1e-12)
    forwards = [batch for batch in batches if batch["kind"] == "forward"]
    assert forwards
    assert batches.index(landing) < batches.index(forwards[0])
    assert forwards[0]["end"] - forwards[0]["cost"] >= landing["end"] - 1e-12


# -- what is never copied ----------------------------------------------------------------


def test_nothing_is_copied_from_a_crashed_shard():
    """Shard 0 crashes after caching the prompt: the second re-prefills."""
    server, first, second, copies, _ = run_pair(fault_plan=(("shard_crash", 0.1, 0),))
    shards = server.service().shards
    assert shards[0].device.down
    assert shards[0].prefix_cache.cached_pages() > 0  # still indexed, never read
    assert first.status == "terminated"
    assert second.status == "finished"
    assert second.result == solo_tokens()
    assert copies == []
    m = server.metrics
    assert (m.prefix_cache_hits, m.prefix_cache_faultins) == (0, 0)


def test_a_demoted_node_is_not_copied():
    """The coldest page of shard 0's chain is demoted to the host tier: the
    copy takes the resident run above it and the rest is prefilled."""

    def demote_one(server):
        assert server.service().shards[0].prefix_cache.reclaim_one() == 1

    server, _, second, [copy], _ = run_pair(host_pages=16, between=demote_one)
    shards = server.service().shards
    size = shards[0].prefix_cache.page_size
    resident = held_pids(server, shards[0])
    assert resident[-1] is None and None not in resident[:-1]
    assert copy["src_pids"] == resident[:-1]
    assert second.result == solo_tokens()
    m = server.metrics
    assert m.prefix_cache_demotions == 1
    assert m.prefix_cache_faultins == len(resident) - 1
    assert m.prefix_cache_saved_tokens == (len(resident) - 1) * size


HELD = 5


async def sharing_main(ctx):
    """A raw prefill of the prompt whose pages from ``HELD`` on are also
    exported before the forward, so they are not fresh."""
    queue = ctx.create_queue()
    tokens = ctx.tokenize(queue, PROMPT)
    size = ctx.kv_page_size()
    pages = ctx.alloc_kvpage(queue, -(-len(tokens) // size))
    ctx.export_kvpage(pages[HELD:], "held")
    embeds = ctx.alloc_emb(queue, len(tokens))
    ctx.embed_txt(queue, tokens, list(range(len(tokens))), embeds)
    out = ctx.alloc_emb(queue, 1)
    ctx.forward(queue, ikv=pages, iemb=embeds, okv=pages, oemb=out)
    await ctx.synchronize(queue)
    return "filled"


def test_a_copy_lands_only_in_the_callers_fresh_pages():
    sharing = InferletProgram(name="second", main=sharing_main, prefix_hint=PROMPT)
    server, _, second, [copy], _ = run_pair(second=sharing)
    assert second.status == "finished"
    assert len(copy["dst_pids"]) == HELD
    assert copy["dst_refcounts"] == [1] * HELD
    assert server.metrics.prefix_cache_faultins == HELD


# -- mutants ------------------------------------------------------------------------------


def mutated_copy(old, new):
    """``_copy_from_peer`` with one source line changed."""
    source = inspect.getsource(prefix_cache_module)
    assert source.count(old) == 1, f"mutation site not found exactly once: {old!r}"
    namespace = {"__name__": prefix_cache_module.__name__}
    exec(compile(source.replace(old, new), prefix_cache_module.__file__, "exec"), namespace)
    return namespace["PrefixCacheService"]._copy_from_peer


MUTANTS = {
    "copy_from_a_down_shard": (
        (" or peer.device.down", ""),
        test_nothing_is_copied_from_a_crashed_shard,
    ),
    "landing_not_charged": (
        ('self.mover.land(source.index, self.shard, "cache_fault_in", n)', "pass"),
        test_the_prefill_dispatches_no_earlier_than_its_landing_ends,
    ),
    "node_registered_unpinned": (
        (
            "parent = self._insert(parent, node.tokens, pid)",
            "parent = self._insert(parent, node.tokens, pid); self.resources.unpin_kv(pid)",
        ),
        test_pools_and_refcounts_are_conserved_after_copies_and_reclaim,
    ),
    "copy_past_the_fresh_pages": (
        (" or not self._fresh(ikv_pids[index], num_valid[n])", ""),
        test_a_copy_lands_only_in_the_callers_fresh_pages,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch):
    (old, new), check = MUTANTS[name]
    monkeypatch.setattr(PrefixCacheService, "_copy_from_peer", mutated_copy(old, new))
    with pytest.raises(AssertionError):
        check()
